"""Exception hierarchy shared by all bms modules.

The CLI maps ``SchemaError`` to exit code 2 and ``MathDomainError``, with
its subclasses, to exit code 3, so library code should raise the most
specific class that applies.
"""


class BmsError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(BmsError, ValueError):
    """Malformed or mismatched data: bad labels, wrong lengths, wrong JSON
    shape, or an operation applied to objects that do not line up."""


class MathDomainError(BmsError, ValueError):
    """A mathematically invalid request (divisibility failure, overflow)."""


class DivisibilityError(MathDomainError):
    """A required divisibility relation between multiplicities fails."""


class OverflowLimitError(MathDomainError):
    """A computed integer exceeded the checked machine-width bound."""


class SizeLimitError(MathDomainError):
    """A request exceeds a documented size limit; refused before any work
    or allocation that would grow with it."""
