"""Exception hierarchy shared by all bms modules.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
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


class MissingColimitError(BmsError):
    """Raised for the colimit constructions that are not implemented yet.

    Finite multispaces have pushouts and coequalizers; the obstruction to
    them is the omega+1 case, replayed by ``omega.pushout_demo``."""
