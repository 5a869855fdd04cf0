"""Exact arithmetic for finite boolean multispaces, their dual unital
Specker l-groups, unit-interval MV-algebras, finite (co)limits, and a
symbolic model of the compactified naturals for the obstruction demos."""

from .errors import (
    BmsError,
    DivisibilityError,
    MathDomainError,
    OverflowLimitError,
    SchemaError,
    SizeLimitError,
)
from .mspace import (
    BmsMorphism,
    MultiSpace,
    are_isomorphic,
    compose,
    enumerate_homs,
    identity,
    is_isomorphism,
    new_morphism,
    new_space,
)
from .sgroup import GroupElement, LHom, SpeckerGroup

__version__ = "0.1.0"

__all__ = [
    "BmsError",
    "SchemaError",
    "MathDomainError",
    "DivisibilityError",
    "OverflowLimitError",
    "SizeLimitError",
    "MultiSpace",
    "BmsMorphism",
    "new_space",
    "new_morphism",
    "identity",
    "compose",
    "is_isomorphism",
    "enumerate_homs",
    "are_isomorphic",
    "SpeckerGroup",
    "GroupElement",
    "LHom",
    "__version__",
]
