"""Unit-interval MV-algebras of Specker groups.

The algebra Gamma(G) of a group G is its unit interval [0, u] with truncated
addition x (+) y = (x + y) /\\ u and complement u - x.  G alone fixes it, so
Gamma(G) is carried by G: every function here takes the ``SpeckerGroup``,
the elements are group elements, and an ``MVHom`` is its ``LHom``.  Over a
finite base the algebra is the product, over the base points, of the
Lukasiewicz chains [0, u(p)] (Mundici's Gamma in this case), so its
cardinality has a closed form and its axioms are verified chain by chain,
without materializing the element set.  The test oracle
``verify_mv_axioms_exhaustive`` enumerates the elements instead, builds its
tables from their values and runs the same equation kernel on them, so the
two differ only in the product decomposition.

Element arguments go through ``sgroup``'s element guard, so they are
refused with the same SchemaError as there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import SchemaError, SizeLimitError
from .sgroup import GroupElement, LHom, SpeckerGroup, _element, apply_lhom, leq, meet

# numpy is imported by the three functions that build tables, so importing
# ``bms`` (and every ``bms`` command that checks no MV axiom) does not load it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FiberComponent",
    "MVHom",
    "mv_plus",
    "mv_neg",
    "elements",
    "cardinality",
    "contains",
    "verify_mv_axioms",
    "verify_mv_axioms_exhaustive",
    "CHAIN_LIMIT",
    "EXHAUSTIVE_CAP",
    "fiber_decomposition",
]


# Longest chain [0, n] that verify_mv_axioms checks.  Its associativity sweep
# costs O(n^3) time in O(n^2) memory: about 0.05 s at n = 256 on a 2-core
# Xeon, so one gamma request stays well under a second.
CHAIN_LIMIT = 256
# Largest algebra the exhaustive oracle accepts.  At the cap it takes about
# 0.5 s on a 2-core Xeon, half in the Python build of the 400 x 400 plus
# table from element tuples and half in the chain kernel, in under 7 MB.
EXHAUSTIVE_CAP = 400


@dataclass(frozen=True)
class FiberComponent:
    """A maximal set of base points sharing one unit value."""

    points: tuple[str, ...]
    n: int


def contains(group: SpeckerGroup, x: GroupElement) -> bool:
    """Whether x lies in Gamma(group); SchemaError if x is no group element."""
    return _element(x).group == group and leq(group.zero(), x) and leq(x, group.unit())


def _require_member(x: GroupElement) -> None:
    if not contains(_element(x).group, x):
        raise SchemaError(f"{x.values} is outside the unit interval {x.group.base.mults}")


def mv_plus(x: GroupElement, y: GroupElement) -> GroupElement:
    """Truncated addition (x + y) /\\ u."""
    _require_member(x)
    _require_member(_element(y, x.group))
    return meet(x + y, x.group.unit())


def mv_neg(x: GroupElement) -> GroupElement:
    """Complement u - x."""
    _require_member(x)
    return x.group.unit() - x


def elements(group: SpeckerGroup) -> Iterator[GroupElement]:
    """All unit-interval elements, in lexicographic value order."""
    for vals in itertools.product(*[range(u + 1) for u in group.base.mults]):
        yield GroupElement(group, vals)


def cardinality(group: SpeckerGroup) -> int:
    return math.prod(u + 1 for u in group.base.mults)


@dataclass(frozen=True)
class MVHom:
    """Restriction of a unital l-homomorphism to unit intervals, from
    Gamma(lhom.dom) to Gamma(lhom.cod).

    Well defined because such homomorphisms are order preserving and send
    unit to unit.
    """

    lhom: LHom

    def __call__(self, x: GroupElement) -> GroupElement:
        if not contains(self.lhom.dom, x):
            raise SchemaError("argument is outside the domain algebra")
        return apply_lhom(self.lhom, x)


def verify_mv_axioms(group: SpeckerGroup) -> dict:
    """Check the MV-algebra equations on each distinct chain of the algebra.

    The algebra is the product of the non-empty chains [0, n], one per base
    point, and an equation holds in a product of non-empty algebras iff it
    holds in every factor (Birkhoff).  So each distinct n from
    ``fiber_decomposition`` is checked once, on (n+1) x (n+1) tables with
    plus = min(i + j, n) and neg = n - i.  The equations are the 0 law,
    absorption by neg 0, involution of negation, commutativity, the exchange
    equation x (+) neg(x (+) neg y) = y (+) neg(y (+) neg x), and
    associativity, which runs one x-slice at a time.  The cost is the sum
    over distinct n of O(n^3) time in O(n^2) memory; the empty base has no
    chains and passes as the one-element algebra.

    Raises SizeLimitError, before any table is built, when a unit value
    exceeds CHAIN_LIMIT.  ``cardinality`` in the report is the closed form.
    ``verify_mv_axioms_exhaustive`` is the independent oracle that builds
    the tables of small algebras from all of their elements.
    """
    chains = [c.n for c in fiber_decomposition(group)]
    if chains and max(chains) > CHAIN_LIMIT:
        raise SizeLimitError(
            f"unit value {max(chains)} exceeds the chain limit {CHAIN_LIMIT} of gamma"
        )
    import numpy as np

    violations = []
    for n in chains:
        idx = np.arange(n + 1)
        plus = np.minimum(idx[:, None] + idx[None, :], n)
        violations += _table_violations(plus, n - idx, f"on chain [0,{n}]")
    return {"cardinality": cardinality(group), "violations": violations, "pass": not violations}


def _table_violations(plus: np.ndarray, neg: np.ndarray, where: str) -> list[str]:
    """Failed MV equations of the index tables of an algebra on 0..m-1 with
    zero 0; ``where`` names the algebra in the messages."""
    import numpy as np

    idx = np.arange(len(neg))
    violations = []

    if not np.array_equal(plus[:, 0], idx):
        violations.append(f"x (+) 0 = x fails {where}")
    if not np.all(plus[:, neg[0]] == neg[0]):
        violations.append(f"x (+) neg 0 = neg 0 fails {where}")
    if not np.array_equal(neg[neg], idx):
        violations.append(f"neg neg x = x fails {where}")
    if not np.array_equal(plus, plus.T):
        violations.append(f"commutativity fails {where}")

    xy = plus[idx[:, None], neg[plus[idx[:, None], neg[None, :]]]]
    if not np.array_equal(xy, xy.T):
        i, j = map(int, np.argwhere(xy != xy.T)[0])
        violations.append(f"exchange equation fails {where} at x={i} y={j}")

    for x in idx:
        left = plus[plus[x]]        # [y, z] -> (x+y)+z
        right = plus[x][plus]       # [y, z] -> x+(y+z)
        if not np.array_equal(left, right):
            j, k = map(int, np.argwhere(left != right)[0])
            violations.append(f"associativity fails {where} at x={x} y={j} z={k}")
            break
    return violations


def verify_mv_axioms_exhaustive(group: SpeckerGroup) -> dict:
    """Test oracle: check the same equations on tables over all elements.

    Independent of the product decomposition: it enumerates every element,
    builds the plus and neg index tables from the element values, and runs
    on them the kernel that ``verify_mv_axioms`` runs on each chain.  Indices
    in the messages are positions in ``elements``.  Raises SizeLimitError,
    before enumerating anything, when the algebra has more than
    EXHAUSTIVE_CAP elements.
    """
    size = cardinality(group)
    if size > EXHAUSTIVE_CAP:
        raise SizeLimitError(
            f"algebra of {size} elements exceeds the exhaustive cap {EXHAUSTIVE_CAP}"
        )
    import numpy as np

    # elements yields the all-zero tuple first, the zero at index 0 that
    # _table_violations requires
    elems = [e.values for e in elements(group)]
    index = {x: i for i, x in enumerate(elems)}
    unit = group.unit().values
    plus = np.array([
        [index[tuple(min(a + b, u) for a, b, u in zip(x, y, unit))] for y in elems]
        for x in elems
    ])
    neg = np.array([index[tuple(u - a for a, u in zip(x, unit))] for x in elems])
    violations = _table_violations(plus, neg, f"on unit {group.base.mults}")
    return {"cardinality": len(elems), "violations": violations, "pass": not violations}


def fiber_decomposition(group: SpeckerGroup) -> tuple[FiberComponent, ...]:
    """Group base points by unit value, components ordered by that value.

    The algebra is the product over its fibers of algebras of functions into
    a finite chain, so the component cardinalities (n+1)^|points| multiply
    to the total.
    """
    groups: dict[int, list[str]] = {}
    base = group.base
    for lab, u in zip(base.labels, base.mults):
        groups.setdefault(u, []).append(lab)
    return tuple(FiberComponent(tuple(pts), n) for n, pts in sorted(groups.items()))
