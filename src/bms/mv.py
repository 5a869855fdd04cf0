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

The kernel runs over plain lists of index tables.  Associativity is decided
by Light's test: the elements a with (x (+) a) (+) y = x (+) (a (+) y) for
all x and y are closed under (+), so the table is associative iff every
element of a generating set passes.  A greedy closure finds such a set in
O(m^2) ({0, 1} for a chain), so the test costs O(m^2) per generator; only a
failing table is scanned triple by triple for its first failure.

Element arguments go through ``sgroup``'s element guard, so they are
refused with the same SchemaError as there.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import SchemaError, SizeLimitError
from .sgroup import GroupElement, LHom, SpeckerGroup, _element, apply_lhom, leq, meet

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


# Longest chain [0, n] that verify_mv_axioms checks.  Its kernel costs
# O(n^2) time and memory: about 0.015 s at n = 256 on a 2-core Xeon,
# so one gamma request stays well under a second.
CHAIN_LIMIT = 256
# Largest algebra the exhaustive oracle accepts.  At the cap it takes about
# 0.12-0.23 s on a 2-core Xeon, most of it in the build of the 400 x 400 plus
# table from element tuples, in under 7 MB.
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
    ``fiber_decomposition`` is checked once, on the (n+1) x (n+1) tables of
    ``_chain_tables``.  The equations are the 0 law, absorption by neg 0,
    involution of negation, commutativity, the exchange equation
    x (+) neg(x (+) neg y) = y (+) neg(y (+) neg x), and associativity.  The
    cost is the sum over distinct n of O(n^2) time and memory; the empty base
    has no chains and passes as the one-element algebra.

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
    violations = []
    for n in chains:
        plus, neg = _chain_tables(n)
        violations += _table_violations(plus, neg, f"on chain [0,{n}]")
    return {"cardinality": cardinality(group), "violations": violations, "pass": not violations}


def _chain_tables(n: int) -> tuple[list[list[int]], list[int]]:
    """The plus and neg index tables of the chain [0, n]: min(i + j, n) and n - i."""
    return [[*range(i, n + 1), *[n] * i] for i in range(n + 1)], [*range(n, -1, -1)]


def _table_violations(plus: Sequence[Sequence[int]], neg: Sequence[int], where: str) -> list[str]:
    """Failed MV equations of the index tables of an algebra on 0..m-1 with
    zero 0; ``where`` names the algebra in the messages, and a failed exchange
    equation or associativity its first failing x, y (and z)."""
    plus = [tuple(row) for row in plus]
    cols = [*zip(*plus)]
    idx = tuple(range(len(neg)))
    violations = []

    if cols[0] != idx:
        violations.append(f"x (+) 0 = x fails {where}")
    if cols[neg[0]] != (neg[0],) * len(idx):
        violations.append(f"x (+) neg 0 = neg 0 fails {where}")
    if tuple([neg[v] for v in neg]) != idx:
        violations.append(f"neg neg x = x fails {where}")
    if cols != plus:
        violations.append(f"commutativity fails {where}")

    xy = [tuple([row[neg[row[v]]] for v in neg]) for row in plus]
    if (yx := [*zip(*xy)]) != xy:
        i, j = next((i, j) for i, j in itertools.product(idx, repeat=2) if xy[i][j] != yx[i][j])
        violations.append(f"exchange equation fails {where} at x={i} y={j}")

    # Light's test, (x (+) a) (+) y = x (+) (a (+) y), of each generator a
    if not all(
        plus[row[a]] == tuple([row[v] for v in plus[a]])
        for a in _generators(plus)
        for row in plus
    ):
        x, y, z = next(
            (x, y, z) for x, y, z in itertools.product(idx, repeat=3)
            if plus[plus[x][y]][z] != plus[x][plus[y][z]]
        )
        violations.append(f"associativity fails {where} at x={x} y={y} z={z}")
    return violations


def _generators(plus: list[tuple[int, ...]]) -> Iterator[int]:
    """Indices that generate every index under (+), in index order: an index
    is taken when the sums found so far miss it.  Each pair of found indices
    is summed once, in O(m^2)."""
    found: set[int] = set()
    summed: list[int] = []
    for g in range(len(plus)):
        if g not in found:
            yield g
            found.add(g)
            queue = [g]
            while queue:
                e = queue.pop()
                summed.append(e)
                new = {plus[e][c] for c in summed} - found
                found |= new
                queue += new


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
    # elements yields the all-zero tuple first, the zero at index 0 that
    # _table_violations requires
    elems = [e.values for e in elements(group)]
    index = {x: i for i, x in enumerate(elems)}
    unit = group.unit().values
    plus = [
        [index[tuple(map(min, map(operator.add, x, y), unit))] for y in elems] for x in elems
    ]
    neg = [index[tuple(map(operator.sub, unit, x))] for x in elems]
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
