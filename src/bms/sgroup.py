"""Unital Specker l-groups in canonical function-group form.

A group is carried as the integer-vector group over a multispace, with the
multiplicity function as its distinguished unit.  Elements support pointwise
group and lattice operations; maximal ideals correspond to points, closed-set
ideals to subsets of points, and unital l-homomorphisms to point maps with
multipliers: an ``LHom`` stores the row form of ``mspace``, one (column,
multiplier) pair per codomain point, and ``validate_lhom`` is the one
decoder of the dense matrix form.

Element values are validated once, where they enter: calling
``GroupElement`` (and so ``SpeckerGroup.element`` and ``element_from_dict``)
checks the length and that every value is an int, not a bool, with
|v| <= ``INT_LIMIT``.  Operations whose results stay in range by
construction build elements through the private ``GroupElement._trusted``
without checking again: ``meet``, ``join``, unary ``-`` and ``abs`` (the
bound is symmetric), ``laws.box_elements`` (after checking its two bounds)
and ``mv.elements``.  Only ``+``, ``-`` and scalar ``*`` can grow a value;
each tests its result's extremes against the bound once and raises
``OverflowLimitError`` beyond it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import SchemaError
from .ints import INT_LIMIT, checked
from .mspace import MultiSpace, check_rows, compose_rows, identity_rows, space_from_dict, space_to_dict

__all__ = [
    "SpeckerGroup",
    "GroupElement",
    "MaximalIdeal",
    "ClosedSetIdeal",
    "LHom",
    "meet",
    "join",
    "leq",
    "is_singular",
    "is_singular_definitional",
    "greatest_singular",
    "support",
    "maxspec",
    "residue",
    "residue_by_ideal_scan",
    "residues",
    "ideal_from_zeroset",
    "zeroset_from_ideal",
    "canonical_generator",
    "is_maximal",
    "is_maximal_by_criterion",
    "hyperarch_witness",
    "hyperarch_witness_by_scan",
    "validate_lhom",
    "apply_lhom",
    "identity_lhom",
    "compose_lhom",
    "lhom_point_map",
    "is_isomorphism_lhom",
    "group_to_dict",
    "group_from_dict",
    "element_to_dict",
    "element_from_dict",
    "lhom_to_dict",
    "lhom_from_dict",
]


@dataclass(frozen=True)
class SpeckerGroup:
    """The group of integer vectors over a multispace, with unit = multiplicity."""

    base: MultiSpace

    def element(self, values: Iterable[int]) -> GroupElement:
        return GroupElement(self, values)

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * len(self.base))

    def unit(self) -> GroupElement:
        return GroupElement(self, self.base.mults)

    def __repr__(self) -> str:
        return f"SpeckerGroup(unit={self.base.mults})"


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An integer vector indexed by the base points of its group.

    Calling the class validates ``values``; any iterable of ints is stored
    as a tuple.
    """

    group: SpeckerGroup
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if len(values) != len(self.group.base):
            raise SchemaError(
                f"element has {len(values)} values but the base has "
                f"{len(self.group.base)} points"
            )
        for v in values:
            checked(v, "element value")
        object.__setattr__(self, "values", values)

    @staticmethod
    def _trusted(group: SpeckerGroup, values: tuple[int, ...]) -> GroupElement:
        """An element built without validation.

        Only for a tuple of ints of the group's length that the caller has
        already kept within ``INT_LIMIT``.
        """
        e = _new(GroupElement)
        _set_group(e, group)
        _set_values(e, values)
        return e

    def value(self, label: str) -> int:
        return self.values[self.group.base.index(label)]

    def _same_group(self, other: GroupElement) -> None:
        if not isinstance(other, GroupElement):
            raise SchemaError(f"expected a group element, got {other!r}")
        if self.group is not other.group and self.group != other.group:
            raise SchemaError("elements belong to different groups")

    def __add__(self, other: GroupElement) -> GroupElement:
        self._same_group(other)
        return _bounded(self.group, tuple(map(operator.add, self.values, other.values)), "sum")

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._same_group(other)
        return _bounded(
            self.group, tuple(map(operator.sub, self.values, other.values)), "difference"
        )

    def __neg__(self) -> GroupElement:
        return _trusted(self.group, tuple(map(operator.neg, self.values)))

    def __abs__(self) -> GroupElement:
        return _trusted(self.group, tuple(map(abs, self.values)))

    def __mul__(self, k: int) -> GroupElement:
        checked(k, "scalar")
        return _bounded(self.group, tuple([k * a for a in self.values]), "scalar product")

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"GroupElement{self.values}"


_new = object.__new__
_set_group = GroupElement.group.__set__
_set_values = GroupElement.values.__set__
_trusted = GroupElement._trusted


def _bounded(group: SpeckerGroup, values: tuple[int, ...], context: str) -> GroupElement:
    """The element with the computed ``values``, after one test of their
    extremes against ``INT_LIMIT``; ``checked`` names a value beyond it."""
    if values and (max(values) > INT_LIMIT or min(values) < -INT_LIMIT):
        for v in values:
            checked(v, context)
    return _trusted(group, values)


def meet(a: GroupElement, b: GroupElement) -> GroupElement:
    a._same_group(b)
    return _trusted(a.group, tuple(map(min, a.values, b.values)))


def join(a: GroupElement, b: GroupElement) -> GroupElement:
    a._same_group(b)
    return _trusted(a.group, tuple(map(max, a.values, b.values)))


def leq(a: GroupElement, b: GroupElement) -> bool:
    """Pointwise order."""
    a._same_group(b)
    return all(x <= y for x, y in zip(a.values, b.values))


# -- singular elements --------------------------------------------------------

def is_singular(f: GroupElement) -> bool:
    """True iff every value is 0 or 1 (an indicator of a subset of points)."""
    return all(v in (0, 1) for v in f.values)


def is_singular_definitional(s: GroupElement) -> bool:
    """The order-theoretic singularity test, by exhaustive quantification.

    Checks s >= 0 and that a /\\ (s - a) = 0 for every element a with
    0 <= a <= s.  Exponential in the point count; intended for cross-checking
    ``is_singular`` on small groups.
    """
    if any(v < 0 for v in s.values):
        return False
    for combo in itertools.product(*(range(v + 1) for v in s.values)):
        if any(min(a, sv - a) != 0 for a, sv in zip(combo, s.values)):
            return False
    return True


def greatest_singular(group: SpeckerGroup) -> GroupElement:
    """The constant-1 vector, the top of the boolean algebra of singulars."""
    return GroupElement(group, (1,) * len(group.base))


def support(s: GroupElement) -> frozenset[str]:
    """The set of points where a singular element equals 1."""
    if not is_singular(s):
        raise SchemaError(f"support is only defined for singular elements, got {s.values}")
    return frozenset(l for l, v in zip(s.group.base.labels, s.values) if v == 1)


# -- ideals -------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalIdeal:
    """The ideal of elements vanishing at one base point."""

    group: SpeckerGroup
    point: str

    def __post_init__(self) -> None:
        self.group.base.index(self.point)

    def contains(self, g: GroupElement) -> bool:
        if g.group != self.group:
            raise SchemaError("element belongs to a different group")
        return g.value(self.point) == 0

    def __repr__(self) -> str:
        return f"MaximalIdeal(at={self.point!r})"


@dataclass(frozen=True)
class ClosedSetIdeal:
    """The ideal of elements vanishing on a fixed set of base points.

    The empty zero set is the improper ideal (everything); the full point
    set is the zero ideal.
    """

    group: SpeckerGroup
    zeroset: frozenset[str]
    _zero_indices: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        indices = tuple(self.group.base.index(lab) for lab in self.zeroset)
        object.__setattr__(self, "_zero_indices", indices)

    def contains(self, g: GroupElement) -> bool:
        if g.group is not self.group and g.group != self.group:
            raise SchemaError("element belongs to a different group")
        values = g.values
        for i in self._zero_indices:
            if values[i]:
                return False
        return True


def maxspec(group: SpeckerGroup) -> tuple[MaximalIdeal, ...]:
    """All maximal ideals, in canonical base-point order."""
    return tuple(MaximalIdeal(group, l) for l in group.base.labels)


def residue(m: MaximalIdeal, g: GroupElement) -> int:
    """Image of g under the unique surjection onto the integers with kernel m.

    Computed by evaluation at the ideal's point; agrees with the membership
    scan of ``residue_by_ideal_scan``.
    """
    if g.group != m.group:
        raise SchemaError("element belongs to a different group")
    return g.value(m.point)


def residue_by_ideal_scan(m: MaximalIdeal, g: GroupElement) -> int:
    """The unique j with g - j * s in m, s the greatest singular element.

    Scans j over [-M, M] with M = max|g| * max(unit); a sound finite bound.
    """
    if g.group != m.group:
        raise SchemaError("element belongs to a different group")
    s = greatest_singular(g.group)
    gmax = max((abs(v) for v in g.values), default=0)
    umax = max(g.group.base.mults, default=1)
    bound = gmax * umax
    hits = [j for j in range(-bound, bound + 1) if m.contains(g - j * s)]
    if len(hits) != 1:
        raise SchemaError(f"expected a unique residue, found {hits}")
    return hits[0]


def residues(g: GroupElement) -> dict[MaximalIdeal, int]:
    """The residue of g at every maximal ideal (canonical order).

    The residue is 0 exactly at the ideals containing g.
    """
    return {m: residue(m, g) for m in maxspec(g.group)}


def ideal_from_zeroset(group: SpeckerGroup, zeroset: Iterable[str]) -> ClosedSetIdeal:
    return ClosedSetIdeal(group, frozenset(zeroset))


def zeroset_from_ideal(group: SpeckerGroup, generators: Sequence[GroupElement]) -> ClosedSetIdeal:
    """The ideal generated by the given elements, as its common zero set.

    With no generators this is the zero ideal (all points vanish).
    """
    zero = set(group.base.labels)
    for g in generators:
        if g.group != group:
            raise SchemaError("generator belongs to a different group")
        zero &= {l for l in group.base.labels if g.value(l) == 0}
    return ClosedSetIdeal(group, frozenset(zero))


def canonical_generator(ideal: ClosedSetIdeal) -> GroupElement:
    """The indicator of the complement of the zero set generates the ideal."""
    return GroupElement(
        ideal.group,
        tuple(0 if l in ideal.zeroset else 1 for l in ideal.group.base.labels),
    )


def is_maximal(ideal: ClosedSetIdeal) -> bool:
    """True iff the zero set is a singleton."""
    return len(ideal.zeroset) == 1


def is_maximal_by_criterion(
    ideal: ClosedSetIdeal, candidates: Optional[Iterable[GroupElement]] = None
) -> bool:
    """Elementary maximality test: the ideal is proper and every element
    outside it pushes the unit into the ideal after scaling.

    For each candidate a not in the ideal, searches n in [0, max(unit)] with
    (u - n*|a|) \\/ 0 in the ideal.  By default quantifies a over all
    elements with values in [-1, 1] together with the unit, which is enough
    to separate singletons from larger zero sets at desk scale.
    """
    group = ideal.group
    u = group.unit()
    if ideal.contains(u):
        return False
    if candidates is None:
        boxes = itertools.product(*([(-1, 0, 1)] * len(group.base)))
        candidates = [GroupElement(group, vals) for vals in boxes] + [u]
    zero = group.zero()
    nmax = max(group.base.mults, default=0)
    for a in candidates:
        if ideal.contains(a):
            continue
        ok = any(
            ideal.contains(join(u - n * abs(a), zero)) for n in range(nmax + 1)
        )
        if not ok:
            return False
    return True


# -- hyperarchimedean witness -------------------------------------------------

def _require_nonnegative(f: GroupElement, g: GroupElement) -> None:
    f._same_group(g)
    if min(f.values, default=0) < 0 or min(g.values, default=0) < 0:
        raise SchemaError("hyperarch_witness requires nonnegative elements")


def hyperarch_witness(f: GroupElement, g: GroupElement) -> int:
    """Least n with n*f /\\ g = (n+1)*f /\\ g, for nonnegative f and g.

    At a point with f_i > 0 the value min(n*f_i, g_i) stops growing exactly
    when n*f_i >= g_i; where f_i = 0 it is always 0.  So n is the largest
    ceil(g_i / f_i) over the points with f_i > 0, or 0 if there are none,
    and at most the largest value of g.
    """
    _require_nonnegative(f, g)
    return max((-(-b // a) for a, b in zip(f.values, g.values) if a), default=0)


def hyperarch_witness_by_scan(f: GroupElement, g: GroupElement) -> int:
    """``hyperarch_witness`` by scanning n = 0, 1, ... until the meets agree.

    Builds four elements per step; kept as the test oracle of the closed form.
    """
    _require_nonnegative(f, g)
    n = 0
    while meet(n * f, g) != meet((n + 1) * f, g):
        n += 1
    return n


# -- unital l-homomorphisms ---------------------------------------------------

@dataclass(frozen=True)
class LHom:
    """A unital l-homomorphism, stored as its dual point map with multipliers.

    ``rows[r] = (c, k)`` for codomain point r: the image of f is k * f[c] at r,
    so c is gamma(r) and k is zeta(r), and k * unit_dom(c) = unit_cod(r) keeps
    the unit.  ``matrix`` derives the dense form: row r holds k at column c.
    """

    dom: SpeckerGroup
    cod: SpeckerGroup
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        check_rows(self.rows, self.cod.base, self.dom.base)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense nonnegative integer matrix, one row per codomain point."""
        n = len(self.dom.base)
        return tuple(tuple(k if j == c else 0 for j in range(n)) for c, k in self.rows)

    def __repr__(self) -> str:
        return f"LHom({len(self.cod.base)}x{len(self.dom.base)})"


def validate_lhom(
    matrix: Sequence[Sequence[int]], dom: SpeckerGroup, cod: SpeckerGroup
) -> LHom:
    """Decode a dense matrix: each row needs checked entries, the domain's
    width and exactly one positive entry, which becomes its (column, k) pair;
    ``LHom`` then checks the row count and the unit."""
    ncols = len(dom.base)
    rows = []
    for r, row in enumerate(matrix):
        row = [checked(v, "matrix entry") for v in row]
        if len(row) != ncols:
            raise SchemaError(f"row {r} has {len(row)} entries, expected {ncols}")
        positives = [(c, k) for c, k in enumerate(row) if k != 0]
        if any(k < 0 for _, k in positives):
            raise SchemaError(f"row {r} has a negative entry")
        if len(positives) != 1:
            raise SchemaError(f"row {r} has {len(positives)} positive entries, expected exactly 1")
        rows.append(positives[0])
    return LHom(dom, cod, tuple(rows))


def apply_lhom(h: LHom, f: GroupElement) -> GroupElement:
    """The image k * f[c] at each codomain point, for its row (c, k)."""
    if f.group != h.dom:
        raise SchemaError("element does not live in the homomorphism's domain")
    values = f.values
    return _bounded(h.cod, tuple([k * values[c] for c, k in h.rows]), "image value")


def identity_lhom(group: SpeckerGroup) -> LHom:
    return LHom(group, group, identity_rows(len(group.base)))


def compose_lhom(first: LHom, second: LHom) -> LHom:
    """Diagrammatic composition: apply ``first``, then ``second``.

    Row (c, k) of ``second`` reads k * (k' * f[c']) for row (c', k') = c of
    ``first``, so the composite row is (c', k * k').
    """
    if first.cod != second.dom:
        raise SchemaError("cannot compose: codomain of first != domain of second")
    return LHom(first.dom, second.cod, compose_rows(second.rows, first.rows))


def lhom_point_map(h: LHom) -> dict[str, tuple[str, int]]:
    """Each codomain point's source point and multiplier."""
    labels = h.dom.base.labels
    return {w: (labels[c], k) for w, (c, k) in zip(h.cod.base.labels, h.rows)}


def is_isomorphism_lhom(h: LHom) -> bool:
    """True iff the rows form a unit-compatible permutation (all multipliers 1)."""
    if len(h.dom.base) != len(h.cod.base):
        return False
    return len({c for c, _ in h.rows}) == len(h.rows) and all(k == 1 for _, k in h.rows)


# -- JSON forms ---------------------------------------------------------------

def group_to_dict(group: SpeckerGroup) -> dict:
    return {"space": space_to_dict(group.base)}


def group_from_dict(data: object) -> SpeckerGroup:
    if not isinstance(data, dict) or "space" not in data:
        raise SchemaError("group JSON must be an object with a 'space' field")
    return SpeckerGroup(space_from_dict(data["space"]))


def element_to_dict(g: GroupElement) -> dict:
    return {"group": group_to_dict(g.group), "values": list(g.values)}


def element_from_dict(data: object) -> GroupElement:
    if not isinstance(data, dict) or not {"group", "values"} <= set(data):
        raise SchemaError("element JSON needs 'group' and 'values' fields")
    if not isinstance(data["values"], list):
        raise SchemaError("'values' must be an array of integers")
    return GroupElement(group_from_dict(data["group"]), data["values"])


def lhom_to_dict(h: LHom) -> dict:
    return {
        "dom": group_to_dict(h.dom),
        "cod": group_to_dict(h.cod),
        "matrix": [list(row) for row in h.matrix],
    }


def lhom_from_dict(data: object) -> LHom:
    if not isinstance(data, dict) or not {"dom", "cod", "matrix"} <= set(data):
        raise SchemaError("lhom JSON needs 'dom', 'cod' and 'matrix' fields")
    mat = data["matrix"]
    if not isinstance(mat, list) or not all(isinstance(r, list) for r in mat):
        raise SchemaError("'matrix' must be an array of integer rows")
    return validate_lhom(mat, group_from_dict(data["dom"]), group_from_dict(data["cod"]))
