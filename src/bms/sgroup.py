"""Unital Specker l-groups in canonical function-group form.

A group is carried as the integer-vector group over a multispace, with the
multiplicity function as its distinguished unit.  Elements support pointwise
group and lattice operations.  An ideal is a ``ClosedSetIdeal``, fixed by
its zero set of points; the maximal ideals are the one-point zero sets.  A
unital l-homomorphism is a view of its dual point map: ``LHom`` holds one
``mspace.BmsMorphism`` from the codomain's base to the domain's, and
composition, identities and the dual maps of ``duality`` are those of point
maps; its groups are built from that map when asked for.  ``validate_lhom``
is the one decoder of the dense matrix form: it decodes each row with
``decode_matrix_row`` and checks the rows through the ``BmsMorphism``
constructor.  ``duality.enumerate_lhoms`` decodes its candidate rows with
the same ``decode_matrix_row``, once each, and checks them once each
through ``mspace.homs_from_factors``.  As the hom-bijection sweep decodes
every candidate row so, ``decode_matrix_row`` is one plain loop over the
entries, with no comprehension or generator frame per row.
``identity_lhom`` and ``compose_lhom`` take their point maps from
``mspace.identity`` and ``mspace.compose``, which do not check the rows
again: identity rows (i, 1) and composites of checked rows satisfy the
divisibility rule by construction.

Element values are validated once, where they enter: calling
``GroupElement`` (and so ``SpeckerGroup.element``) checks that the group is
a ``SpeckerGroup``, the length, and that every value is an int, not a bool,
with |v| <= ``INT_LIMIT``.
Operations whose results stay in range by construction build elements
without checking again.  ``meet`` and ``join`` build theirs in place, as
``_trusted`` does; unary ``-`` and ``abs`` (the bound is symmetric) and
``box_elements`` (after checking its two bounds), which also yields the
candidates of ``is_maximal_by_criterion``, call the private
``GroupElement._trusted``.
Only ``+``, ``-`` and scalar ``*`` can grow a value; each tests its result's
extremes against the bound once and raises ``OverflowLimitError`` beyond it.
No other module reaches ``_trusted``: ``tests/test_trusted_scope.py`` fails
if one does.

A group compares and hashes as its base, with an identity test first, and
an ``LHom`` as its point map, so an equal group or map built again hits the
caches of ``duality``.  ``apply_lhom`` accepts, with one inline test, an
element whose group wraps the very base of the map's domain, and passes
anything else to ``_element``; it builds only the image's group.

One private guard, ``_element``, decides whether an argument is an element
and of which group; ``mv`` uses it too.  The per-case kernels ``meet``,
``join``, ``leq``, ``hyperarch_witness``, ``ClosedSetIdeal.contains`` and
``is_singular`` call it only when an inline test of the exact type and the
group object fails.  The ideal of ``residue`` and ``residue_by_ideal_scan``,
the map of ``apply_lhom`` and the generators of ``zeroset_from_ideal`` are
refused with a SchemaError too when they are no ideal, no ``LHom`` or no
sequence.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import SchemaError, SizeLimitError
from .ints import INT_LIMIT, checked
from .mspace import (
    HOM_LIMIT,
    BmsMorphism,
    MultiSpace,
    compose,
    identity,
    space_from_dict,
    space_to_dict,
)

__all__ = [
    "SpeckerGroup",
    "GroupElement",
    "box_elements",
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
    "decode_matrix_row",
    "validate_lhom",
    "apply_lhom",
    "identity_lhom",
    "compose_lhom",
    "group_to_dict",
    "group_from_dict",
    "lhom_to_dict",
    "lhom_from_dict",
]


@dataclass(frozen=True)
class SpeckerGroup:
    """The group of integer vectors over a multispace, with unit = multiplicity."""

    base: MultiSpace

    def __eq__(self, other: object) -> bool:
        if type(other) is not SpeckerGroup:
            return NotImplemented
        return self.base is other.base or self.base == other.base

    def __hash__(self) -> int:
        return hash(self.base)

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

    Calling the class validates ``group`` and ``values``; any iterable of
    ints is stored as a tuple.
    """

    group: SpeckerGroup
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.group) is not SpeckerGroup:
            raise SchemaError(f"expected a Specker group, got {self.group!r}")
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

    def __add__(self, other: GroupElement) -> GroupElement:
        _element(other, self.group)
        return _bounded(self.group, tuple(map(operator.add, self.values, other.values)), "sum")

    def __sub__(self, other: GroupElement) -> GroupElement:
        _element(other, self.group)
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


def _element(x: object, group: SpeckerGroup | None = None) -> GroupElement:
    """x, if it is a group element and, when ``group`` is given, an element
    of that group or of an equal one; anything else is a SchemaError."""
    if not isinstance(x, GroupElement):
        raise SchemaError(f"expected a group element, got {x!r}")
    if group is not None and x.group is not group and x.group != group:
        raise SchemaError(f"{x!r} belongs to a different group than {group!r}")
    return x


def _bounded(group: SpeckerGroup, values: tuple[int, ...], context: str) -> GroupElement:
    """The element with the computed ``values``, after one test of their
    extremes against ``INT_LIMIT``; ``checked`` names a value beyond it."""
    if values and (max(values) > INT_LIMIT or min(values) < -INT_LIMIT):
        for v in values:
            checked(v, context)
    return _trusted(group, values)


def box_elements(group: SpeckerGroup, lo: int, hi: int) -> Iterator[GroupElement]:
    """Every element with all values in [lo, hi], in lexicographic order.

    The two bounds are checked against ``INT_LIMIT`` before the first
    element, so the elements themselves need no further check.
    """
    checked(lo, "box bound")
    checked(hi, "box bound")
    for vals in itertools.product(range(lo, hi + 1), repeat=len(group.base)):
        yield _trusted(group, vals)


# ``meet``, ``join``, ``leq`` and ``hyperarch_witness`` pass two elements of
# the very same group object without further test; anything else goes
# through ``_element``, which accepts an equal group and refuses the rest.


def meet(a: GroupElement, b: GroupElement) -> GroupElement:
    if type(a) is not GroupElement or type(b) is not GroupElement or a.group is not b.group:
        _element(b, _element(a).group)
    values = [*a.values]
    for i, v in enumerate(b.values):
        if v < values[i]:
            values[i] = v
    e = _new(GroupElement)
    _set_group(e, a.group)
    _set_values(e, tuple(values))
    return e


def join(a: GroupElement, b: GroupElement) -> GroupElement:
    if type(a) is not GroupElement or type(b) is not GroupElement or a.group is not b.group:
        _element(b, _element(a).group)
    values = [*a.values]
    for i, v in enumerate(b.values):
        if v > values[i]:
            values[i] = v
    e = _new(GroupElement)
    _set_group(e, a.group)
    _set_values(e, tuple(values))
    return e


def leq(a: GroupElement, b: GroupElement) -> bool:
    """Pointwise order."""
    if type(a) is not GroupElement or type(b) is not GroupElement or a.group is not b.group:
        _element(b, _element(a).group)
    for x, y in zip(a.values, b.values):
        if x > y:
            return False
    return True


# -- singular elements --------------------------------------------------------

def is_singular(f: GroupElement) -> bool:
    """True iff every value is 0 or 1 (an indicator of a subset of points)."""
    if type(f) is not GroupElement:
        _element(f)
    for v in f.values:
        if v != 0 and v != 1:
            return False
    return True


def is_singular_definitional(s: GroupElement) -> bool:
    """The order-theoretic singularity test, by exhaustive quantification.

    Checks s >= 0 and that a /\\ (s - a) = 0 for every element a with
    0 <= a <= s.  Exponential in the point count; intended for cross-checking
    ``is_singular`` on small groups.  An s with a negative value is not
    singular; otherwise more than ``HOM_LIMIT`` elements below s are refused
    with SizeLimitError before the first one is built.
    """
    values = _element(s).values
    ranges = []
    count = 1
    for v in values:
        if v < 0:
            return False
        ranges.append(range(v + 1))
        count *= v + 1
    if count > HOM_LIMIT:
        raise SizeLimitError(f"{count} elements below {values} exceed the limit of {HOM_LIMIT}")
    for combo in itertools.product(*ranges):
        for a, v in zip(combo, values):
            if min(a, v - a) != 0:
                return False
    return True


def greatest_singular(group: SpeckerGroup) -> GroupElement:
    """The constant-1 vector, the top of the boolean algebra of singulars."""
    return GroupElement(group, (1,) * len(group.base))


def support(s: GroupElement) -> frozenset[str]:
    """The set of points where a singular element equals 1."""
    if not is_singular(s):
        raise SchemaError(f"support is only defined for singular elements, got {s.values}")
    on = []
    for label, v in zip(s.group.base.labels, s.values):
        if v == 1:
            on.append(label)
    return frozenset(on)


# -- ideals -------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedSetIdeal:
    """The ideal of elements vanishing on a fixed set of base points.

    The empty zero set is the improper ideal (everything); the full point
    set is the zero ideal; the one-point zero sets are the maximal ideals.
    A zero set given as another iterable is stored as a frozenset; a string
    is refused, not split into one-character labels.
    """

    group: SpeckerGroup
    zeroset: frozenset[str]
    _zero_indices: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.zeroset) is not frozenset:
            if isinstance(self.zeroset, str):
                raise SchemaError(
                    f"zero set {self.zeroset!r} is a string; pass a list of point labels"
                )
            try:
                object.__setattr__(self, "zeroset", frozenset(self.zeroset))
            except TypeError:
                raise SchemaError(
                    f"zero set must be an iterable of point labels, got {self.zeroset!r}"
                ) from None
        indices = tuple(self.group.base.index(lab) for lab in self.zeroset)
        object.__setattr__(self, "_zero_indices", indices)

    def contains(self, g: GroupElement) -> bool:
        if type(g) is not GroupElement or g.group is not self.group:
            _element(g, self.group)
        values = g.values
        for i in self._zero_indices:
            if values[i]:
                return False
        return True


def maxspec(group: SpeckerGroup) -> tuple[ClosedSetIdeal, ...]:
    """All maximal ideals, the one-point zero sets, in base-point order."""
    return tuple(ClosedSetIdeal(group, frozenset((l,))) for l in group.base.labels)


def residue(m: ClosedSetIdeal, g: GroupElement) -> int:
    """Image of g under the unique surjection onto the integers with kernel m.

    Computed by evaluation at the ideal's one zero; agrees with the
    membership scan of ``residue_by_ideal_scan``.
    """
    i = _one_zero_index(m, g)
    return g.values[i]


def _one_zero_index(m: ClosedSetIdeal, g: GroupElement) -> int:
    """The index of m's one zero, refusing an m that is no maximal ideal and
    a g from another group."""
    if not isinstance(m, ClosedSetIdeal):
        raise SchemaError(f"expected an ideal, got {m!r}")
    _element(g, m.group)
    if len(m._zero_indices) != 1:
        raise SchemaError(f"residue is only defined at a one-point zero set, got {sorted(m.zeroset)}")
    return m._zero_indices[0]


def residue_by_ideal_scan(m: ClosedSetIdeal, g: GroupElement) -> int:
    """The unique j with g - j * s in m, s the greatest singular element.

    Scans j over [-M, M] with M = max|g| * max(unit); a sound finite bound.
    Refuses what ``residue`` refuses, then, before scanning, a scan of more
    than ``HOM_LIMIT`` values with SizeLimitError.
    """
    _one_zero_index(m, g)
    gmax = max((abs(v) for v in g.values), default=0)
    umax = max(g.group.base.mults, default=1)
    bound = gmax * umax
    if 2 * bound + 1 > HOM_LIMIT:
        raise SizeLimitError(
            f"a residue scan of {2 * bound + 1} values exceeds the limit of {HOM_LIMIT}"
        )
    s = greatest_singular(g.group)
    hits = [j for j in range(-bound, bound + 1) if m.contains(g - j * s)]
    if len(hits) != 1:
        raise SchemaError(f"expected a unique residue, found {hits}")
    return hits[0]


def residues(g: GroupElement) -> dict[ClosedSetIdeal, int]:
    """The residue of g at every maximal ideal (canonical order).

    The residue is 0 exactly at the ideals containing g.
    """
    return {m: residue(m, g) for m in maxspec(_element(g).group)}


def ideal_from_zeroset(group: SpeckerGroup, zeroset: Iterable[str]) -> ClosedSetIdeal:
    return ClosedSetIdeal(group, zeroset)


def zeroset_from_ideal(group: SpeckerGroup, generators: Sequence[GroupElement]) -> ClosedSetIdeal:
    """The ideal generated by the given elements, as its common zero set.

    With no generators this is the zero ideal (all points vanish).
    """
    try:
        generators = tuple(generators)
    except TypeError:
        raise SchemaError(
            f"generators must be a sequence of group elements, got {generators!r}"
        ) from None
    zero = set(group.base.labels)
    for g in generators:
        _element(g, group)
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


def is_maximal_by_criterion(ideal: ClosedSetIdeal) -> bool:
    """Elementary maximality test: the ideal is proper and every element
    outside it pushes the unit into the ideal after scaling.

    For each candidate a not in the ideal, searches n in [0, max(unit)] with
    (u - n*|a|) \\/ 0 in the ideal.  Quantifies a over all elements with
    values in [-1, 1] together with the unit, which is enough to separate
    singletons from larger zero sets at desk scale.  The candidates come
    from ``box_elements``, so none is checked again.  The search reads only
    |a|, so it runs once per distinct |a|: at most 2^n + 1 searches for the
    3^n + 1 candidates of an n-point group.  A proper ideal of a group with
    more than ``HOM_LIMIT`` candidates is refused with SizeLimitError before
    the first one is built.
    """
    group = ideal.group
    u = group.unit()
    if ideal.contains(u):
        return False
    count = 3 ** len(group.base) + 1
    if count > HOM_LIMIT:
        raise SizeLimitError(f"{count} maximality candidates exceed the limit of {HOM_LIMIT}")
    zero = group.zero()
    nmax = max(group.base.mults, default=0)
    searched = set()
    for a in itertools.chain(box_elements(group, -1, 1), (u,)):
        if ideal.contains(a):
            continue
        size = abs(a)
        if size.values in searched:
            continue
        searched.add(size.values)
        for n in range(nmax + 1):
            if ideal.contains(join(u - n * size, zero)):
                break
        else:
            return False
    return True


# -- hyperarchimedean witness -------------------------------------------------

def hyperarch_witness(f: GroupElement, g: GroupElement) -> int:
    """Least n with n*f /\\ g = (n+1)*f /\\ g, for nonnegative f and g.

    At a point with f_i > 0 the value min(n*f_i, g_i) stops growing exactly
    when n*f_i >= g_i; where f_i = 0 it is always 0.  So n is the largest
    ceil(g_i / f_i) over the points with f_i > 0, or 0 if there are none,
    and at most the largest value of g.  f and g are tested as ``meet``
    tests them.  One pass over the points raises n to ceil(g_i / f_i) where
    n*f_i < g_i, after one sign test of f_i | g_i, which is negative iff
    f_i or g_i is.
    """
    if type(f) is not GroupElement or type(g) is not GroupElement or f.group is not g.group:
        _element(g, _element(f).group)
    n = 0
    for a, b in zip(f.values, g.values):
        if a | b < 0:
            raise SchemaError("hyperarch_witness requires nonnegative elements")
        if a and n * a < b:
            n = -(-b // a)
    return n


# -- unital l-homomorphisms ---------------------------------------------------

@dataclass(frozen=True)
class LHom:
    """A unital l-homomorphism dom -> cod, as a view of its dual point map.

    ``point_map`` gamma goes from cod's base to dom's base.  Its row
    r = (c, k) for codomain point r says the image of f is k * f[c] at r,
    so c is gamma(r) and k is zeta(r), and k * unit_dom(c) = unit_cod(r)
    keeps the unit.  ``matrix`` derives the dense form: row r holds k at
    column c.
    """

    point_map: BmsMorphism

    def __eq__(self, other: object) -> bool:
        if type(other) is not LHom:
            return NotImplemented
        return self.point_map is other.point_map or self.point_map == other.point_map

    def __hash__(self) -> int:
        return hash(self.point_map)

    @property
    def dom(self) -> SpeckerGroup:
        return SpeckerGroup(self.point_map.cod)

    @property
    def cod(self) -> SpeckerGroup:
        return SpeckerGroup(self.point_map.dom)

    @property
    def rows(self) -> tuple[tuple[int, int], ...]:
        return self.point_map.rows

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense nonnegative integer matrix, one row per codomain point."""
        n = len(self.dom.base)
        return tuple(tuple(k if j == c else 0 for j in range(n)) for c, k in self.rows)

    def __repr__(self) -> str:
        return f"LHom({len(self.cod.base)}x{len(self.dom.base)})"


def decode_matrix_row(r: int, row: Sequence[int], ncols: int) -> tuple[int, int]:
    """Row r of a dense matrix as its (column, k) pair: the row needs checked
    entries, ``ncols`` of them, and exactly one positive entry, k at the
    column.  Whether k keeps the unit is the point map's check.

    Every entry is checked before the row's length, then its signs, then its
    count of positive entries, so a row with two faults reports the first of
    these."""
    n = nonzero = 0
    negative = False
    first = None
    for v in row:
        if type(v) is not int or not -INT_LIMIT <= v <= INT_LIMIT:
            v = checked(v, "matrix entry")  # raises unless an int subclass in range
        if v != 0:
            if v < 0:
                negative = True
            elif first is None:
                first = (n, v)
            nonzero += 1
        n += 1
    if n != ncols:
        raise SchemaError(f"row {r} has {n} entries, expected {ncols}")
    if negative:
        raise SchemaError(f"row {r} has a negative entry")
    if nonzero != 1:
        raise SchemaError(f"row {r} has {nonzero} positive entries, expected exactly 1")
    return first


def validate_lhom(
    matrix: Sequence[Sequence[int]], dom: SpeckerGroup, cod: SpeckerGroup
) -> LHom:
    """Decode a dense matrix row by row with ``decode_matrix_row``; the
    checked constructor of the dual point map then checks the row count and
    the unit.  A matrix or a row that is not iterable is a SchemaError."""
    ncols = len(dom.base)
    try:
        rows = tuple([decode_matrix_row(r, row, ncols) for r, row in enumerate(matrix)])
    except TypeError:
        raise SchemaError(f"matrix must be a sequence of integer rows, got {matrix!r}") from None
    return LHom(BmsMorphism(cod.base, dom.base, rows))


def apply_lhom(h: LHom, f: GroupElement) -> GroupElement:
    """The image k * f[c] at each codomain point, for its row (c, k).

    An element of a group that wraps the very base of ``h``'s domain passes
    without further test; anything else goes through ``_element``."""
    if not isinstance(h, LHom):
        raise SchemaError(f"expected an l-homomorphism, got {h!r}")
    point_map = h.point_map
    if type(f) is not GroupElement or f.group.base is not point_map.cod:
        _element(f, h.dom)
    values = f.values
    return _bounded(
        SpeckerGroup(point_map.dom),
        tuple([k * values[c] for c, k in point_map.rows]),
        "image value",
    )


def identity_lhom(group: SpeckerGroup) -> LHom:
    return LHom(identity(group.base))


def compose_lhom(first: LHom, second: LHom) -> LHom:
    """Diagrammatic composition: apply ``first``, then ``second``.

    Contravariance: the dual point map of the composite is that of
    ``second`` followed by that of ``first``.
    """
    return LHom(compose(second.point_map, first.point_map))


# -- JSON forms ---------------------------------------------------------------

def group_to_dict(group: SpeckerGroup) -> dict:
    return {"space": space_to_dict(group.base)}


def group_from_dict(data: object) -> SpeckerGroup:
    if not isinstance(data, dict) or "space" not in data:
        raise SchemaError("group JSON must be an object with a 'space' field")
    return SpeckerGroup(space_from_dict(data["space"]))


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
