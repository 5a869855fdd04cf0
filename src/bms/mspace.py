"""Finite boolean multispaces and multiplicity-decreasing point maps.

A multispace is a finite set of labeled points with a positive integer
multiplicity attached to each point.  A morphism is a point map under which
the codomain multiplicity divides the domain multiplicity pointwise; the
quotient is the morphism's own multiplicity ``zeta``.

A morphism stores a row (j, z) per domain point i, its image j and multiplier
z with z * m(j) = m(i).  A morphism chooses its rows independently at each
point, so Hom(X, Y) = prod over x of Hom({x}, Y): ``hom_factors`` lists each
point's candidate rows, the dividing targets with multiplier m // n, and
every hom-set is counted, enumerated or streamed from these factors.

One row rule, ``_checked_row``, checks rows.  Calling ``BmsMorphism`` runs
it on every row: a row that is a 2-tuple of ints satisfying the rule passes
one inline test, and any other row goes to ``_checked_row``, which refuses
it or returns it as a tuple, as ``MultiSpace`` tests its multiplicities.
So do ``new_morphism`` (label maps),
``sgroup.validate_lhom`` (one dense matrix) and ``duality.spectrum_map``,
``duality.unit_iso`` and ``duality.counit_iso``, whose rows are valid only
if the spectrum's residues are right.  ``homs_from_factors`` runs it once
per candidate row of given factors, then builds every morphism of their
product from the checked rows: ``duality.enumerate_lhoms`` builds its
matrices so, without checking a row again in each matrix that holds it.
Within this module, rows that are valid by construction build the morphism
through the private ``BmsMorphism._trusted`` without checking again:
``enumerate_homs`` (one candidate row of each ``hom_factors`` factor),
``compose`` (z * z' * m(l) = z * m(j) = m(i)) and ``identity``.  An
``sgroup.LHom`` is a view of its dual point map, so it is checked or
trusted as that map is.  The legs of ``limits.limit`` are the one use
outside this module, and ``tests/test_trusted_scope.py`` fails on any
other.  ``compose_rows`` composes rows.  Every space is built by the
checked ``MultiSpace`` constructor.

The law sweeps call ``compose_rows`` and ``is_isomorphism`` once or more
per enumerated morphism, so both are plain loops: on CPython 3.10 and 3.11
a comprehension or generator builds a frame per call, and 3.12 (PEP 709)
inlines comprehensions but not generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .errors import DivisibilityError, SchemaError, SizeLimitError
from .ints import INT_LIMIT, checked

__all__ = [
    "MultiSpace",
    "BmsMorphism",
    "new_space",
    "new_morphism",
    "compose_rows",
    "identity_rows",
    "identity",
    "compose",
    "is_isomorphism",
    "hom_factors",
    "limited_hom_factors",
    "enumerate_homs",
    "homs_from_factors",
    "HOM_LIMIT",
    "are_isomorphic",
    "space_to_dict",
    "space_from_dict",
    "morphism_to_dict",
    "morphism_from_dict",
]

# Most tuples a product scan visits, counted before it visits any: the
# morphisms of ``enumerate_homs`` and the point tuples of ``limits.limit``.
HOM_LIMIT = 100_000
Rows = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MultiSpace:
    """An ordered tuple of distinct point labels with their multiplicities.

    Point order is part of the value: it fixes every enumeration order
    downstream.  The empty space is legal.  Labels and multiplicities given
    as other sequences are stored as tuples.  The hash is computed once,
    when the space is built, since spaces key the caches of ``duality`` and
    ``limits``; a pickled or copied space is rebuilt, and so rehashed.
    """

    labels: tuple[str, ...]
    mults: tuple[int, ...]
    _index: dict[str, int] = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.labels) is not tuple:
            object.__setattr__(self, "labels", tuple(self.labels))
        if type(self.mults) is not tuple:
            object.__setattr__(self, "mults", tuple(self.mults))
        if len(self.labels) != len(self.mults):
            raise SchemaError(
                f"{len(self.labels)} labels but {len(self.mults)} multiplicities"
            )
        index: dict[str, int] = {}
        for i, lab in enumerate(self.labels):
            if not isinstance(lab, str):
                raise SchemaError(f"point label must be a string, got {lab!r}")
            if lab in index:
                raise SchemaError(f"duplicate point label {lab!r}")
            index[lab] = i
        for lab, m in zip(self.labels, self.mults):
            if type(m) is not int or not 0 < m <= INT_LIMIT:  # context formatted on failure only
                checked(m, f"multiplicity of {lab!r}")
                if m < 1:
                    raise SchemaError(f"multiplicity of {lab!r} must be >= 1, got {m}")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash((self.labels, self.mults)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return MultiSpace, (self.labels, self.mults)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise SchemaError(f"unknown point label {label!r}") from None

    def mult(self, label: str) -> int:
        """Multiplicity of the point with the given label."""
        return self.mults[self.index(label)]

    def __repr__(self) -> str:
        pts = ", ".join(f"{l}:{m}" for l, m in zip(self.labels, self.mults))
        return f"MultiSpace({pts})"


def new_space(labels: Sequence[str], mults: Sequence[int]) -> MultiSpace:
    """Build a multispace; the given point order becomes canonical."""
    return MultiSpace(tuple(labels), tuple(mults))


@dataclass(frozen=True, slots=True)
class BmsMorphism:
    """A point map whose codomain multiplicity divides the domain's.

    ``rows[i] = (j, z)``: domain point i goes to codomain point j, and its
    multiplier z satisfies z * m_cod(j) = m_dom(i).  Calling the class
    checks every row and stores the rows, and each row, given as another
    sequence as a tuple.
    ``targets``, ``zetas`` and ``mapping`` read the rows back as labels.
    """

    dom: MultiSpace
    cod: MultiSpace
    rows: Rows

    def __post_init__(self) -> None:
        dom, cod, rows = self.dom, self.cod, self.rows
        if type(rows) is not tuple:
            try:
                rows = tuple(rows)
            except TypeError:
                raise SchemaError(
                    f"rows must be a sequence of (index, multiplier) pairs, got {rows!r}"
                ) from None
        dom_mults, cod_mults = dom.mults, cod.mults
        if len(rows) != len(dom_mults):
            raise SchemaError(f"{len(rows)} rows for {len(dom_mults)} points")
        n = len(cod_mults)
        converted = None
        for i, row in enumerate(rows):
            if type(row) is tuple and len(row) == 2:
                j, z = row
                if (
                    type(j) is int
                    and type(z) is int
                    and 0 <= j < n
                    and z * cod_mults[j] == dom_mults[i]
                ):
                    continue
            # refuses the row as the row rule does, or returns it as a tuple
            if converted is None:
                converted = list(rows)
            converted[i] = _checked_row(dom, cod, i, row)
        _set_rows(self, rows if converted is None else tuple(converted))

    @staticmethod
    def _trusted(dom: MultiSpace, cod: MultiSpace, rows: Rows) -> BmsMorphism:
        """A morphism built without the row check.

        Only for a tuple of (int index, int multiplier) pairs, one per
        domain point, that satisfies z * m_cod(j) = m_dom(i) by construction.
        """
        m = _new(BmsMorphism)
        _set_dom(m, dom)
        _set_cod(m, cod)
        _set_rows(m, rows)
        return m

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple([self.cod.labels[j] for j, _ in self.rows])

    @property
    def zetas(self) -> tuple[int, ...]:
        return tuple([z for _, z in self.rows])

    def __call__(self, label: str) -> str:
        return self.cod.labels[self.rows[self.dom.index(label)][0]]

    def zeta(self, label: str) -> int:
        return self.rows[self.dom.index(label)][1]

    @property
    def mapping(self) -> dict[str, str]:
        return dict(zip(self.dom.labels, self.targets))

    def __repr__(self) -> str:
        arrows = ", ".join(f"{l}->{t}" for l, t in zip(self.dom.labels, self.targets))
        return f"BmsMorphism({arrows or 'empty'})"


_new = object.__new__
_set_dom = BmsMorphism.dom.__set__
_set_cod = BmsMorphism.cod.__set__
_set_rows = BmsMorphism.rows.__set__
_trusted = BmsMorphism._trusted


def _checked_row(dom: MultiSpace, cod: MultiSpace, i: int, row: object) -> tuple[int, int]:
    """The row rule of every checked morphism: row i of a morphism dom -> cod
    is an (int index j, int multiplier z) pair with z * m_cod(j) = m_dom(i).
    Returns the row as a tuple; raises SchemaError or DivisibilityError."""
    n = len(cod.mults)
    try:
        j, z = row
    except (TypeError, ValueError):
        raise SchemaError(f"row {i}: {row!r} is not an (int index < {n}, int) pair") from None
    if type(j) is not int or type(z) is not int or not 0 <= j < n:
        raise SchemaError(f"row {i}: {(j, z)!r} is not an (int index < {n}, int) pair")
    if z * cod.mults[j] != dom.mults[i]:
        raise DivisibilityError(
            f"row {i}: {z} * multiplicity {cod.mults[j]} of {cod.labels[j]!r} "
            f"!= multiplicity {dom.mults[i]} of {dom.labels[i]!r}"
        )
    return j, z


def compose_rows(first: Rows, second: Rows) -> Rows:
    """Point i goes to j by ``first`` and on to l by ``second``: its composite
    row is (l, z * z') for first[i] = (j, z) and second[j] = (l, z')."""
    rows = []
    for j, z in first:
        l, w = second[j]
        rows.append((l, z * w))
    return tuple(rows)


def identity_rows(n: int) -> Rows:
    """Each of n points to itself with multiplier 1."""
    return tuple([(i, 1) for i in range(n)])


def new_morphism(dom: MultiSpace, cod: MultiSpace, gamma: Mapping[str, str]) -> BmsMorphism:
    """Build a morphism from an explicit label map, validating divisibility."""
    if not isinstance(gamma, Mapping):
        raise SchemaError("'map' must be an object of label pairs")
    missing = [l for l in dom.labels if l not in gamma]
    if missing:
        raise SchemaError(f"point map missing domain labels {missing}")
    extra = [l for l in gamma if l not in dom._index]
    if extra:
        raise SchemaError(f"point map mentions unknown labels {extra}")
    if not all(isinstance(gamma[l], str) for l in dom.labels):
        raise SchemaError("'map' values must be point labels")
    targets = [cod.index(gamma[l]) for l in dom.labels]
    return BmsMorphism(dom, cod, tuple([(j, m // cod.mults[j]) for j, m in zip(targets, dom.mults)]))


def identity(space: MultiSpace) -> BmsMorphism:
    return _trusted(space, space, identity_rows(len(space)))


def compose(first: BmsMorphism, second: BmsMorphism) -> BmsMorphism:
    """Diagrammatic composition: apply ``first``, then ``second``.

    The composite's zeta is the pointwise product of the component zetas.
    """
    if first.cod is not second.dom and first.cod != second.dom:
        raise SchemaError("cannot compose: codomain of first != domain of second")
    return _trusted(first.dom, second.cod, compose_rows(first.rows, second.rows))


def is_isomorphism(m: BmsMorphism) -> bool:
    """True iff the point map is a bijection preserving multiplicities:
    with as many domain points as codomain points, it is a bijection iff no
    two rows hit the same point."""
    n = len(m.cod.mults)
    if len(m.dom.mults) != n:
        return False
    hit = [False] * n
    for j, z in m.rows:
        if z != 1 or hit[j]:
            return False
        hit[j] = True
    return True


def hom_factors(dom_mults: Sequence[int], cod_mults: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Hom(X, Y) = prod over x of Hom({x}, Y), one factor per domain point.

    For each domain multiplicity m, its candidate rows (j, m // n) over the
    codomain points j whose multiplicity n divides m, in codomain order.
    A morphism is one row from each factor, so |Hom(X, Y)| is
    ``math.prod(map(len, factors))``: a plain int, which stays exact and
    comparable with ``HOM_LIMIT`` when it passes ``sys.maxsize``.
    """
    return [[(j, m // n) for j, n in enumerate(cod_mults) if m % n == 0] for m in dom_mults]


def limited_hom_factors(dom: MultiSpace, cod: MultiSpace) -> list[list[tuple[int, int]]]:
    """``hom_factors`` of two spaces; above ``HOM_LIMIT`` morphisms it raises
    SizeLimitError, before any morphism is built."""
    factors = hom_factors(dom.mults, cod.mults)
    count = math.prod(map(len, factors))
    if count > HOM_LIMIT:
        raise SizeLimitError(f"{count} morphisms exceed the limit of {HOM_LIMIT}")
    return factors


def enumerate_homs(dom: MultiSpace, cod: MultiSpace) -> list[BmsMorphism]:
    """All morphisms dom -> cod, in lexicographic order of the point map.

    The order on maps is induced by the canonical point orders: the first
    domain point varies slowest, and candidate targets are tried in codomain
    order.  Deterministic; the empty domain yields exactly one morphism.
    Above ``HOM_LIMIT`` morphisms it raises SizeLimitError before building.
    """
    return [_trusted(dom, cod, rows) for rows in itertools.product(*limited_hom_factors(dom, cod))]


def homs_from_factors(
    dom: MultiSpace, cod: MultiSpace, factors: Sequence[Sequence[object]]
) -> list[BmsMorphism]:
    """Every morphism dom -> cod whose row i is drawn from ``factors[i]``, in
    product order: the first factor varies slowest.

    Each candidate row is checked once, by the rule of the checked
    constructor, and every morphism of the product is built from the
    checked rows, so a row is not checked again in each morphism that
    contains it.  Any candidate that breaks the rule raises, as the checked
    constructor would on a morphism containing it.
    """
    if len(factors) != len(dom.mults):
        raise SchemaError(f"{len(factors)} rows for {len(dom.mults)} points")
    checked_factors = [
        [_checked_row(dom, cod, i, row) for row in factor] for i, factor in enumerate(factors)
    ]
    return [_trusted(dom, cod, rows) for rows in itertools.product(*checked_factors)]


def are_isomorphic(a: MultiSpace, b: MultiSpace) -> bool:
    """True iff some isomorphism exists, i.e. the multiplicity multisets match."""
    return sorted(a.mults) == sorted(b.mults)


# -- JSON forms ---------------------------------------------------------------

def space_to_dict(space: MultiSpace) -> dict:
    return {"points": [{"label": l, "mult": m} for l, m in zip(space.labels, space.mults)]}


def space_from_dict(data: object) -> MultiSpace:
    if not isinstance(data, dict) or "points" not in data:
        raise SchemaError("space JSON must be an object with a 'points' array")
    points = data["points"]
    if not isinstance(points, list):
        raise SchemaError("'points' must be an array")
    labels, mults = [], []
    for p in points:
        if not isinstance(p, dict) or "label" not in p or "mult" not in p:
            raise SchemaError("each point needs 'label' and 'mult' fields")
        labels.append(p["label"])
        mults.append(p["mult"])
    return new_space(labels, mults)


def morphism_to_dict(m: BmsMorphism) -> dict:
    return {
        "dom": space_to_dict(m.dom),
        "cod": space_to_dict(m.cod),
        "map": m.mapping,
    }


def morphism_from_dict(data: object) -> BmsMorphism:
    if not isinstance(data, dict) or not {"dom", "cod", "map"} <= set(data):
        raise SchemaError("morphism JSON needs 'dom', 'cod' and 'map' fields")
    return new_morphism(space_from_dict(data["dom"]), space_from_dict(data["cod"]), data["map"])
