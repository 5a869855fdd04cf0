"""Finite boolean multispaces and multiplicity-decreasing point maps.

A multispace is a finite set of labeled points with a positive integer
multiplicity attached to each point.  A morphism is a point map under which
the codomain multiplicity divides the domain multiplicity pointwise; the
quotient is the morphism's own multiplicity ``zeta``.

Morphisms and ``sgroup.LHom`` share one row form, checked by ``check_rows``
and composed by ``compose_rows``: a pair (j, z) per point i, its image j and
multiplier z with z * m(j) = m(i).  Label maps enter through ``new_morphism``.
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
    "check_rows",
    "compose_rows",
    "identity_rows",
    "identity",
    "compose",
    "is_isomorphism",
    "enumerate_homs",
    "HOM_LIMIT",
    "are_isomorphic",
    "space_to_dict",
    "space_from_dict",
    "morphism_to_dict",
    "morphism_from_dict",
]

# Most morphisms ``enumerate_homs`` builds, counted before it builds any.
HOM_LIMIT = 100_000
Rows = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MultiSpace:
    """An ordered tuple of distinct point labels with their multiplicities.

    Point order is part of the value: it fixes every enumeration order
    downstream.  The empty space is legal.
    """

    labels: tuple[str, ...]
    mults: tuple[int, ...]
    _index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class BmsMorphism:
    """A point map whose codomain multiplicity divides the domain's.

    ``rows[i] = (j, z)``: domain point i goes to codomain point j, and its
    multiplier z satisfies z * m_cod(j) = m_dom(i).  ``targets``, ``zetas``
    and ``mapping`` read the rows back as labels.
    """

    dom: MultiSpace
    cod: MultiSpace
    rows: Rows

    def __post_init__(self) -> None:
        check_rows(self.rows, self.dom, self.cod)

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


def check_rows(rows: Rows, points: MultiSpace, images: MultiSpace) -> None:
    """Check one pair (j, z) per point i of ``points``: j an int index into
    ``images`` and z an int with z * m_images(j) = m_points(i)."""
    mults, image_mults = points.mults, images.mults
    if len(rows) != len(mults):
        raise SchemaError(f"{len(rows)} rows for {len(mults)} points")
    n = len(image_mults)
    for i, (j, z) in enumerate(rows):
        if type(j) is not int or type(z) is not int or not 0 <= j < n:
            raise SchemaError(f"row {i}: {(j, z)!r} is not an (int index < {n}, int) pair")
        if z * image_mults[j] != mults[i]:
            raise DivisibilityError(
                f"row {i}: {z} * multiplicity {image_mults[j]} of {images.labels[j]!r} "
                f"!= multiplicity {mults[i]} of {points.labels[i]!r}"
            )


def compose_rows(first: Rows, second: Rows) -> Rows:
    """Point i goes to j by ``first`` and on to l by ``second``: its composite
    row is (l, z * z') for first[i] = (j, z) and second[j] = (l, z')."""
    return tuple([(second[j][0], z * second[j][1]) for j, z in first])


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
    extra = [l for l in gamma if l not in dom.labels]
    if extra:
        raise SchemaError(f"point map mentions unknown labels {extra}")
    targets = [cod.index(gamma[l]) for l in dom.labels]
    return BmsMorphism(dom, cod, tuple([(j, m // cod.mults[j]) for j, m in zip(targets, dom.mults)]))


def identity(space: MultiSpace) -> BmsMorphism:
    return BmsMorphism(space, space, identity_rows(len(space)))


def compose(first: BmsMorphism, second: BmsMorphism) -> BmsMorphism:
    """Diagrammatic composition: apply ``first``, then ``second``.

    The composite's zeta is the pointwise product of the component zetas.
    """
    if first.cod != second.dom:
        raise SchemaError("cannot compose: codomain of first != domain of second")
    return BmsMorphism(first.dom, second.cod, compose_rows(first.rows, second.rows))


def is_isomorphism(m: BmsMorphism) -> bool:
    """True iff the point map is a bijection preserving multiplicities."""
    if len(m.dom) != len(m.cod) or len({j for j, _ in m.rows}) != len(m.rows):
        return False
    return all(z == 1 for _, z in m.rows)


def enumerate_homs(dom: MultiSpace, cod: MultiSpace) -> list[BmsMorphism]:
    """All morphisms dom -> cod, in lexicographic order of the point map.

    The order on maps is induced by the canonical point orders: the first
    domain point varies slowest, and candidate targets are tried in codomain
    order.  Deterministic; the empty domain yields exactly one morphism.
    Above ``HOM_LIMIT`` morphisms it raises SizeLimitError before building.
    """
    candidates = [[(j, m // n) for j, n in enumerate(cod.mults) if m % n == 0] for m in dom.mults]
    count = math.prod(map(len, candidates))
    if count > HOM_LIMIT:
        raise SizeLimitError(f"{count} morphisms exceed the limit of {HOM_LIMIT}")
    return [BmsMorphism(dom, cod, rows) for rows in itertools.product(*candidates)]


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
