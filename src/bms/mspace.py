"""Finite boolean multispaces and multiplicity-decreasing point maps.

A multispace is a finite set of labeled points with a positive integer
multiplicity attached to each point.  A morphism is a point map under which
the codomain multiplicity divides the domain multiplicity pointwise; the
quotient is the morphism's own multiplicity ``zeta``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .errors import DivisibilityError, SchemaError
from .ints import INT_LIMIT, checked

__all__ = [
    "MultiSpace",
    "BmsMorphism",
    "new_space",
    "new_morphism",
    "identity",
    "compose",
    "is_isomorphism",
    "enumerate_homs",
    "are_isomorphic",
    "space_to_dict",
    "space_from_dict",
    "morphism_to_dict",
    "morphism_from_dict",
]


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

    ``targets[i]`` is the codomain label assigned to ``dom.labels[i]``.  The
    derived multiplicity ``zetas[i]`` is the quotient of the two point
    multiplicities and is always a positive integer.
    """

    dom: MultiSpace
    cod: MultiSpace
    targets: tuple[str, ...]
    zetas: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.targets) != len(self.dom):
            raise SchemaError("point map must be total on the domain")
        zetas = []
        for lab, m, tgt in zip(self.dom.labels, self.dom.mults, self.targets):
            n = self.cod.mult(tgt)  # raises SchemaError on unknown label
            if m % n != 0:
                raise DivisibilityError(
                    f"multiplicity {n} of {tgt!r} does not divide "
                    f"multiplicity {m} of {lab!r}"
                )
            zetas.append(m // n)
        object.__setattr__(self, "zetas", tuple(zetas))

    def __call__(self, label: str) -> str:
        return self.targets[self.dom.index(label)]

    def zeta(self, label: str) -> int:
        return self.zetas[self.dom.index(label)]

    @property
    def mapping(self) -> dict[str, str]:
        return dict(zip(self.dom.labels, self.targets))

    def __repr__(self) -> str:
        arrows = ", ".join(f"{l}->{t}" for l, t in zip(self.dom.labels, self.targets))
        return f"BmsMorphism({arrows or 'empty'})"


def new_morphism(dom: MultiSpace, cod: MultiSpace, gamma: Mapping[str, str]) -> BmsMorphism:
    """Build a morphism from an explicit label map, validating divisibility."""
    missing = [l for l in dom.labels if l not in gamma]
    if missing:
        raise SchemaError(f"point map missing domain labels {missing}")
    extra = [l for l in gamma if l not in dom.labels]
    if extra:
        raise SchemaError(f"point map mentions unknown labels {extra}")
    return BmsMorphism(dom, cod, tuple(gamma[l] for l in dom.labels))


def identity(space: MultiSpace) -> BmsMorphism:
    return BmsMorphism(space, space, space.labels)


def compose(first: BmsMorphism, second: BmsMorphism) -> BmsMorphism:
    """Diagrammatic composition: apply ``first``, then ``second``.

    The composite's zeta is the pointwise product of the component zetas.
    """
    if first.cod != second.dom:
        raise SchemaError("cannot compose: codomain of first != domain of second")
    return BmsMorphism(first.dom, second.cod, tuple(second(t) for t in first.targets))


def is_isomorphism(m: BmsMorphism) -> bool:
    """True iff the point map is a bijection preserving multiplicities."""
    if len(m.dom) != len(m.cod) or len(set(m.targets)) != len(m.targets):
        return False
    return all(z == 1 for z in m.zetas)


def enumerate_homs(dom: MultiSpace, cod: MultiSpace) -> list[BmsMorphism]:
    """All morphisms dom -> cod, in lexicographic order of the point map.

    The order on maps is induced by the canonical point orders: the first
    domain point varies slowest, and candidate targets are tried in codomain
    order.  Deterministic; the empty domain yields exactly one morphism.
    """
    candidates = []
    for m in dom.mults:
        cands = [lab for lab, n in zip(cod.labels, cod.mults) if m % n == 0]
        if not cands:
            return []
        candidates.append(cands)
    return [BmsMorphism(dom, cod, tgts) for tgts in itertools.product(*candidates)]


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
        "map": dict(zip(m.dom.labels, m.targets)),
    }


def morphism_from_dict(data: object) -> BmsMorphism:
    if not isinstance(data, dict) or not {"dom", "cod", "map"} <= set(data):
        raise SchemaError("morphism JSON needs 'dom', 'cod' and 'map' fields")
    if not isinstance(data["map"], dict):
        raise SchemaError("'map' must be an object of label pairs")
    return new_morphism(space_from_dict(data["dom"]), space_from_dict(data["cod"]), data["map"])
