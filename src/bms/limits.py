"""Finite limits and coproducts of multispaces, with universal-property checks.

Limit apexes are compatible tuples of points; the apex multiplicity is the
least common multiple of the component multiplicities.  Coproducts are
disjoint unions.  Products and coproducts of Specker groups are obtained
through the duality.  Pushouts and coequalizers are deliberately absent:
the category does not have them in general.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import getitem
from typing import NoReturn, Sequence

from .duality import dual_hom, function_group
from .errors import MissingColimitError, SchemaError
from .ints import checked_lcm
from .mspace import (
    BmsMorphism,
    MultiSpace,
    compose_rows,
    enumerate_homs,
    identity_rows,
    morphism_to_dict,
    new_morphism,
    new_space,
    space_from_dict,
    space_to_dict,
)
from .sgroup import LHom, SpeckerGroup

__all__ = [
    "Diagram",
    "Cone",
    "Cocone",
    "limit",
    "product",
    "equalizer",
    "pullback",
    "terminal",
    "coproduct",
    "initial",
    "pushout",
    "coequalizer",
    "verify_universal",
    "verify_couniversal",
    "GroupProduct",
    "GroupCoproduct",
    "group_product",
    "group_coproduct",
    "diagram_from_dict",
    "diagram_to_dict",
    "cone_to_dict",
    "cocone_to_dict",
]


@dataclass(frozen=True)
class Diagram:
    """A finite indexed family of spaces with arrows between them."""

    objects: tuple[MultiSpace, ...]
    arrows: tuple[tuple[int, int, BmsMorphism], ...] = ()

    def __post_init__(self) -> None:
        for src, tgt, m in self.arrows:
            if not (0 <= src < len(self.objects) and 0 <= tgt < len(self.objects)):
                raise SchemaError(f"arrow indices ({src},{tgt}) out of range")
            if m.dom != self.objects[src] or m.cod != self.objects[tgt]:
                raise SchemaError(f"arrow ({src},{tgt}) does not match its objects")


@dataclass(frozen=True)
class Cone:
    apex: MultiSpace
    legs: tuple[BmsMorphism, ...]


@dataclass(frozen=True)
class Cocone:
    apex: MultiSpace
    injections: tuple[BmsMorphism, ...]


def _tuple_label(labels: Sequence[str]) -> str:
    return "(" + ",".join(labels) + ")"


def limit(diagram: Diagram) -> Cone:
    """The limit cone: compatible point tuples with LCM multiplicities.

    Apex points are ordered lexicographically over the canonical component
    orders; legs are the projections.
    """
    objs = diagram.objects
    points = []
    mults = []
    components = []
    for combo in itertools.product(*(range(len(o)) for o in objs)):
        if all(m.rows[combo[s]][0] == combo[t] for s, t, m in diagram.arrows):
            points.append(_tuple_label([o.labels[i] for o, i in zip(objs, combo)]))
            mults.append(checked_lcm(o.mults[i] for o, i in zip(objs, combo)))
            components.append(combo)
    apex = new_space(points, mults)
    legs = tuple(
        BmsMorphism(apex, o, tuple([(c[k], m // o.mults[c[k]]) for c, m in zip(components, mults)]))
        for k, o in enumerate(objs)
    )
    return Cone(apex, legs)


def product(x: MultiSpace, y: MultiSpace) -> Cone:
    return limit(Diagram((x, y)))


def terminal() -> Cone:
    """Limit of the empty diagram: one point of multiplicity 1, no legs."""
    return limit(Diagram(()))


def equalizer(f: BmsMorphism, g: BmsMorphism) -> Cone:
    if f.dom != g.dom or f.cod != g.cod:
        raise SchemaError("equalizer needs a parallel pair of morphisms")
    return limit(Diagram((f.dom, f.cod), ((0, 1, f), (0, 1, g))))


def pullback(f: BmsMorphism, g: BmsMorphism) -> Cone:
    if f.cod != g.cod:
        raise SchemaError("pullback needs morphisms with a common codomain")
    return limit(Diagram((f.dom, g.dom, f.cod), ((0, 2, f), (1, 2, g))))


def coproduct(x: MultiSpace, y: MultiSpace) -> Cocone:
    """Disjoint union with L:/R: label prefixes; injections preserve mults."""
    apex = new_space(
        ["L:" + l for l in x.labels] + ["R:" + l for l in y.labels],
        list(x.mults) + list(y.mults),
    )
    inj_x = BmsMorphism(x, apex, identity_rows(len(x)))
    inj_y = BmsMorphism(y, apex, tuple([(len(x) + i, 1) for i in range(len(y))]))
    return Cocone(apex, (inj_x, inj_y))


def initial() -> MultiSpace:
    return new_space([], [])


def pushout(f: BmsMorphism, g: BmsMorphism) -> NoReturn:
    raise MissingColimitError(
        "boolean multispaces lack general pushouts; "
        "run `bms omega demo --which pushout` for the obstruction"
    )


def coequalizer(f: BmsMorphism, g: BmsMorphism) -> NoReturn:
    raise MissingColimitError(
        "boolean multispaces lack general coequalizers; "
        "run `bms omega demo --which pushout` for the obstruction"
    )


@functools.lru_cache(maxsize=None)
def _homs(dom: MultiSpace, cod: MultiSpace) -> tuple[BmsMorphism, ...]:
    return tuple(enumerate_homs(dom, cod))


def _cones_from(apex: MultiSpace, diagram: Diagram) -> list[tuple[BmsMorphism, ...]]:
    """All commuting leg families from a test apex over the diagram."""
    legsets = [_homs(apex, obj) for obj in diagram.objects]
    out = []
    for legs in itertools.product(*legsets):
        if all(compose_rows(legs[s].rows, m.rows) == legs[t].rows for s, t, m in diagram.arrows):
            out.append(legs)
    return out


def verify_universal(
    candidate: Cone, diagram: Diagram, test_apexes: Sequence[MultiSpace]
) -> dict:
    """Check existence and uniqueness of mediating morphisms into the cone.

    For every commuting cone from every test apex there must be exactly one
    morphism into the candidate apex commuting with the legs.  Mediating
    morphisms are scanned as index tuples and keyed by the rows of their
    composites with the legs, read from tables built once per test
    multiplicity; cones are keyed by the stored rows of their legs.
    """
    apex = candidate.apex
    violations = []
    cones_checked = 0
    mults = {tm for t in test_apexes for tm in t.mults}
    cands = {tm: [i for i, am in enumerate(apex.mults) if tm % am == 0] for tm in mults}
    via = [
        {tm: [(c, tm // am * z) for (c, z), am in zip(leg.rows, apex.mults)] for tm in mults}
        for leg in candidate.legs
    ]
    for t in test_apexes:
        cand_idx = [cands[tm] for tm in t.mults]
        tables = [[v[tm] for tm in t.mults] for v in via]
        mediator_count: dict[tuple, int] = {}
        for combo in itertools.product(*cand_idx):
            key = tuple([tuple(map(getitem, tab, combo)) for tab in tables])
            mediator_count[key] = mediator_count.get(key, 0) + 1
        for legs in _cones_from(t, diagram):
            cones_checked += 1
            n = mediator_count.get(tuple([l.rows for l in legs]), 0)
            if n == 0:
                violations.append(
                    f"no mediating morphism from {t!r} for cone {[l.targets for l in legs]}"
                )
            elif n > 1:
                violations.append(
                    f"{n} mediating morphisms from {t!r} for cone {[l.targets for l in legs]}"
                )
    return {"cones": cones_checked, "violations": violations}


def verify_couniversal(candidate: Cocone, test_apexes: Sequence[MultiSpace]) -> dict:
    """Dual check for a coproduct cocone: unique mediation out of the apex."""
    objs = [inj.dom for inj in candidate.injections]
    violations = []
    cocones_checked = 0
    for t in test_apexes:
        mediator_count: dict[tuple, int] = {}
        for med in _homs(candidate.apex, t):
            key = tuple([compose_rows(inj.rows, med.rows) for inj in candidate.injections])
            mediator_count[key] = mediator_count.get(key, 0) + 1
        for legs in itertools.product(*(_homs(o, t) for o in objs)):
            cocones_checked += 1
            n = mediator_count.get(tuple([l.rows for l in legs]), 0)
            if n != 1:
                violations.append(
                    f"{n} mediating morphisms to {t!r} for cocone {[l.targets for l in legs]}"
                )
    return {"cocones": cocones_checked, "violations": violations}


# -- products and coproducts of Specker groups, through the duality -----------

@dataclass(frozen=True)
class GroupProduct:
    group: SpeckerGroup
    projections: tuple[LHom, LHom]


@dataclass(frozen=True)
class GroupCoproduct:
    group: SpeckerGroup
    injections: tuple[LHom, LHom]


def group_product(s: SpeckerGroup, t: SpeckerGroup) -> GroupProduct:
    """Cartesian product of groups: the group over the coproduct of bases."""
    cc = coproduct(s.base, t.base)
    return GroupProduct(
        function_group(cc.apex),
        (dual_hom(cc.injections[0]), dual_hom(cc.injections[1])),
    )


def group_coproduct(s: SpeckerGroup, t: SpeckerGroup) -> GroupCoproduct:
    """Coproduct of groups: the group over the product of bases."""
    cone = product(s.base, t.base)
    return GroupCoproduct(
        function_group(cone.apex),
        (dual_hom(cone.legs[0]), dual_hom(cone.legs[1])),
    )


# -- JSON forms ---------------------------------------------------------------

def diagram_to_dict(d: Diagram) -> dict:
    return {
        "objects": [space_to_dict(o) for o in d.objects],
        "arrows": [
            {"src": s, "tgt": t, "map": m.mapping}
            for s, t, m in d.arrows
        ],
    }


def diagram_from_dict(data: object) -> Diagram:
    if not isinstance(data, dict) or "objects" not in data:
        raise SchemaError("diagram JSON needs an 'objects' array")
    objects = tuple(space_from_dict(o) for o in data["objects"])
    arrows = []
    for a in data.get("arrows", []):
        if not isinstance(a, dict) or not {"src", "tgt", "map"} <= set(a):
            raise SchemaError("each arrow needs 'src', 'tgt' and 'map' fields")
        src, tgt = a["src"], a["tgt"]
        if not isinstance(src, int) or not isinstance(tgt, int):
            raise SchemaError("arrow indices must be integers")
        if not (0 <= src < len(objects) and 0 <= tgt < len(objects)):
            raise SchemaError(f"arrow indices ({src},{tgt}) out of range")
        arrows.append((src, tgt, new_morphism(objects[src], objects[tgt], a["map"])))
    return Diagram(objects, tuple(arrows))


def cone_to_dict(c: Cone) -> dict:
    return {"apex": space_to_dict(c.apex), "legs": [morphism_to_dict(l) for l in c.legs]}


def cocone_to_dict(c: Cocone) -> dict:
    return {
        "apex": space_to_dict(c.apex),
        "injections": [morphism_to_dict(i) for i in c.injections],
    }
