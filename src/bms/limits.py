"""Finite limits and coproducts of multispaces, with universal-property checks.

Limit apexes are compatible tuples of points; the apex multiplicity is the
least common multiple of the component multiplicities.  ``limit`` extends
partial tuples object by object, so that an arrow cuts the scan instead of
filtering the whole product; a diagram without arrows is the plain product.
Its size cap counts, for each object whose point no earlier object fixes,
its size, or its largest preimage when it has an arrow into an earlier
object, as those are the only factors that multiply the scan.
The tuples are then read column by column: one column of point indices per
object, along which its labels and multiplicities are looked up in one pass
each, so the labels, LCMs and leg rows are built by zipping the columns.
It tests each LCM once against ``INT_LIMIT`` and builds the apex with the
checked ``MultiSpace`` constructor, which refuses a repeated tuple label,
as labels containing commas can produce.  Its legs, whose multipliers are
lcm // m, are the one use of ``BmsMorphism._trusted`` outside ``mspace``:
they are not checked again, so a wrong multiplicity in the apex reaches
``laws.check_limit_law`` as a failed law instead of stopping the sweep.
``verify_universal`` checks their universal property at one-point spaces,
which decides it at every test apex.  The probe of multiplicity m is the
first one-point test apex of multiplicity m, or, when no test apex is one,
the space t:m built for the call; a violation names its probe.  One walk
of the test apexes finds the probes and their multiplicities, one
``hom_factors`` call gives the candidate mediators of every probe, and one
more walk totals ``cones``, the cones from the test apexes.
Coproducts are disjoint unions, with prefixed labels that cannot collide.
Products and coproducts of Specker groups are obtained through the
duality, and are the same ``Cone`` and ``Cocone`` in the group category:
``group_product`` is the cone of projections on G(X + Y), the duals of the
coproduct injections, and ``group_coproduct`` the cocone of injections into
G(X x Y), the duals of the product legs.  Finite multispaces also have
coequalizers (the quotient by the generated relation, each class with the
gcd of its multiplicities) and so pushouts; neither is built here yet.
What fails in general is the omega+1 case, where such a gcd need not be
continuous (``omega.pushout_demo``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from math import lcm
from operator import attrgetter, floordiv
from typing import Sequence

from .duality import dual_hom, function_group
from .errors import OverflowLimitError, SchemaError, SizeLimitError
from .ints import INT_LIMIT
from .mspace import (
    HOM_LIMIT,
    BmsMorphism,
    MultiSpace,
    compose_rows,
    enumerate_homs,
    hom_factors,
    identity_rows,
    morphism_to_dict,
    new_morphism,
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
    "coproduct",
    "verify_universal",
    "verify_couniversal",
    "group_product",
    "group_coproduct",
    "diagram_from_dict",
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
    """A limit cone of spaces, or of groups with ``LHom`` legs."""

    apex: MultiSpace | SpeckerGroup
    legs: tuple[BmsMorphism, ...] | tuple[LHom, ...]


@dataclass(frozen=True)
class Cocone:
    """A colimit cocone of spaces, or of groups with ``LHom`` injections."""

    apex: MultiSpace | SpeckerGroup
    injections: tuple[BmsMorphism, ...] | tuple[LHom, ...]


def _compatible_tuples(diagram: Diagram) -> list[tuple[int, ...]]:
    """The point-index tuples c with rows[c[s]][0] == c[t] for every arrow
    (s, t, rows) of the diagram, in lexicographic order.

    The tuples grow object by object, and an arrow is tested as soon as its
    later end k is chosen.  An arrow s -> k from an earlier object fixes k's
    point, so the first such arrow chooses it.  Otherwise the first arrow
    k -> t into an earlier object t offers only the points of k it sends to
    the tuple's point at t, from preimage lists built once per arrow in
    point order.  Then each other arrow ending at k (into k, out of k into
    an earlier object, or a self-loop) filters the extended tuples; the
    arrow that chose k's point, known by its position in the arrows, would
    pass them all, so it is skipped.  A second arrow with the same ends, as
    in an equalizer, still filters.  A diagram without arrows is the whole
    product.

    Only the choice of an unfixed object's point multiplies the tuples, by
    at most its size, or its largest preimage when an arrow offers them, so
    the product of those factors bounds every step: above ``HOM_LIMIT`` it
    raises SizeLimitError before any tuple is built.
    """
    objs = diagram.objects
    choices = list(map(len, objs))  # the points each tuple may extend by
    # object -> the position in diagram.arrows of the arrow choosing its point
    chooser: dict[int, int] = {}
    fixing: dict[int, tuple[int, tuple]] = {}
    for a, (s, t, m) in enumerate(diagram.arrows):
        if s < t and t not in fixing:
            fixing[t] = (s, m.rows)
            chooser[t] = a
            choices[t] = 1
    preimages: dict[int, tuple[int, list[list[int]]]] = {}
    for a, (s, t, m) in enumerate(diagram.arrows):
        if t < s and s not in fixing and s not in preimages:
            pre: list[list[int]] = [[] for _ in objs[t]]
            for i, (j, _) in enumerate(m.rows):
                pre[j].append(i)
            preimages[s] = (t, pre)
            chooser[s] = a
            choices[s] = max(map(len, pre), default=0)
    count = math.prod(choices)
    if count > HOM_LIMIT:
        raise SizeLimitError(f"{count} point tuples exceed the limit of {HOM_LIMIT}")
    if not diagram.arrows:
        return list(itertools.product(*map(range, choices)))
    tuples: list[tuple[int, ...]] = [()]
    for k, obj in enumerate(objs):
        if k in fixing:
            s0, rows0 = fixing[k]
            tuples = [c + (rows0[c[s0]][0],) for c in tuples]
        elif k in preimages:
            t0, pre = preimages[k]
            tuples = [c + (i,) for c in tuples for i in pre[c[t0]]]
        else:
            tuples = [c + (i,) for c in tuples for i in range(len(obj))]
        for a, (s, t, m) in enumerate(diagram.arrows):
            if max(s, t) == k and a != chooser.get(k):
                rows = m.rows
                tuples = [c for c in tuples if rows[c[s]][0] == c[t]]
    return tuples


def limit(diagram: Diagram) -> Cone:
    """The limit cone: compatible point tuples with LCM multiplicities.

    Apex points are ordered lexicographically over the canonical component
    orders; legs are the projections.  It raises SizeLimitError before
    scanning any tuple when the product over the objects whose point no
    arrow from an earlier object fixes exceeds ``HOM_LIMIT``; an object
    counts with its size, or with its largest preimage under its first arrow
    into an earlier object.  With no arrows, that is every object's size.
    It raises OverflowLimitError when an LCM exceeds ``INT_LIMIT``.  The
    empty diagram gives the terminal object: one point of multiplicity 1,
    and no legs.
    """
    objs = diagram.objects
    components = _compatible_tuples(diagram)
    if not objs:  # no column to read: the one empty tuple, the terminal point
        return Cone(MultiSpace(("()",), (1,)), ())
    # One column of point indices per object, empty when no tuple survives,
    # then each object's labels and multiplicities read along its column.
    cols = list(zip(*components)) or [()] * len(objs)
    mult_cols = [tuple(map(o.mults.__getitem__, col)) for o, col in zip(objs, cols)]
    label_cols = [map(o.labels.__getitem__, col) for o, col in zip(objs, cols)]
    points = tuple(["(" + ",".join(row) + ")" for row in zip(*label_cols)])
    mults = tuple(map(lcm, *mult_cols))
    if max(mults, default=1) > INT_LIMIT:
        over = next(p for p, m in zip(points, mults) if m > INT_LIMIT)
        raise OverflowLimitError(f"lcm at point {over} exceeds the 64-bit bound")
    apex = MultiSpace(points, mults)
    # Each multiplier is the lcm over the tuple divided by one component's
    # multiplicity, so the projections are built without the row check.
    legs = tuple(
        BmsMorphism._trusted(apex, o, tuple(zip(col, map(floordiv, mults, mcol))))
        for o, col, mcol in zip(objs, cols, mult_cols)
    )
    return Cone(apex, legs)


def product(x: MultiSpace, y: MultiSpace) -> Cone:
    return limit(Diagram((x, y)))


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
    apex = MultiSpace(
        tuple(["L:" + l for l in x.labels] + ["R:" + l for l in y.labels]), x.mults + y.mults
    )
    inj_x = BmsMorphism(x, apex, identity_rows(len(x)))
    inj_y = BmsMorphism(y, apex, tuple([(len(x) + i, 1) for i in range(len(y))]))
    return Cocone(apex, (inj_x, inj_y))


@functools.lru_cache(maxsize=None)
def _homs(dom: MultiSpace, cod: MultiSpace) -> tuple[BmsMorphism, ...]:
    return tuple(enumerate_homs(dom, cod))


def _cones_from(apex: MultiSpace, diagram: Diagram) -> list[tuple[BmsMorphism, ...]]:
    """All commuting leg families from a test apex over the diagram."""
    legsets = [_homs(apex, obj) for obj in diagram.objects]
    if not diagram.arrows:
        return list(itertools.product(*legsets))
    out = []
    for legs in itertools.product(*legsets):
        if all(compose_rows(legs[s].rows, m.rows) == legs[t].rows for s, t, m in diagram.arrows):
            out.append(legs)
    return out


_rows = attrgetter("rows")


def verify_universal(
    candidate: Cone, diagram: Diagram, test_apexes: Sequence[MultiSpace]
) -> dict:
    """Check existence and uniqueness of mediating morphisms into the cone.

    For every commuting cone from every test apex T there must be exactly one
    morphism into the candidate apex commuting with the legs.  As Hom(T, L) =
    prod_{t in T} Hom({t}, L), this holds at T iff it holds at the one-point
    space of each multiplicity of T: it is checked there once, and reported
    for the multiplicities of test apexes with a cone.  The one-point space
    of multiplicity m, the probe, is the first one-point test apex of
    multiplicity m, and the space t:m only when no test apex is one; each
    violation names its probe.  ``cones`` counts the cones from the test
    apexes: sum over T of prod over t in T of cones({t}).
    """
    probes: dict[int, MultiSpace] = {}
    mults: set[int] = set()
    for t in test_apexes:
        tm = t.mults
        if len(tm) == 1 and tm[0] not in probes:
            probes[tm[0]] = t
        mults.update(tm)
    sorted_mults = sorted(mults)
    leg_rows = [leg.rows for leg in candidate.legs]
    ncones: dict[int, int] = {}
    found: dict[int, list[str]] = {}
    for m, factor in zip(sorted_mults, hom_factors(sorted_mults, candidate.apex.mults)):
        point = probes.get(m)
        if point is None:
            point = MultiSpace(("t",), (m,))
        # Each mediator's key is its composite with every leg, built one leg
        # at a time: plain loops, as a comprehension builds a frame per call.
        mediators: dict[tuple, int] = {}
        for row in factor:
            key: tuple = ()
            for rows in leg_rows:
                key += (compose_rows((row,), rows),)
            mediators[key] = mediators.get(key, 0) + 1
        cones = _cones_from(point, diagram)
        ncones[m] = len(cones)
        messages = []
        for cone in cones:
            n = mediators.get(tuple(map(_rows, cone)), 0)
            if n != 1:
                what = f"{n} mediating morphisms" if n else "no mediating morphism"
                messages.append(f"{what} from {point!r} for cone {[l.targets for l in cone]}")
        if messages:
            found[m] = messages
    get = ncones.__getitem__
    counts = [math.prod(map(get, t.mults)) for t in test_apexes]
    violations: list[str] = []
    if found:
        decided = {m for t, n in zip(test_apexes, counts) if n for m in t.mults}
        violations = [v for m in sorted(found) if m in decided for v in found[m]]
    return {"cones": sum(counts), "violations": violations}


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

def group_product(s: SpeckerGroup, t: SpeckerGroup) -> Cone:
    """Cartesian product of groups: the group over the coproduct of bases,
    with the duals of the coproduct injections as projections."""
    cc = coproduct(s.base, t.base)
    return Cone(function_group(cc.apex), tuple([dual_hom(i) for i in cc.injections]))


def group_coproduct(s: SpeckerGroup, t: SpeckerGroup) -> Cocone:
    """Coproduct of groups: the group over the product of bases, with the
    duals of the product legs as injections."""
    cone = product(s.base, t.base)
    return Cocone(function_group(cone.apex), tuple([dual_hom(l) for l in cone.legs]))


# -- JSON forms ---------------------------------------------------------------

def diagram_from_dict(data: object) -> Diagram:
    if not isinstance(data, dict) or not isinstance(data.get("objects"), list):
        raise SchemaError("diagram JSON needs an 'objects' array")
    if not isinstance(data.get("arrows", []), list):
        raise SchemaError("diagram 'arrows' must be an array")
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
