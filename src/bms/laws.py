"""Exhaustive small-model law sweeps over a declared finite universe.

Each check returns a list of human-readable failure strings (empty means the
law held everywhere).  The universe is always an explicit argument, so the
CLI and the acceptance suite can run the same sweeps at different bounds.

``LAWS`` lists what ``run_laws`` runs: one (report name, run) entry per law,
in report order.  ``run`` takes the ``Universe`` of the bounds and reads its
``check_*`` from the module at call time, so a check patched there is run.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple, Sequence

from . import duality, limits, mv, omega, sgroup
from .errors import DivisibilityError, SchemaError, SizeLimitError
from .ints import checked_lcm, require_int
from .mspace import (
    MultiSpace,
    Rows,
    compose,
    enumerate_homs,
    hom_factors,
    identity,
    is_isomorphism,
    new_space,
)
from .sgroup import SpeckerGroup, box_elements

# ``run_laws`` sweeps at most four points.  Beyond that the universe cap is
# not enough: (5, 2) has only 63 spaces but 1,280,982 morphisms, and (6, 1)
# takes about 70 s on a 2-core Xeon, 59 s of it in ``check_stone_restriction``.
LAWS_MAX_POINTS = 4
# Most spaces ``run_laws`` sweeps: sum of max_mult**n for n <= max_points.
LAWS_UNIVERSE_CAP = 100

__all__ = [
    "all_spaces",
    "all_groups",
    "box_elements",
    "representative_spaces",
    "check_category_laws",
    "check_round_trip",
    "check_naturality",
    "check_hom_bijection",
    "check_functoriality",
    "check_limit_law",
    "check_duality_exchange",
    "check_gamma_laws",
    "check_singular_theory",
    "check_ideal_correspondence",
    "check_hyperarch",
    "check_stone_restriction",
    "check_omega_obstructions",
    "Universe",
    "LAWS",
    "run_laws",
    "LAWS_MAX_POINTS",
    "LAWS_UNIVERSE_CAP",
]


def all_spaces(max_points: int, max_mult: int) -> list[MultiSpace]:
    """Every multispace with up to the given points and multiplicities,
    labelled p1, p2, ... in order."""
    mults = range(1, max_mult + 1)
    labels = tuple(f"p{i}" for i in range(1, max_points + 1))
    return [
        new_space(labels[:n], m)
        for n in range(max_points + 1)
        for m in itertools.product(mults, repeat=n)
    ]


def all_groups(max_points: int, max_mult: int) -> list[SpeckerGroup]:
    return [duality.function_group(x) for x in all_spaces(max_points, max_mult)]


# -- category structure -------------------------------------------------------

def representative_spaces() -> list[MultiSpace]:
    """A small set of structurally diverse spaces with up to three points."""
    return [
        new_space([], []),
        new_space(["p1"], [1]),
        new_space(["p1"], [2]),
        new_space(["p1", "p2"], [1, 2]),
        new_space(["p1", "p2"], [2, 2]),
        new_space(["p1", "p2", "p3"], [1, 2, 4]),
        new_space(["p1", "p2", "p3"], [2, 3, 6]),
    ]


def _inverse_exists(rows: Rows, back: list[list[tuple[int, int]]]) -> bool:
    """Whether f: X -> Y with ``rows`` has a two-sided inverse g, where
    ``back`` is ``hom_factors`` of Hom(Y, X): at every point y, some candidate
    row (i, z) of g composes with f to (y, 1), and each x that f sends to y
    with multiplier w composes with it to (x, 1).  f's rows are grouped by
    target once, before the candidates are tried.  Plain loops: a generator
    builds a frame per call, and this runs once per morphism."""
    preimages: list[list[tuple[int, int]]] = [[] for _ in back]
    for x, (t, w) in enumerate(rows):
        preimages[t].append((x, w))
    for y, candidates in enumerate(back):
        for i, z in candidates:
            t, u = rows[i]
            if t != y or z * u != 1:
                continue
            for x, w in preimages[y]:
                if x != i or w * z != 1:
                    break
            else:
                break  # (i, z) inverts f at y
        else:
            return False
    return True


def check_category_laws(
    spaces: Sequence[MultiSpace], triple_spaces: Sequence[MultiSpace]
) -> list[str]:
    """Identity and associativity laws, plus zeta multiplicativity and the
    two characterizations of isomorphism, over enumerated morphisms.

    Since Hom(Y, X) = prod over y of Hom({y}, X), the inverse is decided
    point by point (``_inverse_exists``), not by scanning Hom(Y, X).  The
    quadratic checks run over all of ``spaces``: each identity is built once
    per space, and a pair with an empty Hom(X, Y), which no law can fail on,
    is skipped after its enumeration.  The cubic associativity sweep runs
    over ``triple_spaces``, with each of its hom-sets enumerated once and
    each composite g;h built once.
    """
    failures = []
    identities = [(x, identity(x)) for x in spaces]
    for x, id_x in identities:
        for y, id_y in identities:
            homs = enumerate_homs(x, y)
            if not homs:
                continue
            if len(set(homs)) != len(homs):
                failures.append(f"duplicate morphisms between {x!r} and {y!r}")
            back = hom_factors(y.mults, x.mults)
            for f in homs:
                if compose(id_x, f) != f or compose(f, id_y) != f:
                    failures.append(f"identity law fails for {f!r}")
                # two-sided-inverse characterization of isomorphism
                if _inverse_exists(f.rows, back) != is_isomorphism(f):
                    failures.append(f"isomorphism characterizations disagree for {f!r}")
    pairs = list(itertools.product(triple_spaces, repeat=2))
    table = {(a, b): enumerate_homs(a, b) for a, b in pairs}
    # tails[y, z][i]: each h out of z with g;h, for the i-th g in Hom(y, z)
    tails = {
        (y, z): [[(h, compose(g, h)) for w in triple_spaces for h in table[z, w]] for g in table[y, z]]
        for y, z in pairs
    }
    for x, y in pairs:
        for f in table[x, y]:
            for z in triple_spaces:
                for g, after_g in zip(table[y, z], tails[y, z]):
                    fg = compose(f, g)
                    expected_zeta = tuple(
                        zf * g.zeta(t) for zf, t in zip(f.zetas, f.targets)
                    )
                    if fg.zetas != expected_zeta:
                        failures.append(f"zeta multiplicativity fails for {f!r};{g!r}")
                    for h, gh in after_g:
                        if compose(fg, h) != compose(f, gh):
                            failures.append(f"associativity fails at {f!r};{g!r};{h!r}")
    return failures


def check_round_trip(spaces: Sequence[MultiSpace]) -> list[str]:
    """The spectrum of each space's function group has the space's
    multiplicities, and both triangle identities hold (on the space and on
    its group).  The unit eta has identity rows into that cached spectrum,
    so it is an isomorphism exactly when the multiplicities agree, and is
    not tested again.  A space whose spectrum differs is reported, and its
    eta, whose checked rows would raise, is not built."""
    failures = []
    for x in spaces:
        group = duality.function_group(x)
        if duality.spectrum_space(group).mults != x.mults:
            failures.append(f"round trip fails for {x!r}")
            continue
        if not duality.triangle_identities_space(x):
            failures.append(f"space triangle identity fails for {x!r}")
        if not duality.triangle_identities_group(group):
            failures.append(f"group triangle identity fails for {x!r}")
    return failures


def check_naturality(spaces: Sequence[MultiSpace]) -> list[str]:
    """The unit square commutes for every enumerated morphism.

    The counit is the dual of the unit's inverse and ``spectrum_map`` keeps
    psi's rows, so the counit square would compare the same two row tuples
    again.  Each pair's units are fetched once, and the pair is skipped when
    they cannot be built, as ``check_round_trip`` reports the space.
    """
    failures = []
    for x, y in itertools.product(spaces, repeat=2):
        homs = enumerate_homs(x, y)
        if not homs:
            continue
        try:
            eta_x, eta_y = duality.unit_iso(x), duality.unit_iso(y)
        except DivisibilityError:
            continue
        for gamma in homs:
            spec = duality.spectrum_map(duality.dual_hom(gamma))
            if compose(gamma, eta_y) != compose(eta_x, spec):
                failures.append(f"unit naturality fails for {gamma!r}")
    return failures


def check_hom_bijection(spaces: Sequence[MultiSpace]) -> list[str]:
    failures = []
    for x, y in itertools.product(spaces, repeat=2):
        report = duality.hom_bijection_report(x, y)
        if not report["bijection"]:
            failures.append(f"hom bijection fails for {x!r} -> {y!r}: {report['failures']}")
    return failures


def check_functoriality(spaces: Sequence[MultiSpace], sample: int = 0, seed: int = 0) -> list[str]:
    """Contravariant functoriality on composable pairs f: X -> Y, g: Y -> Z.

    For the element s of G(Z) with values 1..|Z|, built once per space, the
    dual of g sends s to zeta_g * (s o g), read off g's rows, and the dual of
    f;g sends s where the dual of f sends that image.  The image of s under
    the dual of g, and its zeta_g * (s o g) test, depend on g alone and are
    computed once per g; a failed test is still reported at every pair.
    With ``sample`` > 0, only a seeded random subset of that many pairs is
    checked."""
    failures = []
    homs = {(x, y): enumerate_homs(x, y) for x, y in itertools.product(spaces, repeat=2)}
    # The seeded sample draws from this list, so it keeps the order of the
    # triple loop over (x, y, z): f varies slower than g.  A triple with an
    # empty hom-set adds no pair, so only the nonempty ones are walked.
    nonempty = {y: [homs[y, z] for z in spaces if homs[y, z]] for y in spaces}
    pairs = []
    for x, y in itertools.product(spaces, repeat=2):
        if homs[x, y]:
            for second in nonempty[y]:
                pairs += itertools.product(homs[x, y], second)
    if sample and len(pairs) > sample:
        rng = random.Random(seed)
        pairs = rng.sample(pairs, sample)
    seps = {z: duality.function_group(z).element(range(1, len(z) + 1)) for z in spaces}
    # g -> (s, the image of s under the dual of g, whether it is zeta_g * (s o g))
    images = {}
    for f, g in pairs:
        if g not in images:
            sep = seps[g.cod]
            inner = sgroup.apply_lhom(duality.dual_hom(g), sep)
            images[g] = sep, inner, inner.values == tuple([k * sep.values[j] for j, k in g.rows])
        sep, inner, scaled = images[g]
        if not scaled:
            failures.append(f"dual hom is not zeta * (s o g) at {g!r}")
        outer = sgroup.apply_lhom(duality.dual_hom(f), inner)
        if sgroup.apply_lhom(duality.dual_hom(compose(f, g)), sep) != outer:
            failures.append(f"dual hom is not contravariant at {f!r};{g!r}")
    return failures


# -- limits --------------------------------------------------------------------

def check_limit_law(
    spaces: Sequence[MultiSpace], apexes: Sequence[MultiSpace]
) -> list[str]:
    """Binary products: LCM multiplicities, valid projections, and the
    universal property against every test apex.

    The two components of each apex point are read from its rows of the two
    legs, taken side by side.  A component divides the apex multiplicity
    wherever that is their lcm, so divisibility is not tested apart.
    """
    failures = []
    for x, y in itertools.combinations_with_replacement(spaces, 2):
        cone = limits.product(x, y)
        apex, (left, right) = cone.apex, cone.legs
        xm, ym = x.mults, y.mults
        for label, m, (i, _), (j, _) in zip(apex.labels, apex.mults, left.rows, right.rows):
            if m != checked_lcm([xm[i], ym[j]]):
                failures.append(f"multiplicity law fails at {label} of {x!r}x{y!r}")
        report = limits.verify_universal(cone, limits.Diagram((x, y)), apexes)
        if report["violations"]:
            failures.append(
                f"universal property fails for {x!r}x{y!r}: {report['violations'][:3]}"
            )
    return failures


def check_duality_exchange(spaces: Sequence[MultiSpace]) -> list[str]:
    """Function groups swap coproducts for products and vice versa.

    Each is built once per pair and compared with its definition.  As
    G(X + Y) = G(X) x G(Y), the projections' point maps start at X and Y and
    hit each apex point once, with multiplier 1.  The injections' point maps
    end at X and Y, and distinct apex points have distinct components.  The
    product's identity is not tested for being an isomorphism here:
    ``check_category_laws`` tests ``is_isomorphism`` on every identity."""
    failures = []
    for x, y in itertools.combinations_with_replacement(spaces, 2):
        gx, gy = duality.function_group(x), duality.function_group(y)
        prod = limits.group_product(gx, gy)
        maps = [p.point_map for p in prod.legs]
        rows = sorted([r for m in maps for r in m.rows])
        if [m.dom for m in maps] != [x, y] or rows != [(j, 1) for j in range(len(prod.apex.base))]:
            failures.append(f"coproduct/product exchange fails for {x!r},{y!r}")
        maps = [i.point_map for i in limits.group_coproduct(gx, gy).injections]
        components = set(zip(*[[j for j, _ in m.rows] for m in maps]))
        if [m.cod for m in maps] != [x, y] or len(components) != len(maps[0].dom):
            failures.append(f"product/coproduct exchange fails for {x!r},{y!r}")
    return failures


# -- MV algebras ---------------------------------------------------------------

def check_gamma_laws(groups: Sequence[SpeckerGroup]) -> list[str]:
    """Per group: the closed-form cardinality against the exhaustive oracle's
    element count, both axiom verdicts, the fiber decomposition, and, when
    every unit is 1, idempotence of (+).  Gamma(g) is enumerated once, by the
    oracle, and again only for the idempotence loop.  No axiom check calls
    ``mv_plus`` or ``mv_neg``, so both are checked on each unit's chain."""
    failures = []
    for g in groups:
        expected = mv.cardinality(g)
        report = mv.verify_mv_axioms(g)
        exhaustive = mv.verify_mv_axioms_exhaustive(g)
        if exhaustive["cardinality"] != expected:
            failures.append(f"cardinality law fails for unit {g.base.mults}")
        if not report["pass"]:
            failures.append(f"axioms fail for unit {g.base.mults}: {report['violations']}")
        if exhaustive["pass"] != report["pass"]:
            failures.append(f"per-chain and exhaustive axiom verdicts disagree for unit {g.base.mults}")
        fibers = mv.fiber_decomposition(g)
        total = 1
        seen_points: list[str] = []
        for comp in fibers:
            total *= (comp.n + 1) ** len(comp.points)
            seen_points.extend(comp.points)
        if total != expected or sorted(seen_points) != sorted(g.base.labels):
            failures.append(f"fiber decomposition fails for unit {g.base.mults}")
        if all(u == 1 for u in g.base.mults):
            for x in mv.elements(g):
                if mv.mv_plus(x, x) != x:
                    failures.append(f"boolean idempotence fails at {x.values}")
    for n in sorted({u for g in groups for u in g.base.mults}):
        chain = duality.function_group(new_space(["p1"], [n]))
        for i, j in itertools.product(range(n + 1), repeat=2):
            if mv.mv_plus(chain.element([i]), chain.element([j])).values != (min(i + j, n),):
                failures.append(f"mv_plus is not min(i + j, {n}) at {i}, {j}")
        for i in range(n + 1):
            if mv.mv_neg(chain.element([i])).values != (n - i,):
                failures.append(f"mv_neg is not {n} - i at {i}")
    return failures


# -- singular elements and ideals ----------------------------------------------

def check_singular_theory(groups: Sequence[SpeckerGroup]) -> list[str]:
    """Singular counts, both singularity tests, the support isomorphism, and
    unit residues of the greatest singular element, over the elements with
    values in [-1, max(2, unit)].

    Each singular's support is computed once per group; the pair loop then
    computes only the supports of the meet and the join.
    """
    failures = []
    for g in groups:
        n = len(g.base)
        lo, hi = -1, max([2, *g.base.mults])
        singulars = []
        for f in box_elements(g, lo, hi):
            quick = sgroup.is_singular(f)
            slow = sgroup.is_singular_definitional(f)
            if quick != slow:
                failures.append(f"singularity tests disagree at {f.values}")
            if quick:
                singulars.append(f)
        if len(singulars) != 2**n:
            failures.append(f"singular count is {len(singulars)}, expected {2**n}")
        supports = [sgroup.support(s) for s in singulars]
        if len(set(supports)) != 2**n:
            failures.append(f"support is not injective on unit {g.base.mults}")
        for (s, s_on), (t, t_on) in itertools.product(zip(singulars, supports), repeat=2):
            if sgroup.support(sgroup.meet(s, t)) != s_on & t_on:
                failures.append(f"support misses meets at {s.values},{t.values}")
            if sgroup.support(sgroup.join(s, t)) != s_on | t_on:
                failures.append(f"support misses joins at {s.values},{t.values}")
        top = sgroup.greatest_singular(g)
        for m in sgroup.maxspec(g):
            if sgroup.residue(m, top) != 1:
                failures.append(f"greatest singular has residue != 1 at {set(m.zeroset)}")
    return failures


def check_ideal_correspondence(groups: Sequence[SpeckerGroup]) -> list[str]:
    """Zero-set round trips and both maximality tests on every subset of
    points, and inclusion reversal on the elements with values in [-2, 2].

    Each subset's ideal is built once per group, with its members among
    those elements; inclusion reversal then compares the member sets of
    every pair z1 <= z2, with one failure per pair that breaks it.
    """
    failures = []
    for g in groups:
        labels = g.base.labels
        subsets = [
            frozenset(c)
            for r in range(len(labels) + 1)
            for c in itertools.combinations(labels, r)
        ]
        elements = list(box_elements(g, -2, 2))
        members = {}
        for z in subsets:
            ideal = sgroup.ideal_from_zeroset(g, z)
            members[z] = {i for i, f in enumerate(elements) if ideal.contains(f)}
            gen = sgroup.canonical_generator(ideal)
            back = sgroup.zeroset_from_ideal(g, [gen])
            if back.zeroset != z:
                failures.append(f"zeroset round trip fails at {set(z)}")
            if sgroup.is_maximal(ideal) != sgroup.is_maximal_by_criterion(ideal):
                failures.append(f"maximality tests disagree at {set(z)}")
        for z1, z2 in itertools.product(subsets, repeat=2):
            if z1 <= z2 and not members[z2] <= members[z1]:
                failures.append(f"inclusion reversal fails at {set(z1)},{set(z2)}")
    return failures


def check_hyperarch(groups: Sequence[SpeckerGroup], value_bound: int = 3) -> list[str]:
    """The hyperarchimedean law: for every pair f, h of elements with values
    in [0, value_bound], the witness n = ``hyperarch_witness(f, h)`` is at
    most max(h) and satisfies n*f /\\ h = (n+1)*f /\\ h.

    A correct witness has n <= max(h) <= value_bound, so only the multiples
    k*f with k <= value_bound + 1 can occur; they are built once per f.  A
    witness that is not an int in [0, value_bound] (a faulty one) is checked
    with n*f and (n+1)*f built directly, as the library computes them, so it
    never indexes the stored multiples.  The two meets both lie in f's
    group, so the pair loop compares their values.  ``hyperarch_witness`` and
    ``meet`` are read from ``sgroup`` once per call, so a patch made before
    the call applies.
    """
    witness, meet = sgroup.hyperarch_witness, sgroup.meet
    failures = []
    for g in groups:
        box = list(box_elements(g, 0, value_bound))
        tops = [max(h.values, default=0) for h in box]
        for f in box:
            multiples = [k * f for k in range(value_bound + 2)]
            for h, gmax in zip(box, tops):
                n = witness(f, h)
                if n > gmax:
                    failures.append(f"witness {n} exceeds max {gmax} at {f.values},{h.values}")
                if type(n) is int and 0 <= n <= value_bound:
                    low, high = multiples[n], multiples[n + 1]
                else:
                    low, high = n * f, (n + 1) * f
                if meet(low, h).values != meet(high, h).values:
                    failures.append(f"witness equality fails at {f.values},{h.values}")
    return failures


def check_stone_restriction(spaces: Sequence[MultiSpace]) -> list[str]:
    """On constant-multiplicity-1 spaces the duality restricts to maps of
    powerset atoms: units are singular, hom-sets are all point maps, and
    dual homomorphisms act on supports by preimage.

    The unit of each G(Y) is tested, and its singular elements are built
    with their supports, once per space, not once per pair or per morphism
    into it: the unit's singularity depends on the space alone."""
    failures = []
    ones = [x for x in spaces if all(m == 1 for m in x.mults)]
    singulars = {}
    for y in ones:
        gy = duality.function_group(y)
        if not sgroup.is_singular(gy.unit()):
            failures.append(f"unit of {y!r} is not singular")
        box = list(box_elements(gy, 0, 1))
        singulars[y] = list(zip(box, map(sgroup.support, box)))
    for x, y in itertools.product(ones, repeat=2):
        homs = enumerate_homs(x, y)
        if len(homs) != len(y) ** len(x):
            failures.append(f"hom count is not |Y|^|X| for {x!r},{y!r}")
        for gamma in homs:
            psi = duality.dual_hom(gamma)
            for s, on in singulars[y]:
                image = sgroup.apply_lhom(psi, s)
                if not sgroup.is_singular(image):
                    failures.append(f"dual hom does not preserve singulars at {gamma!r}")
                    continue
                preimage = frozenset(l for l in x.labels if gamma(l) in on)
                if sgroup.support(image) != preimage:
                    failures.append(f"support preimage law fails at {gamma!r}")
    return failures


def check_omega_obstructions(seed: int = 0) -> list[str]:
    """The three omega+1 obstruction demos each confirm their obstruction."""
    demos = [omega.not_specker_demo(seed=seed), omega.countable_power_demo(), omega.pushout_demo()]
    names = ["even-tail subgroup", "power", "pushout"]
    return [f"{name} demo failed" for name, demo in zip(names, demos) if not demo["confirmed"]]


# -- the law table and its entry point ----------------------------------------

class Universe(NamedTuple):
    """What the entries of ``LAWS`` sweep at one pair of bounds."""

    spaces: list[MultiSpace]
    small: list[MultiSpace]  # at most two points
    groups: list[SpeckerGroup]
    gamma_groups: list[SpeckerGroup]  # at most three points, units at most 4
    seed: int

    @classmethod
    def over(cls, spaces: list[MultiSpace], seed: int) -> Universe:
        groups = [duality.function_group(x) for x in spaces]
        gamma = [g for g in groups if len(g.base) <= 3 and all(u <= 4 for u in g.base.mults)]
        return cls(spaces, [x for x in spaces if len(x) <= 2], groups, gamma, seed)


LAWS: tuple[tuple[str, Callable[[Universe], list[str]]], ...] = (
    ("category_laws", lambda u: check_category_laws(u.spaces, representative_spaces())),
    ("round_trip", lambda u: check_round_trip(u.spaces)),
    ("naturality", lambda u: check_naturality(u.spaces)),
    ("hom_bijection", lambda u: check_hom_bijection(u.spaces)),
    ("functoriality", lambda u: check_functoriality(u.small, sample=20000, seed=u.seed)),
    ("limit_law", lambda u: check_limit_law(u.spaces, u.small)),
    ("duality_exchange", lambda u: check_duality_exchange(u.spaces)),
    ("gamma_laws", lambda u: check_gamma_laws(u.gamma_groups)),
    ("singular_theory", lambda u: check_singular_theory(u.groups)),
    ("ideal_correspondence", lambda u: check_ideal_correspondence(u.groups)),
    ("hyperarch", lambda u: check_hyperarch(u.groups, value_bound=2)),
    ("stone_restriction", lambda u: check_stone_restriction(u.spaces)),
    ("omega_obstructions", lambda u: check_omega_obstructions(u.seed)),
)


def run_laws(max_points: int = 2, max_mult: int = 3, seed: int = 0) -> dict:
    """Run every entry of ``LAWS`` at the given bounds and aggregate failures.

    The bounds are checked before anything is enumerated: a bound or seed
    that is not an int (a bool is not), a negative point count or a
    multiplicity bound below 1 is a ``SchemaError``.  There are two size
    refusals, each a ``SizeLimitError``: more than ``LAWS_MAX_POINTS``
    points, and more than ``LAWS_UNIVERSE_CAP`` spaces.
    """
    if require_int(max_points, "max_points") < 0 or require_int(max_mult, "max_mult") < 1:
        raise SchemaError(
            f"laws bounds need max_points >= 0 and max_mult >= 1, got {max_points} and {max_mult}"
        )
    require_int(seed, "seed")
    if max_points > LAWS_MAX_POINTS:
        raise SizeLimitError(f"max_points {max_points} exceeds the limit of {LAWS_MAX_POINTS} points")
    size = sum(max_mult**n for n in range(max_points + 1))
    if size > LAWS_UNIVERSE_CAP:
        raise SizeLimitError(
            f"bounds ({max_points}, {max_mult}) give {size} spaces, "
            f"more than the limit of {LAWS_UNIVERSE_CAP}"
        )
    universe = Universe.over(all_spaces(max_points, max_mult), seed)
    checks = {name: run(universe) for name, run in LAWS}
    failures = sum(len(v) for v in checks.values())
    return {
        "bounds": {"max_points": max_points, "max_mult": max_mult, "seed": seed},
        "checks": {k: {"failures": v} for k, v in checks.items()},
        "total_failures": failures,
        "ok": failures == 0,
    }
