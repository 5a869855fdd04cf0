"""Exhaustive small-model law sweeps over a declared finite universe.

Each check returns a list of human-readable failure strings (empty means the
law held everywhere).  The universe is always an explicit argument, so the
CLI and the acceptance suite can run the same sweeps at different bounds.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, Sequence

from . import duality, limits, mv, omega, sgroup
from .errors import SchemaError, SizeLimitError
from .ints import checked, checked_lcm
from .mspace import (
    MultiSpace,
    compose,
    enumerate_homs,
    identity,
    is_isomorphism,
    new_space,
)
from .sgroup import GroupElement, SpeckerGroup

_LABELS = ("p1", "p2", "p3", "p4", "p5", "p6")
# Most spaces ``run_laws`` sweeps: sum of max_mult**n for n <= max_points.
LAWS_UNIVERSE_CAP = 100
# Most cases of the isomorphism-inverse scan of ``check_category_laws``, which
# drives the run time: (3, 4) has 48,983 and takes about 10 s on a 2-core Xeon,
# (4, 2) has only 31 spaces but 1.23M cases and takes about 29 s.
LAWS_SCAN_CAP = 100_000

__all__ = [
    "all_spaces",
    "all_groups",
    "random_spaces",
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
    "run_laws",
    "inverse_scan_cases",
    "LAWS_UNIVERSE_CAP",
    "LAWS_SCAN_CAP",
]


def _mult_tuples(max_points: int, max_mult: int) -> list[tuple[int, ...]]:
    """The multiplicity tuples of ``all_spaces``, in its order."""
    mults = range(1, max_mult + 1)
    return [m for n in range(max_points + 1) for m in itertools.product(mults, repeat=n)]


def all_spaces(max_points: int, max_mult: int) -> list[MultiSpace]:
    """Every multispace with up to the given points and multiplicities."""
    return [new_space(_LABELS[: len(m)], m) for m in _mult_tuples(max_points, max_mult)]


def all_groups(max_points: int, max_mult: int) -> list[SpeckerGroup]:
    return [duality.function_group(x) for x in all_spaces(max_points, max_mult)]


def random_spaces(count: int, n_points: int, max_mult: int, seed: int = 0) -> list[MultiSpace]:
    rng = random.Random(seed)
    labels = [f"q{i}" for i in range(1, n_points + 1)]
    return [
        new_space(labels, [rng.randint(1, max_mult) for _ in range(n_points)])
        for _ in range(count)
    ]


def box_elements(group: SpeckerGroup, lo: int, hi: int) -> Iterator[GroupElement]:
    """Every element with all values in [lo, hi], in lexicographic order.

    The two bounds are checked against ``INT_LIMIT`` before the first
    element, so the elements themselves need no further check.
    """
    checked(lo, "box bound")
    checked(hi, "box bound")
    trusted = GroupElement._trusted
    for vals in itertools.product(range(lo, hi + 1), repeat=len(group.base)):
        yield trusted(group, vals)


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


def check_category_laws(
    spaces: Sequence[MultiSpace], triple_spaces: Sequence[MultiSpace] | None = None
) -> list[str]:
    """Identity and associativity laws, plus zeta multiplicativity and the
    two characterizations of isomorphism, over enumerated morphisms.

    The cubic associativity sweep runs over ``triple_spaces`` (defaults to
    ``spaces``); the quadratic checks run over all of ``spaces``.
    """
    failures = []
    for x, y in itertools.product(spaces, repeat=2):
        homs = enumerate_homs(x, y)
        if len(set(homs)) != len(homs):
            failures.append(f"duplicate morphisms between {x!r} and {y!r}")
        back = enumerate_homs(y, x)
        for f in homs:
            if compose(identity(x), f) != f or compose(f, identity(y)) != f:
                failures.append(f"identity law fails for {f!r}")
            # two-sided-inverse characterization of isomorphism
            has_inverse = any(
                compose(f, g) == identity(x) and compose(g, f) == identity(y)
                for g in back
            )
            if has_inverse != is_isomorphism(f):
                failures.append(f"isomorphism characterizations disagree for {f!r}")
    if triple_spaces is None:
        triple_spaces = spaces
    for x, y in itertools.product(triple_spaces, repeat=2):
        for f in enumerate_homs(x, y):
            for z in triple_spaces:
                for g in enumerate_homs(y, z):
                    fg = compose(f, g)
                    expected_zeta = tuple(
                        zf * g.zeta(t) for zf, t in zip(f.zetas, f.targets)
                    )
                    if fg.zetas != expected_zeta:
                        failures.append(f"zeta multiplicativity fails for {f!r};{g!r}")
                    for w in triple_spaces:
                        for h in enumerate_homs(z, w):
                            if compose(fg, h) != compose(f, compose(g, h)):
                                failures.append(
                                    f"associativity fails at {f!r};{g!r};{h!r}"
                                )
    return failures


def check_round_trip(spaces: Sequence[MultiSpace]) -> list[str]:
    """Spectrum of the function group is isomorphic to the space, and both
    triangle identities hold (on the space and on its group)."""
    failures = []
    for x in spaces:
        witness = duality.unit_iso(x)
        back = duality.spectrum_space(duality.function_group(x))
        if not is_isomorphism(witness.forward) or witness.forward.cod != back:
            failures.append(f"round trip fails for {x!r}")
        if witness.forward.zetas != (1,) * len(x):
            failures.append(f"unit witness does not preserve multiplicities on {x!r}")
        if not duality.triangle_identities_space(x):
            failures.append(f"space triangle identity fails for {x!r}")
        if not duality.triangle_identities_group(duality.function_group(x)):
            failures.append(f"group triangle identity fails for {x!r}")
    return failures


def check_naturality(spaces: Sequence[MultiSpace]) -> list[str]:
    """The unit square commutes for every enumerated morphism, and the
    counit square for its dual homomorphism."""
    failures = []
    for x, y in itertools.product(spaces, repeat=2):
        for gamma in enumerate_homs(x, y):
            psi = duality.dual_hom(gamma)
            lhs = compose(gamma, duality.unit_iso(y).forward)
            rhs = compose(duality.unit_iso(x).forward, duality.spectrum_map(psi))
            if lhs != rhs:
                failures.append(f"unit naturality fails for {gamma!r}")
            sy = duality.function_group(y)
            left = sgroup.compose_lhom(psi, duality.counit_iso(psi.cod).forward)
            right = sgroup.compose_lhom(
                duality.counit_iso(sy).forward,
                duality.dual_hom(duality.spectrum_map(psi)),
            )
            if left != right:
                failures.append(f"counit naturality fails for {gamma!r}")
    return failures


def check_hom_bijection(spaces: Sequence[MultiSpace]) -> list[str]:
    failures = []
    for x, y in itertools.product(spaces, repeat=2):
        report = duality.hom_bijection_report(x, y)
        if not report["bijection"]:
            failures.append(f"hom bijection fails for {x!r} -> {y!r}: {report['failures']}")
    return failures


def check_functoriality(spaces: Sequence[MultiSpace], sample: int = 0, seed: int = 0) -> list[str]:
    """Contravariant functoriality on composable pairs.

    With ``sample`` > 0, only a seeded random subset of that many pairs is
    checked (the full sweep grows quadratically in the hom counts).
    """
    failures = []
    pairs = []
    for x, y, z in itertools.product(spaces, repeat=3):
        for f in enumerate_homs(x, y):
            for g in enumerate_homs(y, z):
                pairs.append((f, g))
    if sample and len(pairs) > sample:
        rng = random.Random(seed)
        pairs = rng.sample(pairs, sample)
    spec = duality.spectrum_map
    for f, g in pairs:
        psi_f, psi_g, psi = (duality.dual_hom(m) for m in (f, g, compose(f, g)))
        if psi != sgroup.compose_lhom(psi_g, psi_f):
            failures.append(f"dual hom is not contravariant at {f!r};{g!r}")
        if spec(psi) != compose(spec(psi_f), spec(psi_g)):
            failures.append(f"spectrum map is not contravariant at {f!r};{g!r}")
        if duality.dual_hom(duality.dual_point_map(psi)) != psi:
            failures.append(f"dual point map does not invert dual hom at {f!r};{g!r}")
    return failures


# -- limits --------------------------------------------------------------------

def check_limit_law(
    spaces: Sequence[MultiSpace], apexes: Sequence[MultiSpace]
) -> list[str]:
    """Binary products: LCM multiplicities, valid projections, and the
    universal property against every test apex."""
    failures = []
    for x, y in itertools.combinations_with_replacement(spaces, 2):
        cone = limits.product(x, y)
        for label, m in zip(cone.apex.labels, cone.apex.mults):
            # label is "(a,b)"; recompute the LCM from the legs
            comps = [leg(label) for leg in cone.legs]
            expected = checked_lcm([x.mult(comps[0]), y.mult(comps[1])])
            if m != expected:
                failures.append(f"multiplicity law fails at {label} of {x!r}x{y!r}")
            for leg, obj in zip(cone.legs, (x, y)):
                if m % obj.mult(leg(label)) != 0:
                    failures.append(f"projection divisibility fails at {label}")
        report = limits.verify_universal(cone, limits.Diagram((x, y)), apexes)
        if report["violations"]:
            failures.append(
                f"universal property fails for {x!r}x{y!r}: {report['violations'][:3]}"
            )
    return failures


def check_duality_exchange(spaces: Sequence[MultiSpace]) -> list[str]:
    """Function groups swap coproducts for products and vice versa, with
    identity-shaped witnesses and matching projections/injections."""
    failures = []
    for x, y in itertools.combinations_with_replacement(spaces, 2):
        cc = limits.coproduct(x, y)
        prod = limits.group_product(duality.function_group(x), duality.function_group(y))
        left = duality.function_group(cc.apex)
        if left != prod.group:
            failures.append(f"coproduct/product exchange fails for {x!r},{y!r}")
        witness = sgroup.identity_lhom(left)
        if not sgroup.is_isomorphism_lhom(witness):
            failures.append(f"exchange witness is not an isomorphism for {x!r},{y!r}")
        for inj, proj in zip(cc.injections, prod.projections):
            if duality.dual_hom(inj) != proj:
                failures.append(f"projection mismatch for {x!r},{y!r}")

        cone = limits.product(x, y)
        cop = limits.group_coproduct(duality.function_group(x), duality.function_group(y))
        if duality.function_group(cone.apex) != cop.group:
            failures.append(f"product/coproduct exchange fails for {x!r},{y!r}")
        for leg, inj in zip(cone.legs, cop.injections):
            if duality.dual_hom(leg) != inj:
                failures.append(f"injection mismatch for {x!r},{y!r}")
    return failures


# -- MV algebras ---------------------------------------------------------------

def check_gamma_laws(groups: Sequence[SpeckerGroup]) -> list[str]:
    failures = []
    for g in groups:
        algebra = mv.unit_interval_algebra(g)
        elems = list(mv.elements(algebra))
        expected = 1
        for u in g.base.mults:
            expected *= u + 1
        if len(elems) != expected or mv.cardinality(algebra) != expected:
            failures.append(f"cardinality law fails for unit {g.base.mults}")
        report = mv.verify_mv_axioms(algebra)
        if not report["pass"]:
            failures.append(f"axioms fail for unit {g.base.mults}: {report['violations']}")
        if mv.verify_mv_axioms_exhaustive(algebra)["pass"] != report["pass"]:
            failures.append(f"per-chain and exhaustive axiom verdicts disagree for unit {g.base.mults}")
        fibers = mv.fiber_decomposition(algebra)
        total = 1
        seen_points: list[str] = []
        for comp in fibers:
            total *= (comp.n + 1) ** len(comp.points)
            seen_points.extend(comp.points)
        if total != expected or sorted(seen_points) != sorted(g.base.labels):
            failures.append(f"fiber decomposition fails for unit {g.base.mults}")
        if all(u == 1 for u in g.base.mults):
            for x in elems:
                if mv.mv_plus(x, x) != x:
                    failures.append(f"boolean idempotence fails at {x.values}")
    return failures


# -- singular elements and ideals ----------------------------------------------

def check_singular_theory(groups: Sequence[SpeckerGroup], box: int = 2) -> list[str]:
    """Singular counts, both singularity tests, the support isomorphism, and
    unit residues of the greatest singular element."""
    failures = []
    for g in groups:
        n = len(g.base)
        lo, hi = -1, max([box, *g.base.mults])
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
        supports = {sgroup.support(s) for s in singulars}
        if len(supports) != 2**n:
            failures.append(f"support is not injective on unit {g.base.mults}")
        for s, t in itertools.product(singulars, repeat=2):
            if sgroup.support(sgroup.meet(s, t)) != sgroup.support(s) & sgroup.support(t):
                failures.append(f"support misses meets at {s.values},{t.values}")
            if sgroup.support(sgroup.join(s, t)) != sgroup.support(s) | sgroup.support(t):
                failures.append(f"support misses joins at {s.values},{t.values}")
        top = sgroup.greatest_singular(g)
        for m in sgroup.maxspec(g):
            if sgroup.residue(m, top) != 1:
                failures.append(f"greatest singular has residue != 1 at {m!r}")
    return failures


def check_ideal_correspondence(groups: Sequence[SpeckerGroup], box: int = 2) -> list[str]:
    failures = []
    for g in groups:
        labels = g.base.labels
        subsets = [
            frozenset(c)
            for r in range(len(labels) + 1)
            for c in itertools.combinations(labels, r)
        ]
        for z in subsets:
            ideal = sgroup.ideal_from_zeroset(g, z)
            gen = sgroup.canonical_generator(ideal)
            back = sgroup.zeroset_from_ideal(g, [gen])
            if back.zeroset != z:
                failures.append(f"zeroset round trip fails at {set(z)}")
            if sgroup.is_maximal(ideal) != sgroup.is_maximal_by_criterion(ideal):
                failures.append(f"maximality tests disagree at {set(z)}")
        elements = list(box_elements(g, -box, box))
        for z1, z2 in itertools.product(subsets, repeat=2):
            if z1 <= z2:
                i1 = sgroup.ideal_from_zeroset(g, z1)
                i2 = sgroup.ideal_from_zeroset(g, z2)
                for f in elements:
                    if i2.contains(f) and not i1.contains(f):
                        failures.append(f"inclusion reversal fails at {set(z1)},{set(z2)}")
                        break
    return failures


def check_hyperarch(groups: Sequence[SpeckerGroup], value_bound: int = 3) -> list[str]:
    failures = []
    for g in groups:
        for f, h in itertools.product(box_elements(g, 0, value_bound), repeat=2):
            n = sgroup.hyperarch_witness(f, h)
            gmax = max(h.values, default=0)
            if n > gmax:
                failures.append(f"witness {n} exceeds max {gmax} at {f.values},{h.values}")
            if sgroup.meet(n * f, h) != sgroup.meet((n + 1) * f, h):
                failures.append(f"witness equality fails at {f.values},{h.values}")
    return failures


def check_stone_restriction(spaces: Sequence[MultiSpace]) -> list[str]:
    """On constant-multiplicity-1 spaces the duality restricts to maps of
    powerset atoms: units are singular, hom-sets are all point maps, and
    dual homomorphisms act on supports by preimage."""
    failures = []
    ones = [x for x in spaces if all(m == 1 for m in x.mults)]
    for x, y in itertools.product(ones, repeat=2):
        homs = enumerate_homs(x, y)
        if len(homs) != len(y) ** len(x):
            failures.append(f"hom count is not |Y|^|X| for {x!r},{y!r}")
        gx = duality.function_group(x)
        if not sgroup.is_singular(gx.unit()):
            failures.append(f"unit of {x!r} is not singular")
        for gamma in homs:
            psi = duality.dual_hom(gamma)
            for vals in itertools.product((0, 1), repeat=len(y)):
                s = GroupElement(duality.function_group(y), vals)
                image = sgroup.apply_lhom(psi, s)
                if not sgroup.is_singular(image):
                    failures.append(f"dual hom does not preserve singulars at {gamma!r}")
                    continue
                preimage = frozenset(
                    l for l in x.labels if gamma(l) in sgroup.support(s)
                )
                if sgroup.support(image) != preimage:
                    failures.append(f"support preimage law fails at {gamma!r}")
    return failures


# -- aggregate entry point -----------------------------------------------------

def _hom_count(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """|Hom(X, Y)| for multiplicities a of X and b of Y: the product over the
    points of X of their candidate counts, as in ``enumerate_homs``."""
    return math.prod(sum(x % y == 0 for y in b) for x in a)


def inverse_scan_cases(max_points: int, max_mult: int) -> int:
    """Sum over pairs (X, Y) of ``all_spaces`` of |Hom(X, Y)| * |Hom(Y, X)|,
    from the multiplicity tuples alone: no space or morphism is built."""
    tuples = _mult_tuples(max_points, max_mult)
    return sum(_hom_count(a, b) * _hom_count(b, a) for a in tuples for b in tuples)


def run_laws(max_points: int = 2, max_mult: int = 3, seed: int = 0) -> dict:
    """Run every sweep at the given bounds and aggregate the failures.

    The bounds are checked before anything is enumerated: a negative point
    count or a multiplicity bound below 1 is a ``SchemaError``; more points
    than labels, or bounds over ``LAWS_UNIVERSE_CAP`` or ``LAWS_SCAN_CAP``,
    is a ``SizeLimitError``.
    """
    if max_points < 0 or max_mult < 1:
        raise SchemaError(
            f"laws bounds need max_points >= 0 and max_mult >= 1, got {max_points} and {max_mult}"
        )
    if max_points > len(_LABELS):
        raise SizeLimitError(f"max_points {max_points} exceeds the {len(_LABELS)} available labels")
    size = sum(max_mult**n for n in range(max_points + 1))
    if size > LAWS_UNIVERSE_CAP:
        raise SizeLimitError(
            f"bounds ({max_points}, {max_mult}) give {size} spaces, "
            f"more than the limit of {LAWS_UNIVERSE_CAP}"
        )
    cases = inverse_scan_cases(max_points, max_mult)
    if cases > LAWS_SCAN_CAP:
        raise SizeLimitError(
            f"bounds ({max_points}, {max_mult}) give {cases} isomorphism-inverse cases, "
            f"more than the limit of {LAWS_SCAN_CAP}"
        )
    spaces = all_spaces(max_points, max_mult)
    small = [x for x in spaces if len(x) <= 2]
    groups = all_groups(max_points, max_mult)
    gamma_groups = [g for g in groups if len(g.base) <= 3 and all(u <= 4 for u in g.base.mults)]

    checks = {
        "category_laws": check_category_laws(spaces, representative_spaces()),
        "round_trip": check_round_trip(spaces),
        "naturality": check_naturality(spaces),
        "hom_bijection": check_hom_bijection(spaces),
        "functoriality": check_functoriality(small, sample=20000, seed=seed),
        "limit_law": check_limit_law(spaces, small),
        "duality_exchange": check_duality_exchange(spaces),
        "gamma_laws": check_gamma_laws(gamma_groups),
        "singular_theory": check_singular_theory(groups),
        "ideal_correspondence": check_ideal_correspondence(groups),
        "hyperarch": check_hyperarch(groups, value_bound=2),
        "stone_restriction": check_stone_restriction(spaces),
    }

    not_specker = omega.not_specker_demo(seed=seed)
    power = omega.countable_power_demo()
    push = omega.pushout_demo()
    checks["omega_obstructions"] = [
        msg
        for ok, msg in [
            (not_specker["confirmed"], "even-tail subgroup demo failed"),
            (power["confirmed"], "power demo failed"),
            (push["confirmed"], "pushout demo failed"),
        ]
        if not ok
    ]

    failures = sum(len(v) for v in checks.values())
    return {
        "bounds": {"max_points": max_points, "max_mult": max_mult, "seed": seed},
        "checks": {k: {"failures": v} for k, v in checks.items()},
        "total_failures": failures,
        "ok": failures == 0,
    }
