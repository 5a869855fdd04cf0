"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure) and enforces the stated runtime budget where one exists.  All
sweeps are exhaustive over their declared universe; randomized parts are
seeded and reproducible.
"""

import itertools
import random
import time

import numpy as np

from bms import duality, laws, limits, mv, omega, sgroup
from bms.intlinalg import certificate_holds
from bms.laws import all_groups, all_spaces
from bms.mspace import MultiSpace, new_space
from bms.omega import ECSeq, ec_value, subgroup_membership
from bms.sgroup import SpeckerGroup
from omega_helpers import combine


def random_spaces(count: int, n_points: int, max_mult: int, seed: int = 0) -> list[MultiSpace]:
    rng = random.Random(seed)
    labels = [f"q{i}" for i in range(1, n_points + 1)]
    return [
        new_space(labels, [rng.randint(1, max_mult) for _ in range(n_points)])
        for _ in range(count)
    ]


def _report(num, name, failures, elapsed, budget=None):
    status = "PASS" if not failures else "FAIL"
    budget_note = f" budget {budget}s" if budget else ""
    print(f"criterion {num} ({name}): {status} [{elapsed:.1f}s{budget_note}]")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_duality_round_trip():
    start = time.perf_counter()
    spaces = all_spaces(3, 6) + random_spaces(500, 4, 6, seed=0)
    failures = laws.check_round_trip(spaces)
    _report(1, "duality round trip", failures, time.perf_counter() - start, 30)


def test_criterion_2_hom_bijection():
    start = time.perf_counter()
    failures = laws.check_hom_bijection(all_spaces(3, 4))
    _report(2, "hom bijection", failures, time.perf_counter() - start, 60)


def test_criterion_3_lcm_limit_law():
    start = time.perf_counter()
    failures = laws.check_limit_law(all_spaces(3, 4), all_spaces(2, 4))
    _report(3, "lcm limit law", failures, time.perf_counter() - start, 60)


def test_criterion_4_duality_exchange():
    start = time.perf_counter()
    failures = laws.check_duality_exchange(all_spaces(3, 4))
    _report(4, "duality exchange", failures, time.perf_counter() - start)


def test_criterion_5_gamma_laws():
    start = time.perf_counter()
    failures = laws.check_gamma_laws(all_groups(3, 4))
    _report(5, "gamma laws", failures, time.perf_counter() - start, 30)


def test_criterion_6_singular_theory():
    start = time.perf_counter()
    failures = laws.check_singular_theory(all_groups(3, 3))
    _report(6, "singular element theory", failures, time.perf_counter() - start)


def test_criterion_7_ideal_correspondence():
    start = time.perf_counter()
    failures = laws.check_ideal_correspondence(all_groups(3, 4))
    _report(7, "ideal correspondence", failures, time.perf_counter() - start)


def test_criterion_8_omega_obstructions():
    start = time.perf_counter()
    failures = []

    ns = omega.not_specker_demo(seed=0)
    if ns["closed"] != "pass":
        failures.append("subgroup closure sample failed")
    if ns["singulars_finite_support"] != "pass":
        failures.append("a singular element has infinite support")
    if ns["unit_generated"] is not False or ns["certificate_coordinate"] != "tail":
        failures.append("unit generation was not refuted by the tail certificate")

    power = omega.countable_power_demo(max_k=10)
    if [w["v"] for w in power["witnesses"]] != [2] * 11 or power["limit_v"] != 1:
        failures.append("power discontinuity table is wrong")

    push = omega.pushout_demo(bound=16)
    if push["forced"] != {"inf": 1, **{str(n): 2 for n in range(17)}}:
        failures.append("forced multiplicity table is wrong")
    if push["representable_for_all_n"] or push["min_prefix_length"] != 17:
        failures.append("non-representability was not established")

    _report(8, "omega obstructions", failures, time.perf_counter() - start, 5)


def _random_membership_instance(rng):
    def seq():
        k = rng.randint(0, 3)
        return ECSeq(tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(-3, 3))

    gens = [seq() for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        target = combine([rng.randint(-5, 5) for _ in gens], gens)
    else:
        target = seq()
    return target, gens


def _oracle_finds_combination(target, gens, bound=5):
    """Independent brute-force search over bounded coefficient vectors."""
    n = max([len(target.prefix)] + [len(g.prefix) for g in gens])
    rows = list(range(n)) + [omega.INFINITY]
    a = np.array([[ec_value(g, p) for g in gens] for p in rows], dtype=np.int64)
    b = np.array([ec_value(target, p) for p in rows], dtype=np.int64)
    grid = np.array(
        list(itertools.product(range(-bound, bound + 1), repeat=len(gens))),
        dtype=np.int64,
    )
    return bool(np.all(grid @ a.T == b, axis=1).any())


def test_criterion_9_membership_vs_oracle():
    start = time.perf_counter()
    rng = random.Random(0)
    failures = []
    for i in range(200):
        target, gens = _random_membership_instance(rng)
        result = subgroup_membership(target, gens)
        oracle = _oracle_finds_combination(target, gens, bound=5)
        if oracle and not result.member:
            failures.append(f"instance {i}: oracle found a combination, decision says no")
        if result.member:
            if combine(result.coefficients, gens) != target:
                failures.append(f"instance {i}: coefficients do not reproduce the target")
        else:
            n = max([len(target.prefix)] + [len(g.prefix) for g in gens])
            rows = list(range(n)) + [omega.INFINITY]
            matrix = [[ec_value(g, p) for g in gens] for p in rows]
            rhs = [ec_value(target, p) for p in rows]
            if not certificate_holds(matrix, rhs, result.certificate):
                failures.append(f"instance {i}: certificate does not verify")
    _report(9, "membership vs oracle", failures, time.perf_counter() - start, 10)


def test_criterion_10_hyperarch_witness():
    start = time.perf_counter()
    failures = laws.check_hyperarch(all_groups(3, 4), value_bound=3)
    _report(10, "hyperarchimedean witness", failures, time.perf_counter() - start, 8)
