import collections
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bms import omega
from bms.errors import OverflowLimitError, SchemaError
from bms.intlinalg import certificate_holds
from bms.ints import INT_LIMIT
from bms.omega import (
    INFINITY,
    ECSeq,
    const,
    countable_power_demo,
    ec_add,
    ec_is_singular,
    ec_join,
    ec_meet,
    ec_neg,
    ec_sub,
    ec_value,
    indicator,
    not_specker_demo,
    pushout_demo,
    subgroup_membership,
)
from omega_helpers import combine, scale

ecseqs = st.builds(
    ECSeq,
    st.lists(st.integers(-4, 4), max_size=5).map(tuple),
    st.integers(-4, 4),
)


def test_list_prefix_is_stored_as_a_tuple():
    a = ECSeq([1, 2], 0)
    assert type(a.prefix) is tuple
    assert a == ECSeq((1, 2), 0) and hash(a) == hash(ECSeq((1, 2), 0))
    assert ECSeq([1, 0], 0).prefix == (1,)


def test_canonical_form():
    assert ECSeq((1, 1), 1).prefix == ()
    assert ECSeq((2, 1), 1).prefix == (2,)
    assert ECSeq((0, 1, 2, 2), 2) == ECSeq((0, 1), 2)


@settings(max_examples=100, deadline=None)
@given(ecseqs)
def test_canonicalization_idempotent(a):
    assert ECSeq(a.prefix, a.tail) == a
    assert ec_value(a, INFINITY) == a.tail


def test_ec_value_examples():
    a = ECSeq((5,), 2)
    assert ec_value(a, 0) == 5
    assert ec_value(a, 3) == 2
    assert ec_value(a, INFINITY) == 2
    with pytest.raises(SchemaError):
        ec_value(a, -1)


def test_ec_value_refuses_a_bool_point():
    """A bool is no natural number, as it is no sequence value: True is not
    read as position 1."""
    a = ECSeq((5, 7), 9)
    for p in (True, False):
        with pytest.raises(SchemaError) as info:
            ec_value(a, p)
        assert str(info.value) == f"evaluation point must be a natural number or INFINITY, got {p!r}"
    assert ec_value(a, 1) == 7 and ec_value(a, 0) == 5


def test_op_examples():
    assert ec_add(const(1), const(1)) == const(2)
    assert ec_meet(indicator([0]), indicator([1])) == const(0)
    assert ec_sub(const(3), const(1)) == const(2)
    assert ec_neg(ECSeq((1,), 0)) == ECSeq((-1,), 0)
    assert ec_join(indicator([0]), indicator([1])) == ECSeq((1, 1), 0)


def test_ops_refuse_results_past_the_64_bit_bound():
    big = ECSeq((INT_LIMIT,), 0)
    with pytest.raises(OverflowLimitError):
        ec_add(big, indicator([0]))                    # in the prefix
    with pytest.raises(OverflowLimitError):
        ec_add(const(INT_LIMIT), const(1))             # in the tail
    with pytest.raises(OverflowLimitError):
        ec_sub(ECSeq((-INT_LIMIT,), 0), indicator([0]))
    with pytest.raises(OverflowLimitError):
        ec_sub(const(-2), const(INT_LIMIT))
    assert ec_add(const(INT_LIMIT - 1), const(1)) == const(INT_LIMIT)


def _zip_with_by_ec_value(a, b, op):
    """``_zip_with`` as an ``ec_value`` call per index, with every value of
    the result checked by the ``ECSeq`` constructor."""
    n = max(len(a.prefix), len(b.prefix))
    vals = tuple(op(ec_value(a, i), ec_value(b, i)) for i in range(n))
    return ECSeq(vals, op(a.tail, b.tail))


ORACLE_OPS = {
    "ec_add": (ec_add, lambda a, b: _zip_with_by_ec_value(a, b, lambda x, y: x + y)),
    "ec_sub": (ec_sub, lambda a, b: _zip_with_by_ec_value(a, b, lambda x, y: x - y)),
    "ec_meet": (ec_meet, lambda a, b: _zip_with_by_ec_value(a, b, min)),
    "ec_join": (ec_join, lambda a, b: _zip_with_by_ec_value(a, b, max)),
    "ec_neg": (
        lambda a, b: ec_neg(a),
        lambda a, b: ECSeq(tuple(-v for v in a.prefix), -a.tail),
    ),
}


def _op_outcome(op, a, b):
    try:
        r = op(a, b)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return type(r), type(r.prefix), r.prefix, r.tail, hash(r)


def test_ops_match_the_per_index_oracle():
    """Whole results, or exception type and message, on a seeded grid: prefixes of
    0-5 values (so of different lengths), small values (so that results end
    in values equal to their tail and are stripped) and values at and next
    to -INT_LIMIT and INT_LIMIT (so that sums and differences pass the bound
    in the prefix, in the tail or in both)."""
    rng = random.Random(30)
    values = (0, 1, -1, 2, INT_LIMIT, -INT_LIMIT, INT_LIMIT - 1, -INT_LIMIT + 1)

    def draw():
        small = rng.random() < 0.5
        pick = (lambda: rng.randint(-1, 1)) if small else (lambda: rng.choice(values))
        return ECSeq(tuple(pick() for _ in range(rng.randint(0, 5))), pick())

    seen = collections.Counter()
    for _ in range(3000):
        a, b = draw(), draw()
        for name, (op, oracle) in ORACLE_OPS.items():
            expected = _op_outcome(oracle, a, b)
            assert _op_outcome(op, a, b) == expected, (name, a, b)
            if expected[0] is ECSeq:
                n = len(a.prefix) if name == "ec_neg" else max(len(a.prefix), len(b.prefix))
                seen[name, "stripped" if len(expected[2]) < n else "value"] += 1
            else:
                seen[name, expected[1].split(" ")[0]] += 1
    for name in ("ec_add", "ec_sub", "ec_meet", "ec_join"):
        assert seen[name, "value"] and seen[name, "stripped"], name
    for name in ("ec_add", "ec_sub"):
        assert seen[name, "tail"] and seen[name, "prefix"], name
    assert {kind for name, kind in seen if name in ("ec_neg", "ec_meet", "ec_join")} <= {
        "value", "stripped"
    }


def test_indicator_of_many_positions_is_linear():
    start = time.perf_counter()
    a = indicator(range(8000))
    elapsed = time.perf_counter() - start
    assert a == ECSeq((1,) * 8000, 0)
    assert ec_value(a, 7999) == 1 and ec_value(a, 8000) == 0
    assert indicator([8, 2, 2, 5]) == ECSeq((0, 0, 1, 0, 0, 1, 0, 0, 1), 0)
    assert elapsed < 0.2


@settings(max_examples=100, deadline=None)
@given(ecseqs, ecseqs)
def test_ops_pointwise(a, b):
    probes = list(range(7)) + [INFINITY]
    for p in probes:
        assert ec_value(ec_add(a, b), p) == ec_value(a, p) + ec_value(b, p)
        assert ec_value(ec_meet(a, b), p) == min(ec_value(a, p), ec_value(b, p))
        assert ec_value(ec_join(a, b), p) == max(ec_value(a, p), ec_value(b, p))
        assert ec_value(ec_sub(a, b), p) == ec_value(a, p) - ec_value(b, p)


def test_ec_is_singular():
    assert ec_is_singular(const(1))
    assert ec_is_singular(ECSeq((1, 0, 1), 0))
    assert not ec_is_singular(const(2))
    assert not ec_is_singular(ECSeq((-1,), 0))


def test_singulars_closed_under_lattice_ops():
    small = [
        ECSeq(bits, tail)
        for k in range(3)
        for bits in itertools.product((0, 1), repeat=k)
        for tail in (0, 1)
    ]
    for a, b in itertools.product(small, repeat=2):
        assert ec_is_singular(ec_meet(a, b))
        assert ec_is_singular(ec_join(a, b))


def test_finite_support_span_has_zero_tail():
    rng = random.Random(3)
    gens = [indicator([i]) for i in range(5)]
    for _ in range(50):
        coeffs = [rng.randint(-5, 5) for _ in gens]
        assert combine(coeffs, gens).tail == 0


def test_membership_examples():
    r = subgroup_membership(const(0), [indicator([0]), const(3)])
    assert r.member and combine(r.coefficients, [indicator([0]), const(3)]) == const(0)

    r = subgroup_membership(ECSeq((3,), 0), [indicator([0])])
    assert r.member and r.coefficients == (3,)

    gens = [indicator([i]) for i in range(6)]
    r = subgroup_membership(const(2), gens)
    assert not r.member
    assert r.coordinate == "tail"
    assert r.certificate.modulus == 0 and r.certificate.value == 2


def test_membership_parity_certificate():
    # tails of the generators are even, target tail is odd
    r = subgroup_membership(const(1), [const(2), ECSeq((1,), 4)])
    assert not r.member
    assert r.coordinate == "tail"
    assert r.certificate.modulus == 2


def _membership_matrix(target, gens):
    n = max([len(target.prefix)] + [len(g.prefix) for g in gens], default=0)
    rows = list(range(n)) + [INFINITY]
    matrix = [[ec_value(g, p) for g in gens] for p in rows]
    rhs = [ec_value(target, p) for p in rows]
    return matrix, rhs


def _oracle_search(target, gens, bound=5):
    """Brute-force coefficient search on the coordinate vectors."""
    matrix, rhs = _membership_matrix(target, gens)
    a = np.array(matrix, dtype=np.int64)
    b = np.array(rhs, dtype=np.int64)
    k = len(gens)
    grid = np.array(
        list(itertools.product(range(-bound, bound + 1), repeat=k)), dtype=np.int64
    )
    hits = np.all(grid @ a.T == b, axis=1)
    return bool(hits.any())


def random_instance(rng):
    def random_seq():
        k = rng.randint(0, 3)
        return ECSeq(tuple(rng.randint(-3, 3) for _ in range(k)), rng.randint(-3, 3))

    gens = [random_seq() for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        coeffs = [rng.randint(-5, 5) for _ in gens]
        target = combine(coeffs, gens)
    else:
        target = random_seq()
    return target, gens


def test_membership_against_oracle():
    rng = random.Random(0)
    for _ in range(60):
        target, gens = random_instance(rng)
        result = subgroup_membership(target, gens)
        if _oracle_search(target, gens):
            assert result.member
        if result.member:
            assert combine(result.coefficients, gens) == target
        else:
            matrix, rhs = _membership_matrix(target, gens)
            assert certificate_holds(matrix, rhs, result.certificate)


def test_hyperarch_in_sequence_model():
    rng = random.Random(5)
    for _ in range(100):
        f = ECSeq(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))), rng.randint(0, 3))
        g = ECSeq(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))), rng.randint(0, 3))
        gmax = max([*g.prefix, g.tail])
        n = 0
        while ec_meet(scale(n, f), g) != ec_meet(scale(n + 1, f), g):
            n += 1
            assert n <= gmax
        assert n <= gmax


def test_not_specker_demo_report():
    report = not_specker_demo(seed=0)
    assert report["closed"] == "pass"
    assert report["singulars_finite_support"] == "pass"
    assert report["unit_generated"] is False
    assert report["certificate_coordinate"] == "tail"
    assert report["confirmed"]


def test_countable_power_demo_report():
    report = countable_power_demo(max_k=10)
    assert [w["v"] for w in report["witnesses"]] == [2] * 11
    assert report["limit_v"] == 1
    assert report["all_b_v"] == 2
    assert report["discontinuous"]
    assert list(report)[-1] == "confirmed" and report["confirmed"]


def test_pushout_demo_report():
    report = pushout_demo(bound=16)
    assert report["forced"]["inf"] == 1
    assert all(report["forced"][str(n)] == 2 for n in range(17))
    assert report["min_prefix_length"] == 17
    assert report["representable_for_all_n"] is False
    assert report["confirmed"]


@pytest.mark.parametrize(
    "demo",
    [lambda b: countable_power_demo(max_k=b), lambda b: pushout_demo(bound=b)],
    ids=["power", "pushout"],
)
def test_negative_demo_bound_is_schema_error(demo):
    """A negative bound has no witnesses to confirm, so it is refused, as
    the CLI refuses it; bound 0 still confirms."""
    with pytest.raises(SchemaError, match="bound must be >= 0"):
        demo(-1)
    assert demo(0)["confirmed"]


@pytest.mark.parametrize(
    "demo",
    [lambda b: countable_power_demo(max_k=b), lambda b: pushout_demo(bound=b)],
    ids=["power", "pushout"],
)
@pytest.mark.parametrize("bound", [True, False, 2.0, "3", None])
def test_demo_bound_that_is_not_an_int_is_schema_error(demo, bound):
    with pytest.raises(SchemaError, match="bound must be an integer"):
        demo(bound)


@pytest.mark.parametrize("seed", [True, 2.5, "abc", None])
def test_not_specker_seed_that_is_not_an_int_is_schema_error(monkeypatch, seed):
    """The seed is refused before any sample is drawn."""
    def reached(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(omega.random, "Random", reached)
    with pytest.raises(SchemaError, match="seed must be an integer"):
        not_specker_demo(seed=seed)
