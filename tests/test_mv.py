import dataclasses
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bms.duality import dual_hom, enumerate_lhoms, function_group
from bms.errors import SchemaError, SizeLimitError
from bms.laws import all_groups, check_gamma_laws
from bms.limits import group_product
from bms.mspace import new_morphism, new_space
from bms.mv import (
    _chain_tables,
    _generators,
    _table_violations,
    CHAIN_LIMIT,
    EXHAUSTIVE_CAP,
    FiberComponent,
    cardinality,
    contains,
    elements,
    fiber_decomposition,
    mv_neg,
    mv_plus,
    MVHom,
    verify_mv_axioms,
    verify_mv_axioms_exhaustive,
)
from bms.sgroup import SpeckerGroup, identity_lhom


def alg(*mults):
    labels = [f"p{i+1}" for i in range(len(mults))]
    return SpeckerGroup(new_space(labels, list(mults)))


def test_cardinality_examples():
    assert cardinality(alg(1)) == 2          # two-element boolean algebra
    assert cardinality(alg(4)) == 5          # chain with n+1 elements
    assert cardinality(alg(1, 2)) == 6
    assert len(list(elements(alg(1, 2)))) == 6


def test_mv_operation_examples():
    a = alg(2, 2)
    u = a.unit()
    assert mv_plus(u, u) == u                # absorption at the top
    assert mv_neg(a.zero()) == u
    b = alg(2)
    one = b.element((1,))
    assert mv_plus(one, one).values == (2,)  # (1+1) /\ 2


def test_mv_argument_validation():
    a = alg(2)
    with pytest.raises(SchemaError):
        mv_plus(a.element((3,)), a.zero())           # above the unit
    with pytest.raises(SchemaError):
        mv_neg(a.element((-1,)))                     # below zero
    b = alg(3)
    with pytest.raises(SchemaError):
        mv_plus(a.zero(), b.zero())                  # algebra mismatch


def _naive_axiom_check(algebra):
    """Oracle: direct loops over element tuples, no tables."""
    elems = list(elements(algebra))
    plus = mv_plus
    neg = mv_neg
    zero = algebra.zero()
    for x in elems:
        if plus(x, zero) != x or neg(neg(x)) != x:
            return False
        if plus(x, neg(zero)) != neg(zero):
            return False
    for x, y in itertools.product(elems, repeat=2):
        if plus(x, neg(plus(x, neg(y)))) != plus(y, neg(plus(y, neg(x)))):
            return False
        if plus(x, y) != plus(y, x):
            return False
    for x, y, z in itertools.product(elems, repeat=3):
        if plus(plus(x, y), z) != plus(x, plus(y, z)):
            return False
    return True


@pytest.mark.parametrize("mults", [(), (1,), (3,), (1, 2)])
def test_axioms_pass_and_match_naive_oracle(mults):
    algebra = alg(*mults)
    report = verify_mv_axioms(algebra)
    assert report == {"cardinality": math.prod(u + 1 for u in mults), "violations": [], "pass": True}
    assert verify_mv_axioms_exhaustive(algebra) == report
    assert _naive_axiom_check(algebra)


def test_per_chain_verdict_matches_exhaustive_oracle():
    for g in all_groups(3, 4):
        assert verify_mv_axioms(g) == verify_mv_axioms_exhaustive(g), g.base.mults


def test_exhaustive_oracle_checks_343_elements_in_small_memory():
    algebra = alg(6, 6, 6)
    tracemalloc.start()
    try:
        report = verify_mv_axioms_exhaustive(algebra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report == {"cardinality": 343, "violations": [], "pass": True}
    assert report == verify_mv_axioms(algebra)
    assert peak < 16 << 20


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(1, 6), max_size=4).filter(
        lambda us: math.prod(u + 1 for u in us) <= EXHAUSTIVE_CAP
    )
)
def test_per_chain_verdict_matches_oracle_on_random_units(mults):
    algebra = alg(*mults)
    assert verify_mv_axioms(algebra) == verify_mv_axioms_exhaustive(algebra)


# Every violation of each broken row of the test below, keyed by the equation
# it breaks: the messages, with their first failing positions, are those the
# kernel gave when it ran on numpy arrays.
BROKEN_TABLE_VIOLATIONS = {
    "x (+) 0 = x": [
        "x (+) 0 = x fails on [0,3]",
        "exchange equation fails on [0,3] at x=0 y=1",
        "associativity fails on [0,3] at x=0 y=1 z=1",
    ],
    "x (+) neg 0 = neg 0": [
        "x (+) neg 0 = neg 0 fails on [0,3]",
        "exchange equation fails on [0,3] at x=0 y=1",
        "associativity fails on [0,3] at x=1 y=1 z=2",
    ],
    "neg neg x = x": [
        "neg neg x = x fails on [0,3]",
        "exchange equation fails on [0,3] at x=0 y=1",
    ],
    "commutativity": [
        "commutativity fails on [0,3]",
        "exchange equation fails on [0,3] at x=1 y=3",
        "associativity fails on [0,3] at x=1 y=1 z=1",
    ],
    "exchange equation": ["exchange equation fails on [0,3] at x=1 y=2"],
    "associativity": [
        "exchange equation fails on [0,3] at x=1 y=3",
        "associativity fails on [0,3] at x=1 y=1 z=2",
    ],
}


@pytest.mark.parametrize("plus_edits, neg, equation", [
    ({(2, 0): 3, (0, 2): 3}, None, "x (+) 0 = x"),
    ({(3, 1): 0, (1, 3): 0}, None, "x (+) neg 0 = neg 0"),
    ({}, [3, 2, 0, 1], "neg neg x = x"),
    ({(1, 2): 2}, None, "commutativity"),
    ({(1, 1): 3}, None, "exchange equation"),
    ({(1, 2): 2, (2, 1): 2}, None, "associativity"),
])
def test_chain_kernel_reports_each_broken_equation(plus_edits, neg, equation):
    plus, chain_neg = _chain_tables(3)
    assert plus == [[min(i + j, 3) for j in range(4)] for i in range(4)]
    assert chain_neg == [3, 2, 1, 0]
    assert _table_violations(plus, chain_neg, "on [0,3]") == []
    for (i, j), value in plus_edits.items():
        plus[i][j] = value
    violations = _table_violations(plus, chain_neg if neg is None else neg, "on [0,3]")
    assert violations == BROKEN_TABLE_VIOLATIONS[equation]


def test_light_generators_are_zero_and_the_atoms():
    """Light's test runs once per generator: 0 and 1 for a chain, 0 and the
    atoms for a product of chains (elements in ``elements`` order)."""
    plus, _ = _chain_tables(CHAIN_LIMIT)
    assert list(_generators([tuple(row) for row in plus])) == [0, 1]
    elems = list(itertools.product(range(2), range(3), range(2)))
    plus = [
        tuple(elems.index((min(a + x, 1), min(b + y, 2), min(c + z, 1))) for x, y, z in elems)
        for a, b, c in elems
    ]
    assert [elems[g] for g in _generators(plus)] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def associativity_by_triples(plus, where):
    """Oracle of the associativity message: the first failing (x, y, z) of a
    plain scan over every triple."""
    m = range(len(plus))
    for x, y, z in itertools.product(m, repeat=3):
        if plus[plus[x][y]][z] != plus[x][plus[y][z]]:
            return [f"associativity fails {where} at x={x} y={y} z={z}"]
    return []


@st.composite
def edited_tables(draw):
    """A random table of at most 6 elements, or a chain's with up to two
    edited cells; the chain's neg in both cases."""
    n = draw(st.integers(0, 5))
    plus, neg = _chain_tables(n)
    index = st.integers(0, n)
    if draw(st.booleans()):
        row = st.lists(index, min_size=n + 1, max_size=n + 1)
        plus = draw(st.lists(row, min_size=n + 1, max_size=n + 1))
    else:
        for i, j, value in draw(st.lists(st.tuples(index, index, index), max_size=2)):
            plus[i][j] = value
    return plus, neg


@settings(max_examples=400, deadline=None)
@given(edited_tables())
def test_light_associativity_matches_the_triple_scan(tables):
    plus, neg = tables
    found = [v for v in _table_violations(plus, neg, "here") if v.startswith("associativity")]
    assert found == associativity_by_triples(plus, "here")


def test_chain_limit():
    assert verify_mv_axioms(alg(CHAIN_LIMIT, 1))["pass"]
    with pytest.raises(SizeLimitError):
        verify_mv_axioms(alg(1, CHAIN_LIMIT + 1))


def test_exhaustive_oracle_refuses_above_cap_without_allocating():
    tracemalloc.start()
    try:
        for mults in [(EXHAUSTIVE_CAP,), (2**40, 2**40)]:
            with pytest.raises(SizeLimitError):
                verify_mv_axioms_exhaustive(alg(*mults))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fiber_decomposition_examples():
    assert fiber_decomposition(alg(1, 2)) == (
        FiberComponent(("p1",), 1),
        FiberComponent(("p2",), 2),
    )
    comps = fiber_decomposition(alg(3, 3))
    assert comps == (FiberComponent(("p1", "p2"), 3),)
    assert (comps[0].n + 1) ** len(comps[0].points) == cardinality(alg(3, 3))
    assert fiber_decomposition(alg()) == ()


def test_unit_interval_hom_preserves_structure():
    dom = function_group(new_space(["y1", "y2"], [1, 2]))
    cod = function_group(new_space(["x1", "x2"], [2, 2]))
    for lhom in enumerate_lhoms(dom, cod):
        h = MVHom(lhom)
        da, ca = h.lhom.dom, h.lhom.cod
        assert h(da.zero()) == ca.zero()
        assert h(da.unit()) == ca.unit()
        for x, y in itertools.product(elements(da), repeat=2):
            assert h(mv_plus(x, y)) == mv_plus(h(x), h(y))
            assert h(mv_neg(x)) == mv_neg(h(x))
            assert contains(ca, h(x))


@pytest.mark.parametrize("value", [3, None, (1,), "x"])
def test_a_value_that_is_no_group_element_is_refused(value):
    a = alg(2)
    h = MVHom(identity_lhom(a))
    for call in [
        lambda: contains(a, value),
        lambda: mv_plus(value, a.zero()),
        lambda: mv_plus(a.zero(), value),
        lambda: mv_neg(value),
        lambda: h(value),
    ]:
        with pytest.raises(SchemaError, match="expected a group element"):
            call()


def test_mv_hom_is_its_lhom():
    """An MVHom holds only its lhom, so its algebras cannot disagree with it."""
    assert [f.name for f in dataclasses.fields(MVHom)] == ["lhom"]
    dom = function_group(new_space(["y1", "y2"], [1, 2]))
    cod = function_group(new_space(["x1", "x2"], [2, 2]))
    other = function_group(new_space(["z"], [3]))
    for lhom in enumerate_lhoms(dom, cod):
        with pytest.raises(TypeError):
            MVHom(other, other, lhom)
        with pytest.raises(TypeError):
            MVHom(lhom, dom=other)


def test_product_preservation():
    s = function_group(new_space(["a"], [1]))
    t = function_group(new_space(["a"], [2]))
    prod = group_product(s, t)
    big = prod.apex
    pairs = {
        (tuple(x.values), tuple(y.values))
        for x in elements(s)
        for y in elements(t)
    }
    split = {(e.values[:1], e.values[1:]) for e in elements(big)}
    assert split == pairs


def test_boolean_when_unit_is_one():
    algebra = alg(1, 1)
    for x in elements(algebra):
        assert mv_plus(x, x) == x


def test_every_small_mv_hom_is_a_dual_image():
    """All MV homomorphisms between small algebras arise from the duality.

    Exhaustive over algebras with at most 6 elements: enumerate all maps
    preserving 0, (+) and negation and match each against the images of the
    enumerated homomorphism matrices.
    """
    units = [(1,), (2,), (3,), (5,), (1, 1), (1, 2)]
    small = [alg(*u) for u in units]
    for a, b in itertools.product(small, repeat=2):
        if cardinality(a) > 6 or cardinality(b) > 6:
            continue
        ea, eb = list(elements(a)), list(elements(b))
        dual_images = set()
        for lhom in enumerate_lhoms(a, b):
            h = MVHom(lhom)
            dual_images.add(tuple(h(x).values for x in ea))
        found = set()
        for tgt in itertools.product(eb, repeat=len(ea)):
            table = dict(zip((e.values for e in ea), tgt))
            if table[a.zero().values] != b.zero():
                continue
            ok = all(
                table[mv_plus(x, y).values] == mv_plus(table[x.values], table[y.values])
                and table[mv_neg(x).values] == mv_neg(table[x.values])
                for x in ea
                for y in ea
            )
            if ok:
                found.add(tuple(table[x.values].values for x in ea))
        assert found == dual_images


def test_gamma_law_sweep_small():
    assert check_gamma_laws(all_groups(2, 3)) == []
