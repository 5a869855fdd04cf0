import itertools
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bms.duality import dual_point_map, enumerate_lhoms
from bms.errors import DivisibilityError, OverflowLimitError, SchemaError
from bms.ints import INT_LIMIT
from bms.laws import box_elements
from bms.mspace import BmsMorphism, new_space
from bms.sgroup import (
    GroupElement,
    LHom,
    MaximalIdeal,
    SpeckerGroup,
    apply_lhom,
    canonical_generator,
    compose_lhom,
    greatest_singular,
    hyperarch_witness,
    hyperarch_witness_by_scan,
    ideal_from_zeroset,
    identity_lhom,
    is_maximal,
    is_maximal_by_criterion,
    is_singular,
    is_singular_definitional,
    join,
    leq,
    lhom_from_dict,
    lhom_point_map,
    lhom_to_dict,
    maxspec,
    meet,
    residue,
    residue_by_ideal_scan,
    residues,
    support,
    validate_lhom,
    zeroset_from_ideal,
)


def grp(*mults, labels=None):
    labels = labels or [f"p{i+1}" for i in range(len(mults))]
    return SpeckerGroup(new_space(labels, list(mults)))


def test_element_ops():
    g = grp(2, 2)
    u = g.unit()
    zero = g.zero()
    assert meet(u, zero) == zero
    assert abs(g.element((-2, 3))) == g.element((2, 3))
    assert u + (-u) == zero
    assert u - u == zero
    assert 3 * g.element((1, -1)) == g.element((3, -3))
    assert join(g.element((1, 0)), g.element((0, 1))) == g.element((1, 1))
    assert leq(zero, u) and not leq(u, zero)


def test_group_mismatch_and_overflow():
    a = grp(1).element((1,))
    b = grp(2).element((1,))
    with pytest.raises(SchemaError):
        a + b
    big = grp(1).element((INT_LIMIT,))
    with pytest.raises(OverflowLimitError):
        big + big
    with pytest.raises(OverflowLimitError):
        2 * big


def test_overflow_from_difference_and_negative_operands():
    g = grp(1, 1)
    big = g.element((INT_LIMIT, 0))
    low = g.element((0, -INT_LIMIT))
    with pytest.raises(OverflowLimitError):
        big - (-big)
    with pytest.raises(OverflowLimitError):
        low - g.element((0, 1))
    with pytest.raises(OverflowLimitError):
        low + low
    with pytest.raises(OverflowLimitError):
        2 * low
    with pytest.raises(OverflowLimitError):
        low * -2
    assert big - big == g.zero() and low + (-low) == g.zero()
    assert -1 * low == g.element((0, INT_LIMIT))


def test_public_constructor_validates():
    g = grp(1, 1)
    for bad in [(True, 0), (0, 1.0), (0, "1")]:
        with pytest.raises(SchemaError):
            GroupElement(g, bad)
        with pytest.raises(SchemaError):
            g.element(bad)
    for bad in [(INT_LIMIT + 1, 0), (0, -INT_LIMIT - 1)]:
        with pytest.raises(OverflowLimitError):
            GroupElement(g, bad)
    for bad in [(), (1,), (1, 2, 3)]:
        with pytest.raises(SchemaError):
            GroupElement(g, bad)
    assert g.element((INT_LIMIT, -INT_LIMIT)).values == (INT_LIMIT, -INT_LIMIT)


def test_list_values_are_stored_as_a_tuple():
    g = grp(1)
    e = GroupElement(g, [1])
    assert e.values == (1,) and isinstance(e.values, tuple)
    assert e == g.element((1,)) and hash(e) == hash(g.element((1,)))
    assert len({e, g.element((1,))}) == 1


def test_box_elements_checks_its_bounds_first():
    g = grp(1)
    with pytest.raises(OverflowLimitError):
        next(box_elements(g, 0, INT_LIMIT + 1))
    with pytest.raises(OverflowLimitError):
        next(box_elements(g, -INT_LIMIT - 1, 0))
    assert [f.values for f in box_elements(g, INT_LIMIT - 1, INT_LIMIT)] == [
        (INT_LIMIT - 1,), (INT_LIMIT,)
    ]


def test_lattice_results_equal_validated_elements():
    g = grp(1, 2, 3)
    for a, b in itertools.product(box_elements(g, -1, 1), repeat=2):
        for result in (meet(a, b), join(a, b), -a, abs(a), a + b, a - b, 2 * a):
            public = GroupElement(g, result.values)
            assert result == public and public == result
            assert hash(result) == hash(public)


def test_is_singular_examples():
    g = grp(2, 2)
    assert is_singular(greatest_singular(g))
    assert not is_singular(g.unit())          # value 2
    assert is_singular(g.element((1, 0)))
    assert not is_singular(g.element((-1, 0)))


def test_singular_tests_agree_small():
    g = grp(2, 3)
    for vals in itertools.product(range(-1, 4), repeat=2):
        f = g.element(vals)
        assert is_singular(f) == is_singular_definitional(f)


def test_greatest_singular():
    assert greatest_singular(grp(2, 2)).values == (1, 1)
    assert greatest_singular(grp()).values == ()
    g = grp(3, 1)
    top = greatest_singular(g)
    assert top.values == (1, 1)
    assert all(residue(m, top) == 1 for m in maxspec(g))


def test_support():
    g = grp(1, 1)
    assert support(greatest_singular(g)) == {"p1", "p2"}
    assert support(g.zero()) == frozenset()
    h = grp(1, 1, 1)
    assert support(h.element((1, 0, 1))) == {"p1", "p3"}
    with pytest.raises(SchemaError):
        support(h.element((2, 0, 0)))


def test_residue_examples():
    g = SpeckerGroup(new_space(["a", "b"], [1, 2]))
    ma, mb = maxspec(g)
    assert residue(ma, g.unit()) == 1
    assert residue(mb, g.unit()) == 2
    assert residue(ma, g.zero()) == 0
    assert residue(mb, g.element((5, -3))) == -3


def test_residue_matches_membership_scan():
    g = grp(1, 2, 3)
    for vals in itertools.product(range(-2, 3), repeat=3):
        f = g.element(vals)
        for m in maxspec(g):
            assert residue(m, f) == residue_by_ideal_scan(m, f)


def test_residues_vector():
    g = SpeckerGroup(new_space(["a", "b"], [1, 2]))
    assert list(residues(g.unit()).values()) == [1, 2]
    assert list(residues(g.zero()).values()) == [0, 0]
    assert list(residues(greatest_singular(g)).values()) == [1, 1]
    f = g.element((0, 7))
    for m, r in residues(f).items():
        assert (r == 0) == m.contains(f)


def test_zeroset_from_ideal_examples():
    g = grp(1, 2)
    assert zeroset_from_ideal(g, [g.unit()]).zeroset == frozenset()
    assert zeroset_from_ideal(g, []).zeroset == {"p1", "p2"}
    ideal = zeroset_from_ideal(g, [g.element((0, 3))])
    assert ideal.zeroset == {"p1"}
    m = MaximalIdeal(g, "p1")
    for vals in itertools.product(range(-2, 3), repeat=2):
        f = g.element(vals)
        assert ideal.contains(f) == m.contains(f)


def test_ideal_round_trip_and_generated_membership():
    g = grp(2, 3, 4)
    for r in range(4):
        for combo in itertools.combinations(g.base.labels, r):
            ideal = ideal_from_zeroset(g, combo)
            gen = canonical_generator(ideal)
            assert zeroset_from_ideal(g, [gen]).zeroset == frozenset(combo)


def test_generated_ideal_is_vanishing_ideal():
    # membership in the ideal generated by some elements coincides with
    # vanishing on their common zero set (finite hyperarchimedean case):
    # g is generated iff |g| <= n * sum|h_i| for some n
    g = grp(1, 2)
    gens = [g.element((0, 2)), g.element((0, -1))]
    ideal = zeroset_from_ideal(g, gens)
    total = abs(gens[0]) + abs(gens[1])
    for vals in itertools.product(range(-2, 3), repeat=2):
        f = g.element(vals)
        bound = max(max((abs(v) for v in f.values), default=0), 1)
        generated = any(leq(abs(f), n * total) for n in range(bound + 1))
        assert generated == ideal.contains(f)


def test_is_maximal():
    g = grp(1, 2, 3)
    assert is_maximal(ideal_from_zeroset(g, ["p1"]))
    assert not is_maximal(ideal_from_zeroset(g, []))          # improper
    assert not is_maximal(ideal_from_zeroset(g, ["p1", "p2"]))


def test_maximality_criterion_agrees():
    g = grp(1, 2, 3)
    for r in range(4):
        for combo in itertools.combinations(g.base.labels, r):
            ideal = ideal_from_zeroset(g, combo)
            assert is_maximal(ideal) == is_maximal_by_criterion(ideal)


def test_hyperarch_witness_examples():
    g = grp(2, 2)
    u = g.unit()
    assert hyperarch_witness(g.zero(), u) == 0
    # least n with n*u /\ u = (n+1)*u /\ u, by the same brute scan done by hand
    assert hyperarch_witness(u, u) == 1
    h = grp(1, 5)
    assert hyperarch_witness(h.element((1, 0)), h.element((0, 5))) == 0
    with pytest.raises(SchemaError):
        hyperarch_witness(g.element((-1, 0)), u)


@st.composite
def nonnegative_pairs(draw):
    n = draw(st.integers(0, 4))
    g = grp(*[draw(st.integers(1, 4)) for _ in range(n)])
    values = st.lists(st.integers(0, 12), min_size=n, max_size=n)
    return g.element(draw(values)), g.element(draw(values))


@settings(max_examples=200, deadline=None)
@given(nonnegative_pairs())
def test_closed_form_witness_matches_scan(pair):
    f, g = pair
    assert hyperarch_witness(f, g) == hyperarch_witness_by_scan(f, g)


def test_validate_and_apply_lhom():
    dom = grp(2, labels=["v"])
    cod = grp(4, labels=["w"])
    h = validate_lhom([[2]], dom, cod)
    assert apply_lhom(h, dom.element((3,))).values == (6,)
    ident = identity_lhom(dom)
    assert apply_lhom(ident, dom.element((5,))) == dom.element((5,))


def test_lhom_shape_errors():
    dom2 = grp(1, 1)
    cod1 = grp(1)
    with pytest.raises(SchemaError):
        validate_lhom([[1, 1]], dom2, cod1)      # two positive entries
    with pytest.raises(SchemaError):
        validate_lhom([[0, 0]], dom2, cod1)      # no positive entry
    with pytest.raises(SchemaError):
        validate_lhom([[-1, 0]], dom2, cod1)     # negative entry
    with pytest.raises(DivisibilityError):
        validate_lhom([[1]], grp(2), grp(4))     # unit not preserved
    with pytest.raises(SchemaError):
        validate_lhom([[1]], dom2, cod1)         # wrong width


def test_lhom_point_map_round_trip():
    dom = grp(2, labels=["v"])
    cod = grp(4, labels=["w"])
    h = validate_lhom([[2]], dom, cod)
    assert lhom_point_map(h) == {"w": ("v", 2)}
    gamma = dual_point_map(h)
    assert gamma.mapping == {"w": "v"} and gamma.zetas == (2,)


def test_lhom_pair_errors():
    dom2 = grp(1, 2)
    cod = grp(2)
    assert LHom(dom2, cod, ((1, 1),)).matrix == ((0, 1),)
    assert BmsMorphism(cod.base, dom2.base, ((1, 1),)).mapping == {"p1": "p2"}
    # the same rows, read as an LHom and as its dual point map
    for build in (partial(LHom, dom2, cod), partial(BmsMorphism, cod.base, dom2.base)):
        for pair in ((2, 1), (-1, 1), (True, 1), (1, 1.0), (1, True)):
            with pytest.raises(SchemaError):
                build((pair,))
        with pytest.raises(SchemaError):
            build(((0, 2), (1, 1)))                  # one row too many
        with pytest.raises(SchemaError):
            build(())                                # one row too few
        with pytest.raises(DivisibilityError):
            build(((0, 1),))                         # 1 * 1 != 2
        with pytest.raises(DivisibilityError):
            build(((1, 2),))                         # 2 * 2 != 2


def test_apply_lhom_overflow():
    dom = grp(1, labels=["v"])
    cod = grp(2, labels=["w"])
    h = validate_lhom([[2]], dom, cod)
    half = INT_LIMIT // 2
    assert apply_lhom(h, dom.element((half,))).values == (2 * half,)
    assert apply_lhom(h, dom.element((-half,))).values == (-2 * half,)
    for v in (half + 1, -half - 1, INT_LIMIT):
        with pytest.raises(OverflowLimitError):
            apply_lhom(h, dom.element((v,)))


def dense_product(a, b):
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]) if b else 0))
        for i in range(len(a))
    )


@st.composite
def composable_lhoms(draw):
    """f: A -> B and g: B -> C drawn from ``enumerate_lhoms``, and x in A."""
    a, b, c = (
        grp(*draw(st.lists(st.integers(1, 4), max_size=3))) for _ in range(3)
    )
    fs, gs = enumerate_lhoms(a, b), enumerate_lhoms(b, c)
    assume(fs and gs)
    x = a.element(draw(st.lists(st.integers(-9, 9), min_size=len(a.base), max_size=len(a.base))))
    return draw(st.sampled_from(fs)), draw(st.sampled_from(gs)), x


@settings(max_examples=200, deadline=None)
@given(composable_lhoms())
def test_pair_form_matches_dense_matrices(triple):
    f, g, x = triple
    assert compose_lhom(f, g).matrix == dense_product(g.matrix, f.matrix)
    image = dense_product(f.matrix, tuple((v,) for v in x.values))
    assert apply_lhom(f, x).values == tuple(v for (v,) in image)


def test_compose_lhom():
    a = grp(1, labels=["a"])
    b = grp(2, labels=["b"])
    c = grp(4, labels=["c"])
    f = validate_lhom([[2]], a, b)
    g = validate_lhom([[2]], b, c)
    fg = compose_lhom(f, g)
    assert fg.matrix == ((4,),)
    assert compose_lhom(f, identity_lhom(b)) == f
    with pytest.raises(SchemaError):
        compose_lhom(g, f)


def test_lhom_json_round_trip():
    dom = grp(2, labels=["v"])
    cod = grp(4, labels=["w"])
    h = validate_lhom([[2]], dom, cod)
    assert lhom_from_dict(lhom_to_dict(h)) == h


def test_trivial_group_is_legal():
    g = grp()
    assert g.unit() == g.zero()
    assert maxspec(g) == ()
    assert residues(g.unit()) == {}
    h = validate_lhom([], g, g)
    assert apply_lhom(h, g.zero()) == g.zero()
