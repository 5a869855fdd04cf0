import itertools
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bms import duality, sgroup
from bms.duality import enumerate_lhoms
from bms.errors import DivisibilityError, OverflowLimitError, SchemaError, SizeLimitError
from bms.ints import INT_LIMIT, checked
from bms.laws import all_groups, box_elements
from bms.mspace import HOM_LIMIT, BmsMorphism, new_space
from bms.sgroup import (
    ClosedSetIdeal,
    GroupElement,
    LHom,
    SpeckerGroup,
    apply_lhom,
    canonical_generator,
    compose_lhom,
    greatest_singular,
    hyperarch_witness,
    ideal_from_zeroset,
    identity_lhom,
    is_maximal,
    is_maximal_by_criterion,
    is_singular,
    is_singular_definitional,
    join,
    leq,
    lhom_from_dict,
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
    for not_a_group in [g.base, None, (1, 1)]:
        with pytest.raises(SchemaError, match="expected a Specker group"):
            GroupElement(not_a_group, (0, 0))
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
    for g in all_groups(2, 3):
        for f in box_elements(g, -1, 3):
            assert is_singular(f) == is_singular_definitional(f), f


@pytest.mark.parametrize("points", [17, 30])
def test_singularity_oracle_refuses_a_large_box_before_enumerating(monkeypatch, points):
    """Below the greatest singular of 17 points lie 2^17 elements, past
    ``HOM_LIMIT``; 2^16 are not.  A negative value is still answered at
    once, however many points there are."""
    assert 2**16 <= HOM_LIMIT < 2**17
    g = grp(*[1] * points)
    monkeypatch.setattr(
        sgroup, "itertools", SimpleNamespace(product=lambda *args: pytest.fail("enumeration started"))
    )
    with pytest.raises(SizeLimitError, match="exceed the limit"):
        is_singular_definitional(greatest_singular(g))
    assert not is_singular_definitional(g.element((1,) * (points - 1) + (-1,)))


def test_lattice_kernels_are_the_pointwise_min_and_max():
    for g in all_groups(2, 3):
        for a, b in itertools.product(box_elements(g, 0, 3), repeat=2):
            assert meet(a, b) == GroupElement(g, tuple(map(min, a.values, b.values)))
            assert join(a, b) == GroupElement(g, tuple(map(max, a.values, b.values)))


def test_hyperarch_witness_is_the_least_n_of_a_bounded_scan():
    """The least n in 0..max(h) with n*f /\\ h = (n+1)*f /\\ h, over every pair
    of elements with values in [0, 3] of every small group."""
    for g in all_groups(2, 3):
        for f, h in itertools.product(box_elements(g, 0, 3), repeat=2):
            scan = [
                n for n in range(max(h.values, default=0) + 1)
                if meet(n * f, h) == meet((n + 1) * f, h)
            ]
            assert scan and hyperarch_witness(f, h) == scan[0], (f, h)


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


def test_maxspec_is_the_maximal_closed_set_ideals():
    for g in all_groups(3, 2):
        labels = g.base.labels
        subsets = (c for r in range(len(labels) + 1) for c in itertools.combinations(labels, r))
        maximal = {ideal for z in subsets if is_maximal(ideal := ideal_from_zeroset(g, z))}
        assert set(maxspec(g)) == maximal


def test_residues_are_indexed_by_one_point_zero_sets():
    g = SpeckerGroup(new_space(["a", "b"], [1, 2]))
    r = residues(g.element((5, -3)))
    assert r[ideal_from_zeroset(g, ["a"])] == 5 and r[ideal_from_zeroset(g, ["b"])] == -3


@pytest.mark.parametrize("zeroset", [[], ["a", "b"]])
def test_residue_needs_a_one_point_zero_set(zeroset):
    g = SpeckerGroup(new_space(["a", "b"], [1, 2]))
    with pytest.raises(SchemaError):
        residue(ideal_from_zeroset(g, zeroset), g.unit())


@pytest.mark.parametrize("zeroset", [[], ["a", "b"]])
def test_residue_oracle_needs_a_one_point_zero_set(zeroset):
    g = SpeckerGroup(new_space(["a", "b"], [3, 3]))
    with pytest.raises(SchemaError, match="one-point zero set"):
        residue_by_ideal_scan(ideal_from_zeroset(g, zeroset), g.element((3, 3)))


@pytest.mark.parametrize(
    "mults, value", [((10**6,), 10**6), ((10**6,), 1), ((HOM_LIMIT // 2,), 1)],
    ids=["unit and value 10^6", "unit 10^6", "one value past the limit"],
)
def test_residue_oracle_refuses_a_long_scan_before_scanning(monkeypatch, mults, value):
    """A scan of 2 * max|g| * max(unit) + 1 values beyond ``HOM_LIMIT`` is
    refused before the first one is built."""
    g = grp(*mults)
    f = g.element((value,))
    monkeypatch.setattr(sgroup, "greatest_singular", lambda group: pytest.fail("scan started"))
    with pytest.raises(SizeLimitError, match="residue scan"):
        residue_by_ideal_scan(maxspec(g)[0], f)


def test_residue_oracle_refuses_a_zero_set_that_is_not_one_point_before_the_cap():
    g = grp(10**6, 10**6)
    with pytest.raises(SchemaError, match="one-point zero set"):
        residue_by_ideal_scan(ideal_from_zeroset(g, ["p1", "p2"]), g.unit())


def test_zero_set_given_as_a_list_is_stored_as_a_frozenset():
    g = SpeckerGroup(new_space(["a", "b"], [1, 2]))
    ideal = ClosedSetIdeal(g, ["a"])
    assert type(ideal.zeroset) is frozenset
    assert hash(ideal) == hash(ideal_from_zeroset(g, ["a"])) and ideal == ideal_from_zeroset(g, ["a"])
    assert residues(g.unit())[ideal] == 1
    assert residue(ClosedSetIdeal(g, ["a", "a"]), g.unit()) == 1


def test_zero_set_given_as_an_int_is_schema_error():
    g = SpeckerGroup(new_space(["a", "b"], [1, 2]))
    with pytest.raises(SchemaError, match="zero set must be an iterable of point labels, got 5"):
        ClosedSetIdeal(g, 5)


def test_zero_set_given_as_a_string_is_refused():
    g = SpeckerGroup(new_space(["p1", "p2"], [1, 2]))
    with pytest.raises(SchemaError, match="'p1' is a string; pass a list of point labels"):
        ideal_from_zeroset(g, "p1")
    # Split into characters, "ab" would name the two points a and b.
    g = SpeckerGroup(new_space(["a", "b", "ab"], [1, 1, 1]))
    with pytest.raises(SchemaError, match="'ab' is a string; pass a list of point labels"):
        ideal_from_zeroset(g, "ab")
    assert ideal_from_zeroset(g, ["ab"]).zeroset == {"ab"}


def test_zeroset_from_ideal_examples():
    g = grp(1, 2)
    assert zeroset_from_ideal(g, [g.unit()]).zeroset == frozenset()
    assert zeroset_from_ideal(g, []).zeroset == {"p1", "p2"}
    ideal = zeroset_from_ideal(g, [g.element((0, 3))])
    assert ideal.zeroset == {"p1"}
    m = ideal_from_zeroset(g, ["p1"])
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


def test_maximality_criterion_searches_once_per_distinct_size(monkeypatch):
    """At the maximal ideal at p1 of the group with unit (4, 4, 4), the 19
    candidates outside the ideal have 5 distinct sizes |a|, and each search
    tries n = 0, ..., 4 at most.  The candidates are not checked again: only
    the unit and the zero go through the checked constructor."""
    ideal = ideal_from_zeroset(grp(4, 4, 4), ["p1"])
    joins, checked = [], []
    monkeypatch.setattr(sgroup, "join", lambda a, b: joins.append(b) or join(a, b))
    post_init = GroupElement.__post_init__
    monkeypatch.setattr(
        GroupElement, "__post_init__", lambda self: checked.append(self) or post_init(self)
    )
    assert is_maximal_by_criterion(ideal)
    assert len(joins) <= 2**3 * (4 + 1)
    assert len(checked) == 2


@pytest.mark.parametrize("points", [11, 14])
def test_maximality_criterion_refuses_a_large_group_before_enumerating(monkeypatch, points):
    """3^11 + 1 candidates are past ``HOM_LIMIT``; 3^10 + 1 are not.  The
    improper ideal needs no candidate, so it is answered."""
    assert 3**10 + 1 <= HOM_LIMIT < 3**11 + 1
    g = grp(*[1] * points)
    monkeypatch.setattr(sgroup, "box_elements", lambda *args: pytest.fail("enumeration started"))
    with pytest.raises(SizeLimitError, match="maximality candidates"):
        is_maximal_by_criterion(maxspec(g)[0])
    assert not is_maximal_by_criterion(ideal_from_zeroset(g, []))


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


@pytest.mark.parametrize("op", [meet, join, leq, hyperarch_witness], ids=lambda op: op.__name__)
def test_element_kernels_test_their_second_argument(op):
    """In either argument, an element of an equal but distinct group object
    is accepted; one of another group, or a value that is no element, is a
    SchemaError."""
    a = grp(1, 2).element((1, 2))
    twin = grp(1, 2).element((2, 1))
    assert twin.group is not a.group and twin.group == a.group
    assert op(a, twin) == op(a, a.group.element((2, 1)))
    assert op(twin, a) == op(a.group.element((2, 1)), a)
    other = grp(2, 1).element((2, 1))
    with pytest.raises(SchemaError, match="belongs to a different group"):
        op(a, other)
    with pytest.raises(SchemaError, match="belongs to a different group"):
        op(other, a)
    with pytest.raises(SchemaError, match="expected a group element"):
        op(a, 5)
    with pytest.raises(SchemaError, match="expected a group element"):
        op(5, a)


@pytest.mark.parametrize("value", [3, None, (1,), "x"])
def test_a_value_that_is_no_group_element_is_refused(value):
    """Each entry point that takes an element refuses anything else with the
    element guard's SchemaError, not a bare AttributeError."""
    g = grp(1, 2)
    m = maxspec(g)[0]
    h = identity_lhom(g)
    for call in [
        lambda: m.contains(value),
        lambda: residue(m, value),
        lambda: residue_by_ideal_scan(m, value),
        lambda: residues(value),
        lambda: support(value),
        lambda: is_singular(value),
        lambda: is_singular_definitional(value),
        lambda: apply_lhom(h, value),
        lambda: zeroset_from_ideal(g, [value]),
    ]:
        with pytest.raises(SchemaError, match="expected a group element"):
            call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda g, e: residue(5, e), "expected an ideal"),
        (lambda g, e: residue_by_ideal_scan(5, e), "expected an ideal"),
        (lambda g, e: apply_lhom(5, e), "expected an l-homomorphism"),
        (lambda g, e: zeroset_from_ideal(g, 5), "generators must be a sequence"),
    ],
    ids=["residue", "residue_by_ideal_scan", "apply_lhom", "zeroset_from_ideal"],
)
def test_an_argument_beside_the_element_of_the_wrong_kind_is_refused(call, match):
    """The ideal, the l-homomorphism or the generator sequence that comes
    with an element is refused with a SchemaError, not a bare
    AttributeError or TypeError."""
    g = grp(1, 2)
    with pytest.raises(SchemaError, match=match):
        call(g, g.element((1, 0)))


def test_an_element_of_another_group_is_refused():
    """An element of an equal but distinct group object is accepted where an
    element of g is expected; one of another group is refused with the one
    mismatch message."""
    g = grp(1, 2)
    m = maxspec(g)[0]
    h = identity_lhom(g)
    twin = grp(1, 2).element((0, 2))
    assert twin.group is not g and twin.group == g
    assert m.contains(twin) and residue(m, twin) == 0
    assert apply_lhom(h, twin) == g.element((0, 2))
    assert zeroset_from_ideal(g, [twin]) == m
    other = grp(2, 1).element((0, 2))
    for call in [
        lambda: m.contains(other),
        lambda: residue(m, other),
        lambda: apply_lhom(h, other),
        lambda: zeroset_from_ideal(g, [other]),
    ]:
        with pytest.raises(SchemaError, match="belongs to a different group"):
            call()


def test_groups_and_lhoms_compare_and_hash_through_what_they_wrap():
    """A group over an equal but distinct space equals the original, hashes
    the same and so hits the ``duality`` caches; an l-homomorphism compares
    and hashes as its point map.  Neither equals what it wraps."""
    x = new_space(["c1", "c2"], [3, 5])
    g, twin = SpeckerGroup(x), SpeckerGroup(new_space(["c1", "c2"], [3, 5]))
    assert twin.base is not x and twin == g and g == twin and hash(twin) == hash(g)
    assert g != x and x != g and len({g, x}) == 2
    assert g != SpeckerGroup(new_space(["c1", "c2"], [5, 3]))
    assert g != SpeckerGroup(new_space(["c2", "c1"], [3, 5]))
    for cached in (duality.spectrum_space, duality.counit_iso):
        cached(g)
        hits = cached.cache_info().hits
        assert cached(twin) == cached(g)
        assert cached.cache_info().hits == hits + 2
    h, h_twin = identity_lhom(g), identity_lhom(twin)
    assert h.point_map is not h_twin.point_map
    assert h == h_twin and hash(h) == hash(h_twin) and len({h, h_twin}) == 1
    assert h != h.point_map and h.point_map != h and len({h, h.point_map}) == 2
    rows = ((0, 1), (1, 1))
    assert LHom(BmsMorphism(x, x, rows)) == h
    assert LHom(BmsMorphism(x, new_space(["c1", "c2"], [3, 5]), rows)) == h
    assert LHom(BmsMorphism(x, new_space(["d1", "d2"], [3, 5]), rows)) != h


def test_apply_lhom_tests_the_element_once_against_its_domain():
    """An element of the domain's own base passes the inline test, one of an
    equal but distinct group passes the guard, and one of another group, or
    anything else, is refused with the guard's message.  An element over a
    fake group is refused where it is built."""
    x = new_space(["c1", "c2"], [1, 2])
    y = new_space(["d"], [2])
    h = LHom(BmsMorphism(y, x, ((1, 1),)))        # SpeckerGroup(x) -> SpeckerGroup(y)
    for dom in (h.dom, SpeckerGroup(x), SpeckerGroup(new_space(["c1", "c2"], [1, 2]))):
        image = apply_lhom(h, dom.element((4, 7)))
        assert image == h.cod.element((7,)) and image.group.base is y
    other = grp(2, 1, labels=["c1", "c2"]).element((4, 7))
    with pytest.raises(SchemaError) as info:
        apply_lhom(h, other)
    assert str(info.value) == (
        "GroupElement(4, 7) belongs to a different group than SpeckerGroup(unit=(1, 2))"
    )
    with pytest.raises(SchemaError, match="belongs to a different group"):
        apply_lhom(h, h.cod.element((7,)))
    fake = SimpleNamespace(group=SpeckerGroup(x), values=(4, 7))
    with pytest.raises(SchemaError, match="expected a group element, got namespace"):
        apply_lhom(h, fake)
    with pytest.raises(SchemaError, match="expected a Specker group, got namespace"):
        GroupElement(SimpleNamespace(base=x), (4, 7))


def test_hyperarch_witness_refuses_a_negative_second_argument():
    g = grp(2, 2)
    with pytest.raises(SchemaError, match="nonnegative"):
        hyperarch_witness(g.unit(), g.element((0, -1)))


def hyperarch_witness_by_scan(f, g):
    """``hyperarch_witness`` by scanning n = 0, 1, ... until the meets agree:
    the oracle of the closed form, for nonnegative f and g."""
    assert min(f.values + g.values, default=0) >= 0
    n = 0
    while meet(n * f, g) != meet((n + 1) * f, g):
        n += 1
    return n


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


@pytest.mark.parametrize("matrix", [5, [5], None], ids=["int", "int row", "none"])
def test_lhom_given_a_value_that_is_not_iterable_is_schema_error(matrix):
    g = grp(1)
    with pytest.raises(SchemaError, match="matrix must be a sequence of integer rows"):
        validate_lhom(matrix, g, g)


@pytest.mark.parametrize(
    "entry, error, message",
    [
        (True, SchemaError, "matrix entry must be an integer, got True"),
        (1.0, SchemaError, "matrix entry must be an integer, got 1.0"),
        ("1", SchemaError, "matrix entry must be an integer, got '1'"),
        (INT_LIMIT + 1, OverflowLimitError, f"matrix entry {INT_LIMIT + 1} exceeds the 64-bit bound"),
        (-INT_LIMIT - 1, OverflowLimitError, f"matrix entry {-INT_LIMIT - 1} exceeds the 64-bit bound"),
    ],
)
def test_lhom_entries_are_checked_in_every_column(entry, error, message):
    for matrix in ([[entry, 1]], [[1, entry]]):
        with pytest.raises(error) as info:
            validate_lhom(matrix, grp(1, 1), grp(1))
        assert str(info.value) == message


def test_lhom_entries_at_the_bound_are_accepted():
    h = validate_lhom([[INT_LIMIT, 0]], grp(1, 1), grp(INT_LIMIT))
    assert h.rows == ((0, INT_LIMIT),)
    with pytest.raises(SchemaError, match="negative entry"):
        validate_lhom([[INT_LIMIT, -INT_LIMIT]], grp(1, 1), grp(INT_LIMIT))


def _decode_matrix_row_oracle(r, row, ncols):
    """``decode_matrix_row`` as three comprehensions and a generator: every
    entry is checked, then the length, the signs and the positive count."""
    row = [
        v if type(v) is int and -INT_LIMIT <= v <= INT_LIMIT else checked(v, "matrix entry")
        for v in row
    ]
    if len(row) != ncols:
        raise SchemaError(f"row {r} has {len(row)} entries, expected {ncols}")
    positives = [(c, k) for c, k in enumerate(row) if k != 0]
    if any(k < 0 for _, k in positives):
        raise SchemaError(f"row {r} has a negative entry")
    if len(positives) != 1:
        raise SchemaError(f"row {r} has {len(positives)} positive entries, expected exactly 1")
    return positives[0]


def _outcome(decode, *args):
    try:
        return "value", decode(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def test_decode_matrix_row_matches_the_comprehension_oracle():
    """Rows of 0-3 entries against two columns, with every entry drawn from
    the values below, so that rows with two faults at once (a bad entry
    after a negative one, a wrong length with a bad entry, ...) show which
    error comes first."""
    entries = (0, 1, 2, -1, True, "x", 2**63)
    seen = set()
    for n in range(4):
        for row in itertools.product(entries, repeat=n):
            expected = _outcome(_decode_matrix_row_oracle, 3, list(row), 2)
            assert _outcome(sgroup.decode_matrix_row, 3, list(row), 2) == expected, row
            assert _outcome(sgroup.decode_matrix_row, 3, iter(row), 2) == expected, row
            seen.add("value" if expected[0] == "value" else expected[1])
    assert seen >= {
        "value",
        "matrix entry must be an integer, got True",
        "matrix entry must be an integer, got 'x'",
        f"matrix entry {2**63} exceeds the 64-bit bound",
        "row 3 has 0 entries, expected 2",
        "row 3 has 3 entries, expected 2",
        "row 3 has a negative entry",
        "row 3 has 0 positive entries, expected exactly 1",
        "row 3 has 2 positive entries, expected exactly 1",
    }
    for row in (5, None):
        assert _outcome(sgroup.decode_matrix_row, 0, row, 2)[0] is TypeError


def test_lhom_point_map_round_trip():
    dom = grp(2, labels=["v"])
    cod = grp(4, labels=["w"])
    h = validate_lhom([[2]], dom, cod)
    assert h.point_map.mapping == {"w": "v"} and h.point_map.zetas == (2,)


def test_lhom_pair_errors():
    dom2 = grp(1, 2)
    cod = grp(2)
    assert LHom(BmsMorphism(cod.base, dom2.base, ((1, 1),))).matrix == ((0, 1),)
    assert BmsMorphism(cod.base, dom2.base, ((1, 1),)).mapping == {"p1": "p2"}
    # an LHom's rows are those of its dual point map, checked when it is built
    build = partial(BmsMorphism, cod.base, dom2.base)
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
