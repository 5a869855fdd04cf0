import collections
import itertools

import pytest

from bms import duality, laws, limits, mspace, sgroup
from bms.errors import SchemaError
from bms.laws import all_spaces, representative_spaces
from bms.mspace import BmsMorphism, compose, enumerate_homs, hom_factors, identity, new_space


def test_all_spaces_above_four_points():
    spaces = all_spaces(5, 1)
    assert len(spaces) == 6
    assert spaces[-1].labels == ("p1", "p2", "p3", "p4", "p5")


def test_all_spaces_up_to_four_points_keep_their_labels_and_order():
    labels = ("p1", "p2", "p3", "p4")
    expected = [
        new_space(labels[:n], m)
        for n in range(5)
        for m in itertools.product(range(1, 3), repeat=n)
    ]
    assert all_spaces(4, 2) == expected


@pytest.mark.parametrize("bounds", [(3, 4), (4, 1)])
def test_inverse_exists_matches_full_scan(bounds):
    """The point test against the full scan: f has a two-sided
    inverse iff some g in Hom(Y, X) composes with it to both identities."""
    checked = invertible = 0
    for x, y in itertools.product(all_spaces(*bounds), repeat=2):
        id_x, id_y = identity(x), identity(y)
        back = enumerate_homs(y, x)
        factors = hom_factors(y.mults, x.mults)
        for f in enumerate_homs(x, y):
            scan = any(compose(f, g) == id_x and compose(g, f) == id_y for g in back)
            assert laws._inverse_exists(f.rows, factors) == scan, f
            checked += 1
            invertible += scan
    assert checked == {(3, 4): 24_477, (4, 1): 499}[bounds]
    assert invertible > 0


def _inverse_exists_oracle(rows, back):
    """``laws._inverse_exists`` as nested ``all``/``any`` generators."""
    preimages = [[] for _ in back]
    for x, (t, w) in enumerate(rows):
        preimages[t].append((x, w))
    return all(
        any(
            (rows[i][0], z * rows[i][1]) == (y, 1)
            and all((i, w * z) == (x, 1) for x, w in preimages[y])
            for i, z in candidates
        )
        for y, candidates in enumerate(back)
    )


def _is_isomorphism_oracle(m):
    """``mspace.is_isomorphism`` as a set comprehension and a generator."""
    if len(m.dom) != len(m.cod) or len({j for j, _ in m.rows}) != len(m.rows):
        return False
    return all(z == 1 for _, z in m.rows)


def _morphism(dom_mults, cod_mults, rows):
    dom = new_space([f"x{i}" for i in range(len(dom_mults))], dom_mults)
    cod = new_space([f"y{j}" for j in range(len(cod_mults))], cod_mults)
    return BmsMorphism(dom, cod, rows)


# Beyond two points: rows that fail to be an isomorphism in one way each,
# and two that are one.
NOT_ISOMORPHISMS = [
    _morphism((2, 2, 2), (2, 2, 2), ((0, 1), (0, 1), (2, 1))),  # two rows hit y0
    _morphism((2, 2, 2), (1, 1, 1), ((1, 2), (0, 2), (2, 2))),  # bijective, multiplier 2
    _morphism((2, 2, 4), (2, 2, 2), ((1, 1), (0, 1), (2, 2))),  # one multiplier 2
    _morphism((2, 2, 2), (2, 2, 2, 2), ((3, 1), (1, 1), (0, 1))),  # injective, misses y2
    _morphism((1, 1, 1, 1), (1, 1, 1), ((0, 1), (1, 1), (2, 1), (2, 1))),  # onto, not injective
]
ISOMORPHISMS = [
    _morphism((1, 2, 1, 2), (2, 1, 2, 1), ((1, 1), (2, 1), (3, 1), (0, 1))),
    _morphism((3, 3, 3), (3, 3, 3), ((2, 1), (0, 1), (1, 1))),
]


def test_the_isomorphism_tests_match_their_generator_oracles():
    morphisms = [
        f for x, y in itertools.product(all_spaces(2, 3), repeat=2) for f in enumerate_homs(x, y)
    ]
    for f in morphisms + NOT_ISOMORPHISMS + ISOMORPHISMS:
        back = hom_factors(f.cod.mults, f.dom.mults)
        verdict = _is_isomorphism_oracle(f)
        assert mspace.is_isomorphism(f) == verdict, f
        assert laws._inverse_exists(f.rows, back) == _inverse_exists_oracle(f.rows, back) == verdict, f
    assert [_is_isomorphism_oracle(f) for f in NOT_ISOMORPHISMS + ISOMORPHISMS] == [False] * 5 + [True] * 2


@pytest.mark.parametrize("bounds", [(3, 4), (4, 2)])
def test_category_laws_hold(bounds):
    assert laws.check_category_laws(all_spaces(*bounds), representative_spaces()) == []


def test_category_laws_report_a_wrong_isomorphism_test(monkeypatch):
    monkeypatch.setattr(laws, "is_isomorphism", lambda f: False)
    failures = laws.check_category_laws(all_spaces(2, 2), [])
    assert failures
    assert all("isomorphism characterizations disagree" in msg for msg in failures)


def test_naturality_builds_one_spectrum_map_per_morphism(monkeypatch):
    spaces = all_spaces(2, 3)
    calls = 0
    spectrum_map = duality.spectrum_map

    def counted(psi):
        nonlocal calls
        calls += 1
        return spectrum_map(psi)

    monkeypatch.setattr(duality, "spectrum_map", counted)
    assert laws.check_naturality(spaces) == []
    homs = sum(len(enumerate_homs(x, y)) for x, y in itertools.product(spaces, repeat=2))
    assert calls == homs > 0


def test_duality_exchange_builds_one_limit_per_pair(monkeypatch):
    """``group_coproduct`` builds the one product of each pair; the check
    builds no other limit."""
    calls = 0
    limit = limits.limit

    def counted(diagram):
        nonlocal calls
        calls += 1
        return limit(diagram)

    monkeypatch.setattr(limits, "limit", counted)
    spaces = all_spaces(2, 3)
    assert laws.check_duality_exchange(spaces) == []
    assert calls == len(spaces) * (len(spaces) + 1) // 2 == 91


def test_limit_law_counts_mediators_without_a_counter(monkeypatch):
    built = 0

    class CountedCounter(collections.Counter):
        def __init__(self, *args, **kwargs):
            nonlocal built
            built += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(collections, "Counter", CountedCounter)
    monkeypatch.setattr(limits, "Counter", CountedCounter, raising=False)
    spaces = all_spaces(2, 3)
    assert laws.check_limit_law(spaces, spaces) == []
    assert built == 0


def _three_point_group():
    return duality.function_group(new_space(["p1", "p2", "p3"], [1, 2, 3]))


def test_hyperarch_builds_each_multiple_once(monkeypatch):
    """Each f of the box [0, b]^3 is scaled by k = 0, ..., b + 1 and by
    nothing else: (b + 2) * (b + 1)^3 scalar products in all."""
    products = 0
    scale = sgroup.GroupElement.__mul__

    def counted(f, k):
        nonlocal products
        products += 1
        return scale(f, k)

    monkeypatch.setattr(sgroup.GroupElement, "__mul__", counted)
    monkeypatch.setattr(sgroup.GroupElement, "__rmul__", counted)
    bound = 2
    assert laws.check_hyperarch([_three_point_group()], value_bound=bound) == []
    assert products == (bound + 2) * (bound + 1) ** 3 == 108


def test_singular_theory_computes_each_support_once(monkeypatch):
    """One support per singular, then one for each meet and each join."""
    calls = 0
    support = sgroup.support

    def counted(s):
        nonlocal calls
        calls += 1
        return support(s)

    monkeypatch.setattr(sgroup, "support", counted)
    assert laws.check_singular_theory([_three_point_group()]) == []
    assert calls <= 2**3 + 2 * 4**3


def test_stone_restriction_builds_the_singulars_once_per_space(monkeypatch):
    """The singular elements of each G(Y) come from ``box_elements`` once per
    space, so the only checked element of a pair is the unit of G(X)."""
    built = 0
    post_init = sgroup.GroupElement.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(sgroup.GroupElement, "__post_init__", counted)
    spaces = all_spaces(3, 2)
    ones = [x for x in spaces if set(x.mults) <= {1}]
    assert laws.check_stone_restriction(spaces) == []
    assert 0 < built <= len(ones) ** 2 == 16


@pytest.mark.parametrize("bounds", [(True, 2), (2, True), (False, 3), (2.0, 3), (2, "3"), (None, 2)])
def test_run_laws_refuses_a_bound_that_is_not_an_int(monkeypatch, bounds):
    """The bounds are refused before any space is enumerated."""
    def reached(*args):
        raise AssertionError("the universe was enumerated")

    monkeypatch.setattr(laws, "all_spaces", reached)
    with pytest.raises(SchemaError, match="must be an integer"):
        laws.run_laws(*bounds)


@pytest.mark.parametrize("seed", [True, 2.5, "abc", None])
def test_run_laws_refuses_a_seed_that_is_not_an_int(monkeypatch, seed):
    """The seed is refused with the bounds, before any space is enumerated."""
    def reached(*args):
        raise AssertionError("the universe was enumerated")

    monkeypatch.setattr(laws, "all_spaces", reached)
    with pytest.raises(SchemaError, match="seed must be an integer"):
        laws.run_laws(1, 1, seed)


def test_run_laws_reaches_each_check_through_the_module(monkeypatch):
    """Every ``LAWS`` entry calls ``laws.check_<name>`` as it is at call
    time, so a check replaced on the module (as the benchmark's tracer and
    the fault table replace them) is what ``run_laws`` reports under its
    name, and the report keeps the table's names and order."""
    names = [name for name, _ in laws.LAWS]
    for name in names:
        monkeypatch.setattr(laws, f"check_{name}", lambda *args, name=name, **kwargs: [name])
    checks = laws.run_laws(1, 1)["checks"]
    assert list(checks) == names
    assert {name: entry["failures"] for name, entry in checks.items()} == {name: [name] for name in names}
