import collections
import itertools

import pytest

from bms import duality, sgroup
from bms.duality import (
    counit_iso,
    dual_hom,
    enumerate_lhoms,
    function_group,
    hom_bijection_report,
    spectrum_map,
    spectrum_space,
    triangle_identities_group,
    triangle_identities_space,
    unit_iso,
)
from bms.laws import (
    all_groups,
    all_spaces,
    box_elements,
    check_functoriality,
    check_hom_bijection,
    check_naturality,
    check_stone_restriction,
)
from bms.mspace import (
    BmsMorphism,
    compose,
    enumerate_homs,
    identity,
    identity_rows,
    is_isomorphism,
    new_morphism,
    new_space,
)
from bms.sgroup import (
    LHom,
    SpeckerGroup,
    apply_lhom,
    compose_lhom,
    ideal_from_zeroset,
    identity_lhom,
    validate_lhom,
)

AB = new_space(["a", "b"], [1, 2])
EMPTY = new_space([], [])
SINGLE = new_space(["p"], [1])


def test_function_group_examples():
    assert function_group(AB).unit().values == (1, 2)
    assert function_group(EMPTY).base == EMPTY
    assert function_group(SINGLE).unit().values == (1,)


def test_dual_hom_examples():
    assert dual_hom(identity(AB)) == identity_lhom(function_group(AB))
    x4 = new_space(["x"], [4])
    v2 = new_space(["v"], [2])
    assert dual_hom(new_morphism(x4, v2, {"x": "v"})).matrix == ((2,),)
    sym = new_space(["a", "b"], [2, 2])
    swap = new_morphism(sym, sym, {"a": "b", "b": "a"})
    assert dual_hom(swap).matrix == ((0, 1), (1, 0))


def test_spectrum_space_examples():
    spec = spectrum_space(function_group(AB))
    assert spec.labels == ("m_a", "m_b") and spec.mults == (1, 2)
    assert spectrum_space(function_group(EMPTY)) == EMPTY
    assert spectrum_space(SpeckerGroup(new_space(["q"], [3]))).mults == (3,)


def test_spectrum_map_examples():
    grp = function_group(AB)
    assert spectrum_map(identity_lhom(grp)) == identity(spectrum_space(grp))
    dom = SpeckerGroup(new_space(["v"], [2]))
    cod = SpeckerGroup(new_space(["w"], [4]))
    h = validate_lhom([[2]], dom, cod)
    gamma = spectrum_map(h)
    assert gamma.mapping == {"m_w": "m_v"} and gamma.zetas == (2,)


def test_spectrum_map_matches_original_up_to_unit_relabel():
    x = new_space(["x1", "x2"], [2, 4])
    y = new_space(["y"], [2])
    for gamma in enumerate_homs(x, y):
        lifted = spectrum_map(dual_hom(gamma))
        square = compose(gamma, unit_iso(y))
        assert compose(unit_iso(x), lifted) == square
        assert dual_hom(gamma).point_map == gamma


def test_unit_iso_preserves_multiplicities():
    eta = unit_iso(AB)
    assert is_isomorphism(eta)
    assert eta.cod.mults == AB.mults
    assert unit_iso(EMPTY) == identity(EMPTY)


def test_counit_iso_is_permutation_with_unit_zetas():
    g = function_group(new_space(["a", "b", "c"], [1, 2, 3]))
    eps = counit_iso(g)
    n = len(g.base)
    assert eps.matrix == tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    assert compose_lhom(eps, dual_hom(unit_iso(g.base))) == identity_lhom(g)


def test_unit_iso_is_the_identity_rows_onto_the_spectrum():
    for x in all_spaces(3, 3):
        eta = unit_iso(x)
        assert type(eta) is BmsMorphism
        assert (eta.dom, eta.cod) == (x, spectrum_space(function_group(x)))
        assert eta.rows == identity_rows(len(x)) and is_isomorphism(eta)


def test_counit_iso_is_inverse_to_the_dual_of_the_unit():
    for g in all_groups(3, 3):
        eps = counit_iso(g)
        assert type(eps) is LHom
        assert (eps.dom, eps.cod) == (g, function_group(spectrum_space(g)))
        s_eta = dual_hom(unit_iso(g.base))
        assert compose_lhom(eps, s_eta) == identity_lhom(g)
        assert compose_lhom(s_eta, eps) == identity_lhom(eps.cod)


@pytest.mark.parametrize("space", [EMPTY, SINGLE, AB, new_space(["x"], [4])])
def test_triangle_identities(space):
    assert triangle_identities_space(space)
    assert triangle_identities_group(function_group(space))


def test_hom_bijection_examples():
    x = new_space(["x"], [2])
    y = new_space(["y1", "y2"], [1, 2])
    report = hom_bijection_report(x, y)
    assert report == {"homs_bms": 2, "homs_uslg": 2, "bijection": True, "failures": []}
    report = hom_bijection_report(EMPTY, EMPTY)
    assert report["homs_bms"] == 1 and report["homs_uslg"] == 1 and report["bijection"]
    report = hom_bijection_report(y, x)
    assert report["homs_bms"] == 0 and report["homs_uslg"] == 0 and report["bijection"]


def test_a_matrix_enumerated_twice_is_a_named_failure(monkeypatch):
    enumerate_all = duality.enumerate_lhoms

    def repeating_the_first(dom, cod):
        lhoms = enumerate_all(dom, cod)
        return lhoms[:1] + lhoms

    monkeypatch.setattr(duality, "enumerate_lhoms", repeating_the_first)
    spaces = all_spaces(1, 2)
    failures = check_hom_bijection(spaces)
    nonempty = [(x, y) for x, y in itertools.product(spaces, repeat=2) if enumerate_homs(x, y)]
    assert failures == [
        f"hom bijection fails for {x!r} -> {y!r}: ['1 matrices are enumerated more than once']"
        for x, y in nonempty
    ]
    assert failures[0] == (
        "hom bijection fails for MultiSpace() -> MultiSpace(): "
        "['1 matrices are enumerated more than once']"
    )


def _two_set_hom_bijection_report(x, y):
    """Oracle: the report built from a set of each list, as before the lists
    were compared first."""
    homs = duality.enumerate_homs(x, y)
    images = [dual_hom(g) for g in homs]
    lhoms = duality.enumerate_lhoms(function_group(y), function_group(x))
    image_set, lhom_set = set(images), set(lhoms)
    failures = []
    if len(image_set) != len(images):
        failures.append("duality is not injective on point maps")
    if len(lhom_set) != len(lhoms):
        repeated = sum(1 for n in collections.Counter(lhoms).values() if n > 1)
        failures.append(f"{repeated} matrices are enumerated more than once")
    if image_set != lhom_set:
        missing = lhom_set - image_set
        if missing:
            failures.append(f"{len(missing)} matrices are not images of point maps")
        extra = image_set - lhom_set
        if extra:
            failures.append(f"{len(extra)} images fall outside the enumerated matrices")
    return {
        "homs_bms": len(homs),
        "homs_uslg": len(lhoms),
        "bijection": not failures and len(homs) == len(lhoms),
        "failures": failures,
    }


_enumerate_homs = duality.enumerate_homs
_enumerate_lhoms = duality.enumerate_lhoms


def _repeating_the_first(enumerate_all):
    return lambda dom, cod: enumerate_all(dom, cod)[:1] + enumerate_all(dom, cod)


# (id, the patched (name, replacement) pairs, the pairs of all_spaces(2, 3)
# whose report has failures).  Of its 169 pairs, 105 have a nonempty hom-set
# and 40 more than one morphism, whose order reversal changes the list but
# neither set.  Repeating the first element of both lists keeps them equal;
# repeating it in place of the last keeps the length of a longer list.
_LIST_EDITS = [
    ("unpatched", [], 0),
    ("a matrix repeated", [("enumerate_lhoms", _repeating_the_first(_enumerate_lhoms))], 105),
    ("a matrix dropped", [("enumerate_lhoms", lambda d, c: _enumerate_lhoms(d, c)[1:])], 105),
    (
        "the last matrix replaced by the first",
        [("enumerate_lhoms", lambda d, c: _repeating_the_first(_enumerate_lhoms)(d, c)[:-1])],
        40,
    ),
    ("list reversed", [("enumerate_lhoms", lambda d, c: _enumerate_lhoms(d, c)[::-1])], 0),
    (
        "both repeat",
        [
            ("enumerate_homs", _repeating_the_first(_enumerate_homs)),
            ("enumerate_lhoms", _repeating_the_first(_enumerate_lhoms)),
        ],
        105,
    ),
]


@pytest.mark.parametrize(
    "patches, failing", [row[1:] for row in _LIST_EDITS], ids=[row[0] for row in _LIST_EDITS]
)
def test_hom_bijection_report_matches_the_two_set_oracle(monkeypatch, patches, failing):
    for name, replacement in patches:
        monkeypatch.setattr(duality, name, replacement)
    reports = [hom_bijection_report(x, y) for x, y in itertools.product(all_spaces(2, 3), repeat=2)]
    assert reports == [
        _two_set_hom_bijection_report(x, y) for x, y in itertools.product(all_spaces(2, 3), repeat=2)
    ]
    assert sum(bool(r["failures"]) for r in reports) == failing


def test_equal_lists_with_a_repeat_report_both_repeats(monkeypatch):
    monkeypatch.setattr(duality, "enumerate_homs", _repeating_the_first(_enumerate_homs))
    monkeypatch.setattr(duality, "enumerate_lhoms", _repeating_the_first(_enumerate_lhoms))
    assert hom_bijection_report(AB, AB)["failures"] == [
        "duality is not injective on point maps",
        "1 matrices are enumerated more than once",
    ]


def test_enumerate_lhoms_against_direct_construction():
    # independent oracle: build all row choices by hand and validate each
    dom = function_group(new_space(["y1", "y2"], [1, 2]))
    cod = function_group(new_space(["x"], [2]))
    found = enumerate_lhoms(dom, cod)
    by_hand = []
    for col, k in [(0, 2), (1, 1)]:
        row = [0, 0]
        row[col] = k
        by_hand.append(validate_lhom([row], dom, cod))
    assert found == by_hand


def _lhoms_matrix_by_matrix(dom, cod):
    """Oracle: every dense matrix of the candidate-row product, each run
    through ``validate_lhom`` as a whole, in product order."""
    ncols = len(dom.base)
    factors = []
    for uw in cod.base.mults:
        factor = []
        for c, uv in enumerate(dom.base.mults):
            if uw % uv == 0:
                row = [0] * ncols
                row[c] = uw // uv
                factor.append(row)
        factors.append(factor)
    return [validate_lhom(matrix, dom, cod) for matrix in itertools.product(*factors)]


def test_enumerate_lhoms_matches_the_matrix_by_matrix_oracle():
    for x, y in itertools.product(all_spaces(2, 4), repeat=2):
        dom, cod = function_group(y), function_group(x)
        assert enumerate_lhoms(dom, cod) == _lhoms_matrix_by_matrix(dom, cod), (x, y)


def test_enumerate_lhoms_decodes_each_candidate_row_once(monkeypatch):
    # three rows of multiplicity 2 over a domain of units (1, 2): two
    # candidates per row, 2**3 matrices
    x = new_space(["x1", "x2", "x3"], [2, 2, 2])
    y = new_space(["y1", "y2"], [1, 2])
    calls = []

    def counting_decoder(r, row, ncols):
        calls.append(r)
        return sgroup.decode_matrix_row(r, row, ncols)

    monkeypatch.setattr(duality, "decode_matrix_row", counting_decoder)
    lhoms = enumerate_lhoms(function_group(y), function_group(x))
    assert len(lhoms) == 8
    assert len(calls) == 2 + 2 + 2  # not |Hom| * |X| = 24


def test_point_map_inverts_dual_hom_everywhere():
    spaces = all_spaces(2, 3)
    for x, y in itertools.product(spaces, repeat=2):
        for psi in enumerate_lhoms(function_group(y), function_group(x)):
            assert dual_hom(psi.point_map) == psi


def test_dual_hom_by_definition():
    # reads labels and element values only, never rows: psi(f) is
    # zeta * (f o gamma), the ideal at gamma(x) pulls back to the ideal at x,
    # and the spectrum map sends the ideal at x to the ideal at gamma(x)
    spaces = all_spaces(2, 3)
    for x, y in itertools.product(spaces, repeat=2):
        gx, gy = function_group(x), function_group(y)
        for gamma in enumerate_homs(x, y):
            psi = dual_hom(gamma)
            assert psi.point_map is gamma
            ideals = [
                (p, ideal_from_zeroset(gx, [p]), ideal_from_zeroset(gy, [gamma(p)]))
                for p in x.labels
            ]
            for f in box_elements(function_group(gamma.cod), -2, 2):
                image = apply_lhom(psi, f)
                for p, at_p, at_image in ideals:
                    assert image.value(p) == gamma.zeta(p) * f.value(gamma(p))
                    assert at_image.contains(f) == at_p.contains(image)
            spec = spectrum_map(psi)
            for p in x.labels:
                assert spec("m_" + p) == "m_" + gamma(p)


def test_functoriality_small_universe():
    assert check_functoriality(all_spaces(2, 3)) == []


def test_naturality_small_universe():
    assert check_naturality(all_spaces(2, 3)) == []


def test_stone_restriction():
    assert check_stone_restriction(all_spaces(3, 4)) == []
