import itertools

import pytest

from bms import laws
from bms.laws import all_spaces, representative_spaces
from bms.mspace import compose, enumerate_homs, hom_factors, identity


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


@pytest.mark.parametrize("bounds", [(3, 4), (4, 2)])
def test_category_laws_hold(bounds):
    assert laws.check_category_laws(all_spaces(*bounds), representative_spaces()) == []


def test_category_laws_report_a_wrong_isomorphism_test(monkeypatch):
    monkeypatch.setattr(laws, "is_isomorphism", lambda f: False)
    failures = laws.check_category_laws(all_spaces(2, 2), [])
    assert failures
    assert all("isomorphism characterizations disagree" in msg for msg in failures)
