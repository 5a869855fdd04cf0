"""Fault table: each row seeds one fault into the library and runs the law
checks that should notice it.

A row patches one function, runs the checks over a small universe and
compares the failure count of every check with the count recorded for that
fault.  A check that reports nothing under a fault it is meant to catch
cannot tell a working library from a broken one.
"""

import pytest

from bms import duality, laws, limits, mspace, sgroup
from bms.laws import all_groups, all_spaces

_contains = sgroup.ClosedSetIdeal.contains

# (row id, object patched, attribute, replacement, failure counts in the
# order singular theory / ideal correspondence / hyperarch)
ELEMENT_FAULTS = [
    (
        "hyperarch witness floors",
        sgroup,
        "hyperarch_witness",
        lambda f, g: max((b // a for a, b in zip(f.values, g.values) if a), default=0),
        (0, 0, 102),
    ),
    ("hyperarch witness -1", sgroup, "hyperarch_witness", lambda f, g: -1, (0, 0, 666)),
    # value_bound + 1 = 3 is the first witness past the stored multiples.
    ("hyperarch witness 3", sgroup, "hyperarch_witness", lambda f, g: 3, (0, 0, 757)),
    ("hyperarch witness 7", sgroup, "hyperarch_witness", lambda f, g: 7, (0, 0, 757)),
    (
        "is_singular accepts 2",
        sgroup,
        "is_singular",
        lambda f: all(v in (0, 1, 2) for v in f.values),
        (648, 0, 0),
    ),
    ("meet computes join", sgroup, "meet", sgroup.join, (114, 0, 666)),
    (
        "closed-set ideal membership inverted",
        sgroup.ClosedSetIdeal,
        "contains",
        lambda self, g: not _contains(self, g),
        (0, 69, 0),
    ),
]


def element_failure_counts(groups):
    return (
        len(laws.check_singular_theory(groups)),
        len(laws.check_ideal_correspondence(groups)),
        len(laws.check_hyperarch(groups, value_bound=2)),
    )


@pytest.mark.parametrize(
    "target, name, fault, counts",
    [row[1:] for row in ELEMENT_FAULTS],
    ids=[row[0] for row in ELEMENT_FAULTS],
)
def test_element_fault_is_reported(monkeypatch, target, name, fault, counts):
    monkeypatch.setattr(target, name, fault)
    assert element_failure_counts(all_groups(2, 3)) == counts


def _compose_rows_dropping_second_multiplier(first, second):
    return tuple([(second[j][0], z) for j, z in first])


# (row id, the (object, attribute) bindings patched, replacement, failure
# counts in the order category laws / naturality / limit law / duality
# exchange).  A fault in a function is patched wherever a module imported it.
MORPHISM_FAULTS = [
    (
        "limit takes max for lcm",
        [(limits, "lcm")],
        lambda *values: max(values, default=1),
        (0, 0, 102, 0),
    ),
    (
        "compose_rows drops the second multiplier",
        [(mspace, "compose_rows"), (limits, "compose_rows"), (duality, "compose_rows")],
        _compose_rows_dropping_second_multiplier,
        (698, 204, 54, 0),
    ),
    (
        "is_isomorphism always false",
        [(mspace, "is_isomorphism"), (laws, "is_isomorphism")],
        lambda m: False,
        (22, 0, 0, 91),
    ),
]

_CACHES = (duality.spectrum_space, duality.unit_iso, duality.counit_iso, limits._homs)


def morphism_failure_counts(spaces):
    return (
        len(laws.check_category_laws(spaces, spaces)),
        len(laws.check_naturality(spaces)),
        len(laws.check_limit_law(spaces, spaces)),
        len(laws.check_duality_exchange(spaces)),
    )


@pytest.fixture
def fresh_caches():
    """Empty the caches of ``duality`` and ``limits`` around a row, so that
    it neither reads values built before its fault nor leaves values built
    under it."""
    for cache in _CACHES:
        cache.cache_clear()
    yield
    for cache in _CACHES:
        cache.cache_clear()


@pytest.mark.parametrize(
    "bindings, fault, counts",
    [row[1:] for row in MORPHISM_FAULTS],
    ids=[row[0] for row in MORPHISM_FAULTS],
)
def test_morphism_fault_is_reported(monkeypatch, fresh_caches, bindings, fault, counts):
    for target, name in bindings:
        monkeypatch.setattr(target, name, fault)
    assert morphism_failure_counts(all_spaces(2, 3)) == counts
