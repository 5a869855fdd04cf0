"""Fault table: each row seeds one fault into the library and runs the law
checks that should notice it.

A row patches one function, runs the checks over a small universe and
compares the failure count of every check with the count recorded for that
fault.  A check that reports nothing under a fault it is meant to catch
cannot tell a working library from a broken one.
"""

import itertools
import random

import pytest

from bms import duality, laws, limits, mspace, mv, sgroup
from bms.laws import all_groups, all_spaces

_contains = sgroup.ClosedSetIdeal.contains
_mul = sgroup.GroupElement.__mul__

# (row id, the (object, attribute) bindings patched, replacement, failure
# counts in the order singular theory / ideal correspondence / hyperarch),
# in the binding format of ``MORPHISM_FAULTS``.
ELEMENT_FAULTS = [
    (
        "hyperarch witness floors",
        [(sgroup, "hyperarch_witness")],
        lambda f, g: max((b // a for a, b in zip(f.values, g.values) if a), default=0),
        (0, 0, 102),
    ),
    ("hyperarch witness -1", [(sgroup, "hyperarch_witness")], lambda f, g: -1, (0, 0, 666)),
    # value_bound + 1 = 3 is the first witness past the stored multiples.
    ("hyperarch witness 3", [(sgroup, "hyperarch_witness")], lambda f, g: 3, (0, 0, 757)),
    ("hyperarch witness 7", [(sgroup, "hyperarch_witness")], lambda f, g: 7, (0, 0, 757)),
    (
        "is_singular accepts 2",
        [(sgroup, "is_singular")],
        lambda f: all(v in (0, 1, 2) for v in f.values),
        (648, 0, 0),
    ),
    ("meet computes join", [(sgroup, "meet")], sgroup.join, (114, 0, 666)),
    (
        "closed-set ideal membership inverted",
        [(sgroup.ClosedSetIdeal, "contains")],
        lambda self, g: not _contains(self, g),
        (0, 69, 0),
    ),
    # Of the three checks, only the maximality oracle takes an absolute value.
    ("abs returns its argument", [(sgroup.GroupElement, "__abs__")], lambda self: self, (0, 21, 0)),
    ("join computes meet", [(sgroup, "join")], sgroup.meet, (114, 9, 0)),
    # k*f as a sum of k - 1 copies of f, so 0*f and 1*f are both 0.  A
    # scalar product is patched on both sides of the operator.
    (
        "k*f computed as (k - 1)*f",
        [(sgroup.GroupElement, "__mul__"), (sgroup.GroupElement, "__rmul__")],
        lambda self, k: _mul(self, max(k - 1, 0)),
        (0, 15, 516),
    ),
]


# The ``laws.LAWS`` entries of the three element counts, in their order.
ELEMENT_CHECKS = ("singular_theory", "ideal_correspondence", "hyperarch")


def element_failure_counts(groups):
    return (
        len(laws.check_singular_theory(groups)),
        len(laws.check_ideal_correspondence(groups)),
        len(laws.check_hyperarch(groups, value_bound=2)),
    )


@pytest.mark.parametrize(
    "bindings, fault, counts",
    [row[1:] for row in ELEMENT_FAULTS],
    ids=[row[0] for row in ELEMENT_FAULTS],
)
def test_element_fault_is_reported(monkeypatch, bindings, fault, counts):
    for target, name in bindings:
        monkeypatch.setattr(target, name, fault)
    assert element_failure_counts(all_groups(2, 3)) == counts


def _compose_rows_dropping_second_multiplier(first, second):
    return tuple([(second[j][0], z) for j, z in first])


def _compose_rows_with_row_0s_multiplier(first, second):
    return tuple([(second[j][0], first[0][1] * second[j][1]) for j, _ in first])


_coproduct = limits.coproduct
_group_product = limits.group_product
_group_coproduct = limits.group_coproduct


def _coproduct_with_a_junk_point(x, y):
    cc = _coproduct(x, y)
    apex = mspace.new_space(cc.apex.labels + ("junk",), cc.apex.mults + (1,))
    return limits.Cocone(apex, tuple(mspace.BmsMorphism(i.dom, apex, i.rows) for i in cc.injections))


def _apply_lhom_dropping_the_multiplier(h, f):
    return sgroup.GroupElement(h.cod, [f.values[c] for c, _ in h.rows])


_enumerate_lhoms = duality.enumerate_lhoms


def _enumerate_lhoms_dropping_each_rows_last_candidate(dom, cod):
    """The matrices whose every row avoids its last candidate column."""
    last = [
        max((c for c, uv in enumerate(dom.base.mults) if uw % uv == 0), default=None)
        for uw in cod.base.mults
    ]
    return [h for h in _enumerate_lhoms(dom, cod) if all(c != l for (c, _), l in zip(h.rows, last))]


def _group_product_swapping_projections(s, t):
    p = _group_product(s, t)
    return limits.Cone(p.apex, p.legs[::-1])


def _group_coproduct_swapping_injections(s, t):
    c = _group_coproduct(s, t)
    return limits.Cocone(c.apex, c.injections[::-1])


# (row id, the (object, attribute) bindings patched, replacement, failure
# counts in the order category laws / naturality / limit law / duality
# exchange / functoriality / hom bijection).  A fault in a function is
# patched wherever a module imported it.
MORPHISM_FAULTS = [
    (
        "limit takes max for lcm",
        [(limits, "lcm")],
        lambda *values: max(values, default=1),
        (0, 0, 51, 0, 0, 0),
    ),
    (
        "compose_rows drops the second multiplier",
        [(mspace, "compose_rows"), (limits, "compose_rows")],
        _compose_rows_dropping_second_multiplier,
        (698, 102, 54, 0, 596, 0),
    ),
    # Not row by row: a one-point domain cannot see it.
    (
        "compose_rows reuses the multiplier of row 0",
        [(mspace, "compose_rows"), (limits, "compose_rows")],
        _compose_rows_with_row_0s_multiplier,
        (5298, 70, 0, 0, 698, 0),
    ),
    (
        "is_isomorphism always false",
        [(mspace, "is_isomorphism"), (laws, "is_isomorphism")],
        lambda m: False,
        (22, 0, 0, 0, 0, 0),
    ),
    (
        "coproduct adds a junk point",
        [(limits, "coproduct")],
        _coproduct_with_a_junk_point,
        (0, 0, 0, 91, 0, 0),
    ),
    (
        "apply_lhom drops the multiplier",
        [(sgroup, "apply_lhom")],
        _apply_lhom_dropping_the_multiplier,
        (0, 0, 0, 0, 1162, 0),
    ),
    (
        "group_product swaps its projections",
        [(limits, "group_product")],
        _group_product_swapping_projections,
        (0, 0, 0, 78, 0, 0),
    ),
    (
        "group_coproduct swaps its injections",
        [(limits, "group_coproduct")],
        _group_coproduct_swapping_injections,
        (0, 0, 0, 78, 0, 0),
    ),
    # On the matrix side: the point maps are all there, their duals are not.
    (
        "enumerate_lhoms drops the last candidate of every row",
        [(duality, "enumerate_lhoms")],
        _enumerate_lhoms_dropping_each_rows_last_candidate,
        (0, 0, 0, 0, 0, 92),
    ),
]

_CACHES = (duality.spectrum_space, duality.unit_iso, duality.counit_iso, limits._homs)


def morphism_failure_counts(spaces):
    return (
        len(laws.check_category_laws(spaces, spaces)),
        len(laws.check_naturality(spaces)),
        len(laws.check_limit_law(spaces, spaces)),
        len(laws.check_duality_exchange(spaces)),
        len(laws.check_functoriality(spaces)),
        len(laws.check_hom_bijection(spaces)),
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


# The ``laws.LAWS`` entries of the six morphism counts, in their order, and
# the entry of the Γ counts.
MORPHISM_CHECKS = (
    "category_laws", "naturality", "limit_law", "duality_exchange", "functoriality", "hom_bijection"
)
GAMMA_CHECK = "gamma_laws"


def test_the_fault_columns_are_law_table_entries():
    assert set(MORPHISM_CHECKS) | {GAMMA_CHECK} <= {name for name, _ in laws.LAWS}


@pytest.mark.parametrize(
    "bindings, fault, counts",
    [row[1:] for row in MORPHISM_FAULTS],
    ids=[row[0] for row in MORPHISM_FAULTS],
)
def test_run_laws_reports_a_morphism_fault_without_raising(
    monkeypatch, fresh_caches, bindings, fault, counts
):
    """Each check that counts failures under a row also reports some in
    ``run_laws`` at its default bounds, and no row makes it raise."""
    for target, name in bindings:
        monkeypatch.setattr(target, name, fault)
    report = laws.run_laws(2, 3)
    assert not report["ok"]
    for check, count in zip(MORPHISM_CHECKS, counts):
        assert bool(report["checks"][check]["failures"]) == bool(count), check


def counit_square_failures(spaces):
    """The counit square, kept as an oracle for ``laws.check_naturality``:
    the repr of each morphism gamma at which the dual of gamma followed by
    the counit at G(X) differs from the counit at G(Y) followed by the dual
    of gamma's spectrum map."""
    failures = []
    for x, y in itertools.product(spaces, repeat=2):
        homs = mspace.enumerate_homs(x, y)
        if not homs:
            continue
        eps_x = duality.counit_iso(duality.function_group(x))
        eps_y = duality.counit_iso(duality.function_group(y))
        for gamma in homs:
            psi = duality.dual_hom(gamma)
            spec = duality.spectrum_map(psi)
            if sgroup.compose_lhom(psi, eps_x) != sgroup.compose_lhom(eps_y, duality.dual_hom(spec)):
                failures.append(repr(gamma))
    return failures


@pytest.mark.parametrize(
    "bindings, fault",
    [row[1:3] for row in MORPHISM_FAULTS],
    ids=[row[0] for row in MORPHISM_FAULTS],
)
def test_the_counit_square_fails_where_the_unit_square_does(monkeypatch, fresh_caches, bindings, fault):
    """Under every morphism row, the counit square fails on exactly the
    morphisms whose unit square ``check_naturality`` reports, so checking it
    too finds nothing more."""
    for target, name in bindings:
        monkeypatch.setattr(target, name, fault)
    spaces = all_spaces(2, 3)
    prefix = "unit naturality fails for "
    unit = [f[len(prefix):] for f in laws.check_naturality(spaces) if f.startswith(prefix)]
    assert counit_square_failures(spaces) == unit


def test_projection_divisibility_fails_only_where_the_lcm_law_does(monkeypatch, fresh_caches):
    """Under a wrong lcm, each product point whose multiplicity one of its
    components does not divide is a point whose multiplicity law
    ``check_limit_law`` reports."""
    bindings, fault = next(row[1:3] for row in MORPHISM_FAULTS if row[0] == "limit takes max for lcm")
    for target, name in bindings:
        monkeypatch.setattr(target, name, fault)
    spaces = all_spaces(2, 3)
    undivided = []
    for x, y in itertools.combinations_with_replacement(spaces, 2):
        cone = limits.product(x, y)
        rows = [leg.rows for leg in cone.legs]
        for label, m, (i, _), (j, _) in zip(cone.apex.labels, cone.apex.mults, *rows):
            if m % x.mults[i] or m % y.mults[j]:
                undivided.append(f"multiplicity law fails at {label} of {x!r}x{y!r}")
    assert undivided
    assert set(undivided) <= set(laws.check_limit_law(spaces, spaces))


_residue = duality.residue

# (row id, object patched, attribute, replacement, failure counts of the
# ``laws.LAWS`` entries that report it in ``run_laws(2, 3)``).  A residue one
# too large gives each of the 12 nonempty spaces of all_spaces(2, 3) a
# spectrum with other multiplicities, and a unit that cannot be built.
SPECTRUM_FAULT = (
    "spectrum residue is one too large",
    duality,
    "residue",
    lambda m, f: _residue(m, f) + 1,
    {"round_trip": 12},
)


def test_run_laws_reports_a_wrong_spectrum_without_raising(monkeypatch, fresh_caches):
    _, target, name, fault, counts = SPECTRUM_FAULT
    monkeypatch.setattr(target, name, fault)
    report = laws.run_laws(2, 3)
    assert {c: len(e["failures"]) for c, e in report["checks"].items() if e["failures"]} == counts


def _cyclic_chain_tables(n):
    """The tables of the cyclic group of order n + 1 in place of the chain."""
    r = range(n + 1)
    return [[(i + j) % (n + 1) for j in r] for i in r], [n - i for i in r]


# (row id, object patched, attribute, replacement, failure count of the Γ
# laws over all_groups(2, 3)).  ``mv._chain_tables`` builds every table that
# ``verify_mv_axioms`` checks, so a fault in a chain table is patched there;
# a cyclic table breaks absorption by neg 0 on each of the 12 nonempty units,
# which fail their axioms and disagree with the exhaustive oracle.
GAMMA_FAULTS = [
    ("chain tables are cyclic", mv, "_chain_tables", _cyclic_chain_tables, 24),
    # max(i, j) != min(i + j, n) iff 1 <= i, j < n: 0 + 1 + 4 over units 1 to 3.
    ("mv_plus computes the join", mv, "mv_plus", sgroup.join, 5),
    # n - i != n iff i > 0: 1 + 2 + 3 over units 1 to 3.
    ("mv_neg returns the unit", mv, "mv_neg", lambda x: x.group.unit(), 6),
]


@pytest.mark.parametrize(
    "target, name, fault, count",
    [row[1:] for row in GAMMA_FAULTS],
    ids=[row[0] for row in GAMMA_FAULTS],
)
def test_gamma_fault_is_reported(monkeypatch, target, name, fault, count):
    monkeypatch.setattr(target, name, fault)
    assert len(laws.check_gamma_laws(all_groups(2, 3))) == count


@pytest.mark.parametrize(
    "target, name, fault, count",
    [row[1:] for row in GAMMA_FAULTS],
    ids=[row[0] for row in GAMMA_FAULTS],
)
def test_run_laws_reports_a_gamma_fault_without_raising(monkeypatch, target, name, fault, count):
    """Only ``gamma_laws`` reports the row in ``run_laws`` at its default
    bounds, and the row does not make it raise."""
    monkeypatch.setattr(target, name, fault)
    report = laws.run_laws(2, 3)
    assert not report["ok"]
    assert [c for c, entry in report["checks"].items() if entry["failures"]] == [GAMMA_CHECK]


def functoriality_by_triples(spaces, sample=0, seed=0):
    """``laws.check_functoriality`` as it was before it skipped empty
    hom-sets: its composable pairs come from a walk over every triple
    (x, y, z) of spaces."""
    failures = []
    homs = {(x, y): mspace.enumerate_homs(x, y) for x, y in itertools.product(spaces, repeat=2)}
    pairs = []
    for x, y, z in itertools.product(spaces, repeat=3):
        pairs += itertools.product(homs[x, y], homs[y, z])
    if sample and len(pairs) > sample:
        rng = random.Random(seed)
        pairs = rng.sample(pairs, sample)
    seps = {z: duality.function_group(z).element(range(1, len(z) + 1)) for z in spaces}
    images = {}
    for f, g in pairs:
        if g not in images:
            sep = seps[g.cod]
            inner = sgroup.apply_lhom(duality.dual_hom(g), sep)
            images[g] = sep, inner, inner.values == tuple([k * sep.values[j] for j, k in g.rows])
        sep, inner, scaled = images[g]
        if not scaled:
            failures.append(f"dual hom is not zeta * (s o g) at {g!r}")
        outer = sgroup.apply_lhom(duality.dual_hom(f), inner)
        if sgroup.apply_lhom(duality.dual_hom(mspace.compose(f, g)), sep) != outer:
            failures.append(f"dual hom is not contravariant at {f!r};{g!r}")
    return failures


def test_functoriality_samples_the_pairs_of_the_triple_walk(monkeypatch, fresh_caches):
    """Skipping empty hom-sets keeps the pair list and its order, so the
    seeded sample, and the failures found in it under a fault, are those of
    the walk over every triple."""
    monkeypatch.setattr(sgroup, "apply_lhom", _apply_lhom_dropping_the_multiplier)
    spaces = all_spaces(2, 3)
    failures = laws.check_functoriality(spaces, sample=500, seed=3)
    assert failures
    assert failures == functoriality_by_triples(spaces, sample=500, seed=3)


def test_every_law_table_entry_but_two_reports_some_fault_row():
    """Read from the recorded counts, not run: the ``laws.LAWS`` entries
    that no fault row reports are exactly the two that no row reaches yet,
    so an entry that loses its last row fails here."""
    reported = {GAMMA_CHECK for *_, count in GAMMA_FAULTS if count}
    for checks, table in ((ELEMENT_CHECKS, ELEMENT_FAULTS), (MORPHISM_CHECKS, MORPHISM_FAULTS)):
        for *_, counts in table:
            reported |= {check for check, n in zip(checks, counts) if n}
    reported |= {check for check, n in SPECTRUM_FAULT[-1].items() if n}
    unreported = {name for name, _ in laws.LAWS} - reported
    assert unreported == {"stone_restriction", "omega_obstructions"}
