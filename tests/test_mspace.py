import collections
import itertools
import json
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bms import cli, duality, limits, mspace, sgroup
from bms.errors import DivisibilityError, OverflowLimitError, SchemaError, SizeLimitError
from bms.ints import INT_LIMIT
from bms.laws import all_spaces
from bms.mspace import (
    BmsMorphism,
    MultiSpace,
    are_isomorphic,
    compose,
    enumerate_homs,
    identity,
    is_isomorphism,
    morphism_from_dict,
    morphism_to_dict,
    new_morphism,
    new_space,
    space_from_dict,
    space_to_dict,
)


def test_new_space_examples():
    ab = new_space(["a", "b"], [1, 2])
    assert ab.mult("a") == 1 and ab.mult("b") == 2
    assert len(new_space([], [])) == 0
    assert new_space(["p"], [1]).mults == (1,)


def test_new_space_errors():
    with pytest.raises(SchemaError):
        new_space(["a", "a"], [1, 2])
    with pytest.raises(SchemaError):
        new_space(["a"], [0])
    with pytest.raises(SchemaError):
        new_space(["a"], [-3])
    with pytest.raises(SchemaError):
        new_space(["a", "b"], [1])


@pytest.mark.parametrize(
    "mult, error, message",
    [
        (True, SchemaError, "multiplicity of 'a' must be an integer, got True"),
        (2.0, SchemaError, "multiplicity of 'a' must be an integer, got 2.0"),
        ("2", SchemaError, "multiplicity of 'a' must be an integer, got '2'"),
        (0, SchemaError, "multiplicity of 'a' must be >= 1, got 0"),
        (-3, SchemaError, "multiplicity of 'a' must be >= 1, got -3"),
        (INT_LIMIT + 1, OverflowLimitError, f"multiplicity of 'a' {INT_LIMIT + 1} exceeds"),
        (-INT_LIMIT - 1, OverflowLimitError, f"multiplicity of 'a' {-INT_LIMIT - 1} exceeds"),
    ],
)
def test_bad_multiplicity_kinds_and_messages(mult, error, message):
    with pytest.raises(error) as exc:
        new_space(["b", "a"], [1, mult])
    assert str(exc.value).startswith(message)
    assert type(exc.value) is error


def test_multiplicity_at_the_limit_is_legal():
    assert new_space(["a"], [INT_LIMIT]).mults == (INT_LIMIT,)


def test_new_morphism_zeta():
    x4 = new_space(["x"], [4])
    v2 = new_space(["v"], [2])
    m = new_morphism(x4, v2, {"x": "v"})
    assert m.zeta("x") == 2


def test_new_morphism_divisibility_error_reports_point():
    x1 = new_space(["x"], [1])
    v2 = new_space(["v"], [2])
    with pytest.raises(DivisibilityError) as err:
        new_morphism(x1, v2, {"x": "v"})
    assert "'x'" in str(err.value) and "2" in str(err.value) and "1" in str(err.value)


def test_identity_has_unit_zeta():
    ab = new_space(["a", "b"], [3, 5])
    assert identity(ab).zetas == (1, 1)


def test_compose_with_identity():
    x4 = new_space(["x"], [4])
    v2 = new_space(["v"], [2])
    f = new_morphism(x4, v2, {"x": "v"})
    assert compose(f, identity(v2)) == f
    assert compose(identity(x4), f) == f


def test_compose_zeta_multiplies():
    # ({x},4)->({v},2)->({w},1): 4 = 2*2 by direct evaluation
    x4 = new_space(["x"], [4])
    v2 = new_space(["v"], [2])
    w1 = new_space(["w"], [1])
    f = new_morphism(x4, v2, {"x": "v"})
    g = new_morphism(v2, w1, {"v": "w"})
    assert compose(f, g).zetas == (4,)


def test_compose_mismatch():
    x4 = new_space(["x"], [4])
    v2 = new_space(["v"], [2])
    other = new_space(["v"], [4])
    f = new_morphism(x4, v2, {"x": "v"})
    g = new_morphism(other, x4, {"v": "x"})
    with pytest.raises(SchemaError):
        compose(f, g)


def test_is_isomorphism():
    ab = new_space(["a", "b"], [2, 2])
    assert is_isomorphism(identity(ab))
    swap = new_morphism(ab, ab, {"a": "b", "b": "a"})
    assert is_isomorphism(swap)
    x4 = new_space(["x"], [4])
    v2 = new_space(["v"], [2])
    assert not is_isomorphism(new_morphism(x4, v2, {"x": "v"}))


def test_iso_iff_two_sided_inverse():
    spaces = [
        new_space([], []),
        new_space(["a"], [2]),
        new_space(["a", "b"], [1, 2]),
        new_space(["a", "b"], [2, 2]),
    ]
    for x, y in itertools.product(spaces, repeat=2):
        for f in enumerate_homs(x, y):
            invertible = any(
                compose(f, g) == identity(x) and compose(g, f) == identity(y)
                for g in enumerate_homs(y, x)
            )
            assert invertible == is_isomorphism(f)


def test_are_isomorphic_iff_some_hom_is_an_isomorphism():
    verdicts = set()
    for a, b in itertools.product(all_spaces(2, 3), repeat=2):
        verdict = are_isomorphic(a, b)
        assert verdict == any(is_isomorphism(f) for f in enumerate_homs(a, b)), (a, b)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_enumerate_homs_counts():
    x = new_space(["x"], [2])
    y = new_space(["y1", "y2"], [1, 2])
    # both targets divide 2, checked exhaustively by hand
    assert len(enumerate_homs(x, y)) == 2
    # 2 does not divide 1 at y1, so no map exists
    assert len(enumerate_homs(y, x)) == 0
    # the empty space is initial
    assert len(enumerate_homs(new_space([], []), y)) == 1
    assert len(enumerate_homs(x, new_space([], []))) == 0


def test_enumerate_homs_order_and_validity():
    x = new_space(["x1", "x2"], [4, 4])
    y = new_space(["y1", "y2"], [2, 4])
    homs = enumerate_homs(x, y)
    targets = [h.targets for h in homs]
    assert targets == sorted(targets, key=lambda t: tuple(y.index(l) for l in t))
    assert len(set(homs)) == len(homs)
    for h in homs:
        assert new_morphism(x, y, h.mapping) == h


def _naive_homs(dom, cod):
    """Oracle: every point map dom -> cod in lexicographic order, kept when
    each target multiplicity divides its source's, as checked rows."""
    return [
        BmsMorphism(dom, cod, tuple((j, m // cod.mults[j]) for m, j in zip(dom.mults, targets)))
        for targets in itertools.product(range(len(cod)), repeat=len(dom))
        if all(m % cod.mults[j] == 0 for m, j in zip(dom.mults, targets))
    ]


def test_enumerate_homs_matches_point_map_oracle():
    spaces = all_spaces(3, 4)
    total = 0
    for x, y in itertools.product(spaces, repeat=2):
        homs, naive = enumerate_homs(x, y), _naive_homs(x, y)
        assert [h.rows for h in homs] == [h.rows for h in naive], (x, y)
        assert homs == naive
        total += len(homs)
    assert total == 24_477


def test_hom_count_past_maxsize_is_refused(tmp_path, capsys):
    # 64 points of multiplicity 2, each with two targets: 2**64 morphisms,
    # more than sys.maxsize, so the count is not a len()
    x = new_space([f"x{i}" for i in range(64)], [2] * 64)
    y = new_space(["y1", "y2"], [1, 2])
    assert 2**64 > sys.maxsize
    with pytest.raises(SizeLimitError, match=f"^{2**64} morphisms exceed"):
        enumerate_homs(x, y)
    paths = []
    for name, space in (("x", x), ("y", y)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(space_to_dict(space)), encoding="utf-8")
    assert cli.main(["hom", *map(str, paths)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["kind"] == "math-domain"


def test_space_json_round_trip():
    ab = new_space(["a", "b"], [1, 2])
    data = space_to_dict(ab)
    assert data == {"points": [{"label": "a", "mult": 1}, {"label": "b", "mult": 2}]}
    assert space_from_dict(data) == ab


def test_morphism_json_round_trip():
    x4 = new_space(["x"], [4])
    v2 = new_space(["v"], [2])
    f = new_morphism(x4, v2, {"x": "v"})
    data = morphism_to_dict(f)
    assert data["map"] == {"x": "v"}
    assert morphism_from_dict(data) == f


def test_bad_json_shapes():
    with pytest.raises(SchemaError):
        space_from_dict({"pts": []})
    with pytest.raises(SchemaError):
        space_from_dict({"points": [{"label": "a"}]})
    with pytest.raises(SchemaError):
        morphism_from_dict({"dom": {"points": []}, "cod": {"points": []}})


@st.composite
def chained_morphisms(draw):
    """A composable pair built so that divisibility holds by construction."""
    n = draw(st.integers(1, 3))
    base = [draw(st.integers(1, 3)) for _ in range(n)]
    z = new_space([f"z{i}" for i in range(n)], base)
    k1 = [draw(st.integers(1, 3)) for _ in range(n)]
    y = new_space([f"y{i}" for i in range(n)], [b * k for b, k in zip(base, k1)])
    k2 = [draw(st.integers(1, 3)) for _ in range(n)]
    x = new_space([f"x{i}" for i in range(n)], [m * k for m, k in zip(y.mults, k2)])
    f = new_morphism(x, y, {f"x{i}": f"y{i}" for i in range(n)})
    g = new_morphism(y, z, {f"y{i}": f"z{i}" for i in range(n)})
    return f, g


@settings(max_examples=60, deadline=None)
@given(chained_morphisms())
def test_zeta_multiplicativity_property(pair):
    f, g = pair
    fg = compose(f, g)
    assert fg.zetas == tuple(zf * g.zeta(t) for zf, t in zip(f.zetas, f.targets))


def _checked_copy_is_equal(m):
    """The checked constructor accepts the rows of m, and the copy equals m."""
    assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows), m
    again = BmsMorphism(m.dom, m.cod, m.rows)
    assert again == m and hash(again) == hash(m), m


def test_trusted_morphisms_pass_the_row_check():
    spaces = all_spaces(2, 3)
    homs = {(x, y): enumerate_homs(x, y) for x, y in itertools.product(spaces, repeat=2)}
    built = 0
    for (x, y), fs in homs.items():
        for f in fs:
            _checked_copy_is_equal(f)
        for z in spaces:
            for f, g in itertools.product(fs, homs[y, z]):
                _checked_copy_is_equal(compose(f, g))
                built += 1
        cocone = limits.coproduct(x, y)
        for inj in cocone.injections:
            _checked_copy_is_equal(inj)
        for leg in limits.product(x, y).legs:
            _checked_copy_is_equal(leg)
    for x in spaces:
        _checked_copy_is_equal(identity(x))
    rng = random.Random(0)
    parallel = [(f, g) for fs in homs.values() for f in fs for g in fs]
    cospans = [
        (f, g)
        for (x, z), fs in homs.items()
        for y in spaces
        for f in fs
        for g in homs[y, z]
    ]
    for f, g in rng.sample(parallel, 300):
        for leg in limits.equalizer(f, g).legs:
            _checked_copy_is_equal(leg)
    for f, g in rng.sample(cospans, 300):
        for leg in limits.pullback(f, g).legs:
            _checked_copy_is_equal(leg)
    assert built == 2017  # composites checked; a vacuous sweep would show 0


def test_checked_paths_still_refuse_bad_rows():
    x = new_space(["x"], [2])
    y = new_space(["y1", "y2"], [3, 1])
    with pytest.raises(DivisibilityError):
        BmsMorphism(x, y, ((0, 1),))
    with pytest.raises(DivisibilityError):
        new_morphism(x, y, {"x": "y1"})
    bad = sgroup.LHom(BmsMorphism._trusted(x, y, ((0, 1),)))
    with pytest.raises(DivisibilityError):
        duality.spectrum_map(bad)
    with pytest.raises(DivisibilityError):
        sgroup.validate_lhom([[1, 0]], sgroup.SpeckerGroup(y), sgroup.SpeckerGroup(x))


def _per_row_rows(dom, cod, rows):
    """The rows the checked constructor stores, as ``_checked_row`` of every
    row in turn, after the container and row-count checks."""
    if type(rows) is not tuple:
        try:
            rows = tuple(rows)
        except TypeError:
            raise SchemaError(
                f"rows must be a sequence of (index, multiplier) pairs, got {rows!r}"
            ) from None
    if len(rows) != len(dom.mults):
        raise SchemaError(f"{len(rows)} rows for {len(dom.mults)} points")
    return tuple([mspace._checked_row(dom, cod, i, row) for i, row in enumerate(rows)])


def _rows_outcome(build, *args):
    try:
        rows = build(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return rows, [type(row) for row in rows]


class _Int(int):
    pass


Pair = collections.namedtuple("Pair", "j z")

# Rows for points of multiplicity 2 and 6 into multiplicities (1, 2, 3):
# valid for either point, for one of them only, or for neither.
ROW_GRID = (
    (0, 2), (1, 1), (0, 6), (1, 3), (2, 2),          # tuples satisfying the rule at one point
    [1, 1], [2, 2], Pair(0, 2), Pair(1, 3),          # valid rows given as other sequences
    (0, 1), (2, 1), (1, 2),                          # divisibility failures
    (-1, 2), (3, 1), (2**70, 1),                     # negative or out-of-range indices
    (True, 2), (0, True), (False, 6),                # bool entries
    (_Int(0), 2), (1, _Int(3)), (0, 2.0),            # int-subclass and float entries
    (0,), (0, 2, 9), (), "02", 5, None,              # not a pair, or not iterable
)


def test_checked_rows_match_the_per_row_oracle():
    """Every pair of rows of ``ROW_GRID``, as a tuple, a list and an iterator
    of rows, with one row too few and one too many: the constructor stores
    the oracle's rows, each a tuple, or raises its exception with its
    message, the first faulty row's."""
    dom = new_space(["a", "b"], [2, 6])
    cod = new_space(["x", "y", "z"], [1, 2, 3])
    build = lambda *args: BmsMorphism(*args).rows
    seen = set()
    shapes = (tuple, list, iter, lambda p: p[:1], lambda p: p + p[:1])
    for pair in itertools.product(ROW_GRID, repeat=2):
        for shape in shapes:
            expected = _rows_outcome(_per_row_rows, dom, cod, shape(pair))
            assert _rows_outcome(build, dom, cod, shape(pair)) == expected, pair
            seen.add(expected[0] if isinstance(expected[0], type) else "value")
    assert seen == {"value", SchemaError, DivisibilityError}
    for rows in (5, None):
        expected = _rows_outcome(_per_row_rows, dom, cod, rows)
        assert _rows_outcome(build, dom, cod, rows) == expected


def test_space_hash_is_cached_and_agrees_with_equality():
    spaces = all_spaces(2, 3)
    for x in spaces:
        again = new_space(list(x.labels), list(x.mults))
        assert again is not x and again == x and hash(again) == hash(x)
        for i in range(len(x)):
            bumped = list(x.mults)
            bumped[i] += 1
            assert new_space(x.labels, bumped) != x
        if len(x) > 1:
            assert new_space(x.labels[::-1], x.mults[::-1]) != x
    assert len(set(spaces)) == len(spaces)
    group = sgroup.SpeckerGroup(new_space(["a", "b"], [2, 3]))
    duality.spectrum_space(group)
    hits = duality.spectrum_space.cache_info().hits
    duality.spectrum_space(sgroup.SpeckerGroup(new_space(["a", "b"], [2, 3])))
    assert duality.spectrum_space.cache_info().hits == hits + 1


def test_list_labels_and_multiplicities_are_stored_as_tuples():
    x = MultiSpace(["a"], [1])
    assert type(x.labels) is tuple and type(x.mults) is tuple
    assert x == MultiSpace(("a",), (1,)) and hash(x) == hash(MultiSpace(("a",), (1,)))


def test_list_rows_are_stored_as_a_tuple():
    x, y = new_space(["x"], [2]), new_space(["y"], [1])
    f = BmsMorphism(x, y, [(0, 2)])
    assert type(f.rows) is tuple
    assert f == BmsMorphism(x, y, ((0, 2),)) and len({f, new_morphism(x, y, {"x": "y"})}) == 1


@pytest.mark.parametrize("rows", [[[0, 2]], ([0, 2],)], ids=["list of lists", "tuple of lists"])
def test_list_rows_inside_are_stored_as_tuples(rows):
    x, y = new_space(["x"], [2]), new_space(["y"], [1])
    f = BmsMorphism(x, y, rows)
    assert type(f.rows) is tuple and type(f.rows[0]) is tuple
    assert f == BmsMorphism(x, y, ((0, 2),)) and len({f, new_morphism(x, y, {"x": "y"})}) == 1


@pytest.mark.parametrize("row", [(0,), (0, 2, 9), 5], ids=["one entry", "three entries", "an int"])
def test_a_row_that_is_not_a_pair_is_schema_error(row):
    x, y = new_space(["x"], [2]), new_space(["y"], [1])
    with pytest.raises(SchemaError, match=r"row 0: .* is not an \(int index < 1, int\) pair"):
        BmsMorphism(x, y, [row])


def test_rows_given_as_an_int_are_schema_error():
    x, y = new_space(["x"], [2]), new_space(["y"], [1])
    with pytest.raises(SchemaError, match="rows must be a sequence of .* got 5"):
        BmsMorphism(x, y, 5)


def test_rows_given_as_none_are_schema_error():
    x, y = new_space(["x"], [2]), new_space(["y"], [1])
    with pytest.raises(SchemaError, match="rows must be a sequence of .* got None"):
        BmsMorphism(x, y, None)


def test_space_pickled_under_another_hash_seed_is_rehashed():
    env = dict(os.environ, PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    script = (
        "import pickle, sys\n"
        "from bms.laws import all_spaces\n"
        "sys.stdout.buffer.write(pickle.dumps(all_spaces(2, 3)))\n"
    )
    data = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    unpickled = pickle.loads(data)
    spaces = all_spaces(2, 3)
    assert unpickled == spaces
    assert [hash(x) for x in unpickled] == [hash(x) for x in spaces]
    assert set(unpickled) == set(spaces)
