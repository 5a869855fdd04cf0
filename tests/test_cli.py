import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bms import cli
from bms.cli import main
from bms.mspace import enumerate_homs

SPACE_AB = {"points": [{"label": "a", "mult": 1}, {"label": "b", "mult": 2}]}
SPACE_X4 = {"points": [{"label": "x", "mult": 4}]}
SPACE_V2 = {"points": [{"label": "v", "mult": 2}]}
MORPH_XV = {"dom": SPACE_X4, "cod": SPACE_V2, "map": {"x": "v"}}
GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on bad arguments and on --help
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_space_check_round_trip(tmp_path, capsys):
    path = write(tmp_path, "ab.json", SPACE_AB)
    code, out, _ = run(capsys, "space", "check", path)
    assert code == 0
    assert json.loads(out) == SPACE_AB


def test_space_check_schema_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"points": [{"label": "a", "mult": 0}]})
    code, _, err = run(capsys, "space", "check", path)
    assert code == 2
    assert json.loads(err)["kind"] == "schema"


def test_malformed_json_is_schema_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "space", "check", str(p))
    assert code == 2
    assert json.loads(err)["kind"] == "schema"


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "space", "check", "/nonexistent/nothing.json")
    assert code == 1
    assert json.loads(err)["kind"] == "io"


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "schema"


def test_morph_check_and_divisibility_error(tmp_path, capsys):
    path = write(tmp_path, "m.json", MORPH_XV)
    code, out, _ = run(capsys, "morph", "check", path)
    assert code == 0 and json.loads(out)["map"] == {"x": "v"}

    bad = {"dom": SPACE_V2, "cod": SPACE_X4, "map": {"v": "x"}}
    path = write(tmp_path, "bad.json", bad)
    code, _, err = run(capsys, "morph", "check", path)
    assert code == 3
    assert json.loads(err)["kind"] == "math-domain"


def test_morph_check_is_linear_in_the_points(tmp_path, capsys):
    space = {"points": [{"label": f"p{i}", "mult": 1} for i in range(20_000)]}
    ident = {"dom": space, "cod": space, "map": {f"p{i}": f"p{i}" for i in range(20_000)}}
    path = write(tmp_path, "id.json", ident)
    start = time.perf_counter()
    code, out, _ = run(capsys, "morph", "check", path)
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out) == ident


def test_hom_counts(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"points": [{"label": "x", "mult": 2}]})
    y = write(tmp_path, "y.json", SPACE_AB)
    code, out, _ = run(capsys, "hom", x, y)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2 and len(data["homs"]) == 2


def test_hom_above_the_limit_is_refused_first(tmp_path, capsys):
    # 12 points of multiplicity 1 on each side: 12**12 maps
    x, y = (
        write(tmp_path, f"{p}.json", {"points": [{"label": f"{p}{i}", "mult": 1} for i in range(12)]})
        for p in "xy"
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "hom", x, y)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["kind"] == "math-domain"


def test_dual_obj_both_directions(tmp_path, capsys):
    path = write(tmp_path, "ab.json", SPACE_AB)
    code, out, _ = run(capsys, "dual", "obj", path)
    group = json.loads(out)
    assert code == 0 and group == {"space": SPACE_AB}

    gpath = write(tmp_path, "g.json", group)
    code, out, _ = run(capsys, "dual", "obj", gpath)
    spec = json.loads(out)
    assert code == 0
    assert spec == {
        "points": [{"label": "m_a", "mult": 1}, {"label": "m_b", "mult": 2}]
    }


def test_dual_mor_both_directions(tmp_path, capsys):
    path = write(tmp_path, "m.json", MORPH_XV)
    code, out, _ = run(capsys, "dual", "mor", path)
    lhom = json.loads(out)
    assert code == 0 and lhom["matrix"] == [[2]]

    lpath = write(tmp_path, "l.json", lhom)
    code, out, _ = run(capsys, "dual", "mor", lpath)
    back = json.loads(out)
    assert code == 0
    assert back["map"] == {"m_x": "m_v"}


def test_product_of_singletons(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"points": [{"label": "a", "mult": 2}]})
    b = write(tmp_path, "b.json", {"points": [{"label": "b", "mult": 3}]})
    code, out, _ = run(capsys, "product", a, b)
    assert code == 0
    cone = json.loads(out)
    assert cone["apex"]["points"] == [{"label": "(a,b)", "mult": 6}]
    assert len(cone["legs"]) == 2


def test_product_with_colliding_tuple_labels_is_schema_error(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"points": [{"label": "a,b", "mult": 1}, {"label": "a", "mult": 1}]})
    b = write(tmp_path, "b.json", {"points": [{"label": "c", "mult": 1}, {"label": "b,c", "mult": 1}]})
    code, out, err = run(capsys, "product", a, b)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "duplicate point label '(a,b,c)'", "kind": "schema"}


def test_coproduct_equalizer_pullback(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"points": [{"label": "a", "mult": 1}]})
    b = write(tmp_path, "b.json", {"points": [{"label": "a", "mult": 2}]})
    code, out, _ = run(capsys, "coproduct", a, b)
    assert code == 0
    assert [p["label"] for p in json.loads(out)["apex"]["points"]] == ["L:a", "R:a"]

    dom = {"points": [{"label": "x1", "mult": 2}, {"label": "x2", "mult": 2}]}
    cod = {"points": [{"label": "y1", "mult": 2}, {"label": "y2", "mult": 2}]}
    f = write(tmp_path, "f.json", {"dom": dom, "cod": cod, "map": {"x1": "y1", "x2": "y1"}})
    g = write(tmp_path, "g.json", {"dom": dom, "cod": cod, "map": {"x1": "y1", "x2": "y2"}})
    code, out, _ = run(capsys, "equalizer", f, g)
    assert code == 0
    assert len(json.loads(out)["apex"]["points"]) == 1

    pt = {"points": [{"label": "t", "mult": 1}]}
    f2 = write(tmp_path, "f2.json", {"dom": dom, "cod": pt, "map": {"x1": "t", "x2": "t"}})
    g2 = write(tmp_path, "g2.json", {"dom": cod, "cod": pt, "map": {"y1": "t", "y2": "t"}})
    code, out, _ = run(capsys, "pullback", f2, g2)
    assert code == 0
    assert len(json.loads(out)["apex"]["points"]) == 4


def test_equalizer_below_the_limit_of_tuples_it_extends(tmp_path, capsys):
    # f and g map 400 points to 400 and agree on the even ones: the product
    # has 160,000 point tuples, the scan extends 400
    dom = {"points": [{"label": f"x{i}", "mult": 1} for i in range(400)]}
    cod = {"points": [{"label": f"y{i}", "mult": 1} for i in range(400)]}
    f_map = {f"x{i}": f"y{i}" for i in range(400)}
    g_map = {f"x{i}": f"y{i - i % 2}" for i in range(400)}
    f = write(tmp_path, "f.json", {"dom": dom, "cod": cod, "map": f_map})
    g = write(tmp_path, "g.json", {"dom": dom, "cod": cod, "map": g_map})
    code, out, _ = run(capsys, "equalizer", f, g)
    assert code == 0
    points = json.loads(out)["apex"]["points"]
    assert [p["label"] for p in points] == [f"(x{i},y{i})" for i in range(0, 400, 2)]


def test_limit_with_an_arrow_into_an_earlier_object(tmp_path, capsys):
    # a bijection of 400 points, its codomain first: 400 of the 160,000
    # point tuples are extended
    dom = {"points": [{"label": f"x{i}", "mult": 1} for i in range(400)]}
    cod = {"points": [{"label": f"y{i}", "mult": 1} for i in range(400)]}
    arrow = {"src": 1, "tgt": 0, "map": {f"x{i}": f"y{i}" for i in range(400)}}
    path = write(tmp_path, "d.json", {"objects": [cod, dom], "arrows": [arrow]})
    code, out, _ = run(capsys, "limit", "--diagram", path)
    assert code == 0
    points = json.loads(out)["apex"]["points"]
    assert [p["label"] for p in points] == [f"(y{i},x{i})" for i in range(400)]


def test_limit_diagram(tmp_path, capsys):
    diagram = {
        "objects": [
            {"points": [{"label": "a", "mult": 2}]},
            {"points": [{"label": "b", "mult": 3}]},
        ],
        "arrows": [],
    }
    path = write(tmp_path, "d.json", diagram)
    code, out, _ = run(capsys, "limit", "--diagram", path)
    assert code == 0
    assert json.loads(out)["apex"]["points"][0]["mult"] == 6


def test_limit_above_the_limit_is_refused_first(tmp_path, capsys):
    # 5 objects of 12 points: 12**5 = 248,832 point tuples
    obj = {"points": [{"label": f"p{i}", "mult": 1} for i in range(12)]}
    path = write(tmp_path, "d.json", {"objects": [obj] * 5, "arrows": []})
    start = time.perf_counter()
    code, out, err = run(capsys, "limit", "--diagram", path)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["kind"] == "math-domain"


def test_gamma_report(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"space": SPACE_AB})
    code, out, _ = run(capsys, "gamma", path)
    assert code == 0
    report = json.loads(out)
    assert report == {
        "cardinality": 6,
        "fibers": [{"points": ["a"], "n": 1}, {"points": ["b"], "n": 2}],
        "axioms": "pass",
    }


def test_gamma_answers_without_enumerating(tmp_path, capsys):
    unit = {"points": [{"label": f"p{i}", "mult": 6} for i in range(4)]}
    path = write(tmp_path, "g6.json", {"space": unit})
    start = time.perf_counter()
    code, out, _ = run(capsys, "gamma", path)
    assert time.perf_counter() - start < 1
    assert code == 0
    report = json.loads(out)
    assert report["cardinality"] == 2401 and report["axioms"] == "pass"


NO_NUMPY_SCRIPT = """
import contextlib, hashlib, importlib, io, json, pkgutil, sys
sys.modules["numpy"] = None
import bms
for module in pkgutil.iter_modules(bms.__path__):
    importlib.import_module("bms." + module.name)
from bms.cli import main
for argv in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(json.loads(argv))
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_bms_runs_with_numpy_unimportable(tmp_path):
    """Every ``bms`` module imports, and gamma and laws write the bytes they
    wrote when ``mv`` checked its tables with numpy, in a process where
    ``import numpy`` fails."""
    chain = {"points": [{"label": "a", "mult": 256}, {"label": "b", "mult": 1}]}
    runs = [
        (["gamma", str(GOLDEN_INPUTS / "gamma_4_4_4_2.json")],
         "470f75393ad069b9f470b48c76a3f649fd3773af415e3740abb19374b09b4710"),
        (["gamma", write(tmp_path, "g256.json", {"space": chain})],
         "9955d1c581c7f2b95e46f52810cca4e26ef353c408b311e289811dc8dfce5e97"),
        (["laws"], "395cbd7da4da0d498ad52825eae384e707232ffcc7fda7a249365d6b5b25a74e"),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, *[json.dumps(argv) for argv, _ in runs]],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().splitlines() == [f"0 {digest}" for _, digest in runs]


def test_gamma_above_chain_limit_is_math_domain_error(tmp_path, capsys):
    unit = {"points": [{"label": "a", "mult": 2**40}, {"label": "b", "mult": 2**40}]}
    path = write(tmp_path, "huge.json", {"space": unit})
    start = time.perf_counter()
    code, out, err = run(capsys, "gamma", path)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "math-domain"


def test_unexpected_error_is_internal(monkeypatch, capsys):
    def boom(args):
        raise MemoryError("no room")

    monkeypatch.setattr(cli, "_run", boom)
    code, out, err = run(capsys, "laws")
    assert code == cli.EXIT_INTERNAL
    assert code not in (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_SCHEMA, cli.EXIT_MATH, cli.EXIT_VERIFY)
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "MemoryError: no room", "kind": "internal"}


def test_laws_small(capsys):
    code, out, _ = run(capsys, "laws", "--max-points", "2", "--max-mult", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["total_failures"] == 0


@pytest.mark.parametrize(
    "bounds, code, kind",
    [
        (("--max-points", "-1"), 2, "schema"),
        (("--max-mult", "0"), 2, "schema"),
        (("--max-points", "7", "--max-mult", "1"), 3, "math-domain"),
        (("--max-points", "6", "--max-mult", "4"), 3, "math-domain"),
        (("--max-points", "4", "--max-mult", "3"), 3, "math-domain"),
        (("--max-points", "6", "--max-mult", "1"), 3, "math-domain"),
        (("--max-points", "5", "--max-mult", "1"), 3, "math-domain"),
        (("--max-points", "5", "--max-mult", "2"), 3, "math-domain"),
        (("--max-points", "1", "--max-mult", "100"), 3, "math-domain"),
        (("--max-points", "2", "--max-mult", "10"), 3, "math-domain"),
        (("--max-points", "3", "--max-mult", "5"), 3, "math-domain"),
    ],
)
def test_laws_bounds_are_checked_first(capsys, bounds, code, kind):
    start = time.perf_counter()
    got, out, err = run(capsys, "laws", *bounds)
    assert time.perf_counter() - start < 1
    assert got == code and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["kind"] == kind


def test_laws_cap_admits_the_used_bounds(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli.laws, "all_spaces", reached)
    for bounds in [(2, 2), (2, 3), (3, 4), (4, 1), (4, 2), (2, 9), (1, 99), (0, 10**6)]:
        with pytest.raises(Reached):
            cli.laws.run_laws(*bounds)


def test_pushout_bound_limit(capsys):
    limit = cli.omega.PUSHOUT_BOUND_LIMIT
    code, out, _ = run(capsys, "omega", "demo", "--which", "pushout", "--bound", str(limit))
    assert code == 0 and json.loads(out)["min_prefix_length"] == limit + 1
    code, out, _ = run(capsys, "omega", "demo", "--which", "power", "--bound", str(limit))
    assert code == 0 and len(json.loads(out)["witnesses"]) == limit + 1
    for which, bound in itertools.product(("pushout", "power"), (limit + 1, 10**9)):
        start = time.perf_counter()
        code, out, err = run(capsys, "omega", "demo", "--which", which, "--bound", str(bound))
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and json.loads(err)["kind"] == "math-domain"


@pytest.mark.parametrize("which", ["power", "pushout"])
def test_negative_omega_bound_exits_2(capsys, which):
    with pytest.raises(SystemExit) as exc:
        main(["omega", "demo", "--which", which, "--bound", "-3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1
    assert json.loads(out.err)["kind"] == "schema"


def test_omega_demos(capsys):
    code, out, _ = run(capsys, "omega", "demo", "--which", "not-specker")
    assert code == 0
    report = json.loads(out)
    assert report["unit_generated"] is False

    code, out, _ = run(capsys, "omega", "demo", "--which", "power", "--bound", "10")
    assert code == 0
    assert json.loads(out)["limit_v"] == 1

    code, out, _ = run(capsys, "omega", "demo", "--which", "pushout", "--bound", "16")
    assert code == 0
    assert json.loads(out)["forced"]["inf"] == 1


def test_export_dot(tmp_path, capsys):
    path = write(tmp_path, "m.json", MORPH_XV)
    code, out, _ = run(capsys, "export-dot", path)
    assert code == 0
    assert 'd0 [label="x:4"]' in out
    assert 'c0 [label="v:2"]' in out
    assert 'd0 -> c0 [label="2"]' in out

    ident = {"dom": SPACE_V2, "cod": SPACE_V2, "map": {"v": "v"}}
    path = write(tmp_path, "id.json", ident)
    code, out, _ = run(capsys, "export-dot", path)
    assert code == 0
    assert out.count("label=") == 5  # 2 cluster labels, 2 nodes, 1 edge
    assert '[label="1"]' in out

    quoted = {
        "dom": {"points": [{"label": 'a"b', "mult": 2}, {"label": "c\\", "mult": 2}]},
        "cod": SPACE_V2,
        "map": {'a"b': "v", "c\\": "v"},
    }
    path = write(tmp_path, "quoted.json", quoted)
    code, out, _ = run(capsys, "export-dot", path)
    assert code == 0
    assert 'd0 [label="a\\"b:2"]' in out
    assert 'd1 [label="c\\\\:2"]' in out

    empty = {"dom": {"points": []}, "cod": {"points": []}, "map": {}}
    path = write(tmp_path, "empty.json", empty)
    code, out, _ = run(capsys, "export-dot", path)
    assert code == 0
    assert "cluster_dom" in out and "->" not in out


def test_determinism(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"points": [{"label": "x", "mult": 2}]})
    y = write(tmp_path, "y.json", SPACE_AB)
    _, out1, _ = run(capsys, "hom", x, y)
    _, out2, _ = run(capsys, "hom", x, y)
    assert out1 == out2


def test_shared_parser_keeps_no_state_between_calls(capsys):
    calls = [
        ("laws", "--max-points", "1", "--max-mult", "2"),
        ("laws",),
        ("laws", "--max-points", "two"),
        ("--help",),
        ("omega", "demo", "--which", "power", "--bound", "3"),
        ("omega", "demo", "--which", "pushout"),
        ("laws", "--max-points", "1", "--max-mult", "2"),
    ]
    first = {}
    for argv in calls:
        cli._build_parser.cache_clear()
        first[argv] = run(capsys, *argv)
    results = {argv: run(capsys, *argv) for argv in calls}  # one process, one parser
    assert results == first

    assert json.loads(results[calls[0]][1])["bounds"]["max_points"] == 1
    assert json.loads(results[("laws",)][1])["bounds"] == {"max_points": 2, "max_mult": 3, "seed": 0}
    code, out, err = results[("laws", "--max-points", "two")]
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["kind"] == "schema"
    assert results[("--help",)][0] == 0
    assert json.loads(results[calls[5]][1])["bound"] == 16


def _space(labels, mults):
    return {"points": [{"label": l, "mult": m} for l, m in zip(labels, mults)]}


def test_hom_output_is_byte_identical_to_dumps(tmp_path, capsys):
    spaces = [cli.space_to_dict(s) for s in cli.laws.all_spaces(2, 3)]
    pairs = list(itertools.product(spaces, repeat=2))
    odd = _space(['a"b', "c\\", "é", "☃"], [2, 4, 6, 1])
    pairs += [(odd, odd), (odd, _space(["☃\\", '"'], [1, 2]))]
    pairs += [(_space([], []), odd), (_space(["p"], [1]), _space(["q"], [2]))]
    big = (_space([f"x{i}" for i in range(5)], [6, 6, 6, 12, 12]),
           _space([f"y{i}" for i in range(6)], [1, 2, 3, 4, 6, 12]))
    pairs.append(big)
    counts = []
    for x, y in pairs:
        homs = enumerate_homs(cli.space_from_dict(x), cli.space_from_dict(y))
        expected = json.dumps({"count": len(homs), "homs": [cli.morphism_to_dict(h) for h in homs]}) + "\n"
        code, out, err = run(capsys, "hom", write(tmp_path, "x.json", x), write(tmp_path, "y.json", y))
        assert (code, out, err) == (0, expected, "")
        counts.append(len(homs))
    assert counts[-3:] == [1, 0, 2304]


class _CountingSink:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def test_hom_streams_100000_morphisms_in_small_memory(tmp_path, monkeypatch):
    # every multiplicity of y divides 12: 10**5 morphisms, each as long as any other
    x = _space([f"x{i}" for i in range(5)], [12] * 5)
    y = _space([f"y{i}" for i in range(10)], [1, 2, 3, 4, 6, 12, 1, 2, 3, 4])
    paths = write(tmp_path, "x.json", x), write(tmp_path, "y.json", y)
    one = json.dumps({"dom": x, "cod": y, "map": {f"x{i}": "y0" for i in range(5)}})
    expected = len('{"count": 100000, "homs": [') + 100_000 * len(one) + 99_999 * len(", ") + len("]}\n")
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["hom", *paths])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert code == 0 and sink.chars == expected
    assert peak < 2_000_000, f"tracemalloc peak {peak} bytes"


# -- fuzzing the file inputs ----------------------------------------------------

_KEYS = st.text("abvx", max_size=2)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(-2, 2) | _KEYS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
# valid documents of each kind, with every verb that reads that kind; a None
# slot takes the file a second time, for the two-file verbs
_MORPH_VERBS = [["morph", "check"], ["dual", "mor"], ["equalizer", None], ["pullback", None], ["export-dot"]]
_FILE_INPUTS = [
    ([SPACE_AB], [["space", "check"], ["hom", None], ["dual", "obj"], ["product", None], ["coproduct", None]]),
    ([{"space": SPACE_AB}], [["dual", "obj"], ["gamma"]]),
    ([MORPH_XV, {"dom": SPACE_AB, "cod": SPACE_AB, "map": {"a": "a", "b": "b"}}], _MORPH_VERBS),
    ([{"dom": {"space": SPACE_V2}, "cod": {"space": SPACE_X4}, "matrix": [[2]]}], [["dual", "mor"]]),
    ([{"objects": [SPACE_X4, SPACE_V2], "arrows": [{"src": 0, "tgt": 1, "map": {"x": "v"}}]}],
     [["limit", "--diagram"]]),
]


def _with_one_replaced(draw, doc):
    """``doc`` with one position, the whole of it included, replaced by a
    small JSON value: each level stops or descends into one of its children."""
    keys = list(doc) if isinstance(doc, dict) else range(len(doc)) if isinstance(doc, list) else []
    key = draw(st.sampled_from([None, *keys]))
    if key is None:
        return draw(_JSON)
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[key] = _with_one_replaced(draw, doc[key])
    return copy


@st.composite
def _requests(draw):
    """A verb that reads a file and a near-valid document for it; the kind
    of document is drawn first, so each kind gets a fair share."""
    docs, verbs = draw(st.sampled_from(_FILE_INPUTS))
    return draw(st.sampled_from(verbs)), _with_one_replaced(draw, draw(st.sampled_from(docs)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=_requests())
def test_file_inputs_exit_with_a_documented_code(tmp_path, capsys, request):
    verb, doc = request
    path = write(tmp_path, "fuzz.json", doc)
    code, out, err = run(capsys, *[path if a is None else a for a in verb], path)
    assert code in (0, 2, 3, 4), err
    if code:
        assert out == "" and len(err.splitlines()) == 1
        json.loads(err)
