import json
import time

import pytest

from bms import cli
from bms.cli import main
from bms.mspace import enumerate_homs

SPACE_AB = {"points": [{"label": "a", "mult": 1}, {"label": "b", "mult": 2}]}
SPACE_X4 = {"points": [{"label": "x", "mult": 4}]}
SPACE_V2 = {"points": [{"label": "v", "mult": 2}]}
MORPH_XV = {"dom": SPACE_X4, "cod": SPACE_V2, "map": {"x": "v"}}


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
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
        (("--max-points", "4", "--max-mult", "2"), 3, "math-domain"),
        (("--max-points", "5", "--max-mult", "2"), 3, "math-domain"),
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
    for bounds in [(2, 2), (2, 3), (3, 4), (4, 1), (2, 9), (1, 99), (0, 10**6)]:
        with pytest.raises(Reached):
            cli.laws.run_laws(*bounds)


def test_inverse_scan_cases_closed_form():
    spaces = cli.laws.all_spaces(2, 3)
    by_enumeration = sum(
        len(enumerate_homs(x, y)) * len(enumerate_homs(y, x)) for x in spaces for y in spaces
    )
    assert cli.laws.inverse_scan_cases(2, 3) == by_enumeration == 148
    expected = {(3, 4): 48_983, (4, 1): 77_325, (4, 2): 1_227_618, (5, 1): 11_185_310,
                (6, 1): 2_441_904_026, (0, 10**6): 1}
    assert {b: cli.laws.inverse_scan_cases(*b) for b in expected} == expected


def test_pushout_bound_limit(capsys):
    limit = cli.omega.PUSHOUT_BOUND_LIMIT
    code, out, _ = run(capsys, "omega", "demo", "--which", "pushout", "--bound", str(limit))
    assert code == 0 and json.loads(out)["min_prefix_length"] == limit + 1
    for bound in (limit + 1, 10**9):
        start = time.perf_counter()
        code, out, err = run(capsys, "omega", "demo", "--which", "pushout", "--bound", str(bound))
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
