"""Self-tests of the benchmark: input determinism, the correctness gate,
the per-layer metrics of traced runs, and BENCHMARK.json consistency."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH)]

import child  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

child.import_bms()

# The workload on which each per-layer metric must be non-zero, by name prefix.
HOME = {
    "ints.": "element_sweep",
    "sgroup.GroupElement.": "element_sweep",
    "sgroup.element_ops.": "element_sweep",
    "sgroup.hyperarch_witness.": "element_sweep",
    "sgroup.is_": "element_sweep",
    "sgroup.LHom.": "morphism_sweep",
    "sgroup.compose_lhom.": "morphism_sweep",
    "mspace.": "morphism_sweep",
    "duality.": "morphism_sweep",
    "limits.": "morphism_sweep",
    "mv.": "cli_requests",
    "omega.": "cli_requests",
    "intlinalg.": "cli_requests",
    "cli.": "cli_requests",
    "trace.": "cli_requests",
    "laws.check_gamma_laws.": "cli_requests",
    "laws.check_singular_theory.": "element_sweep",
    "laws.check_ideal_correspondence.": "element_sweep",
    "laws.check_hyperarch.": "element_sweep",
    "laws.": "morphism_sweep",
}
# No CLI command or law check reaches Smith elimination: the one membership
# question (not_specker_demo) is refuted from a single row first.
UNREACHED = {"intlinalg.smith_decomposition.calls", "intlinalg.smith_decomposition.self_s"}


def home(metric: str) -> str:
    return next(w for prefix, w in HOME.items() if metric.startswith(prefix))


def block_bytes(seed: int, workdir: Path) -> list[tuple[list[str], bytes]]:
    requests = workloads.cli_block(seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [[a.replace(str(workdir), "") for a in argv] for _, argv, _ in requests], files


def test_same_seed_gives_identical_inputs(tmp_path):
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir(), (tmp_path / "c").mkdir()
    first = block_bytes(7, tmp_path / "a")
    assert first == block_bytes(7, tmp_path / "b")
    assert first != block_bytes(8, tmp_path / "c")
    assert repr(workloads.morphism_inputs(7)) == repr(workloads.morphism_inputs(7))
    assert repr(workloads.element_inputs(7)) == repr(workloads.element_inputs(7))
    assert repr(workloads.element_inputs(7)) != repr(workloads.element_inputs(8))


def test_host_speed_intervals():
    speed = hostspeed.HostSpeed()
    speed.starts, speed.ends = [0.0, 1.0, 2.0], [0.5, 1.25, 2.5]
    assert speed.busy_within(0.5, 2.0) == 0.25
    assert speed.busy_within(0.25, 2.25) == 0.25 + 0.25 + 0.25
    # slices during [0.75, 1.5] plus the last one before and the first after
    assert speed.reference_around(0.75, 1.5) == (0.5 + 0.25 + 0.5) / 3
    assert speed.reference_around(0.6, 0.9) == (0.5 + 0.25) / 2


def test_untraced_pass_reports_reference_times():
    first = child.run_pass("element_sweep", 4, trace=False, workdir=_scratch())
    assert len(first["latencies_s"]) == len(first["ref_s"]) == first["attempted"]
    assert all(x > 0 for x in first["latencies_s"] + first["ref_s"])
    assert sum(first["latencies_s"]) <= first["wall_s"]


def test_block_mix():
    assert sum(n for _, n in workloads.BLOCK_MIX) == 100
    assert len(workloads.cli_block(3, _scratch())) == 100


def _scratch() -> Path:
    path = BENCH / "out" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_wrong_expectation_raises_failures(monkeypatch):
    clean = child.run_pass("cli_requests", 5, trace=False, workdir=_scratch())
    assert clean["failed"] == []

    real_gamma = oracle.gamma

    def wrong_gamma(group):
        expected = real_gamma(group)
        expected["cardinality"] += 1
        return expected

    monkeypatch.setattr(oracle, "gamma", wrong_gamma)
    broken = child.run_pass("cli_requests", 5, trace=False, workdir=_scratch())
    assert broken["failed"] == ["gamma"] * len(workloads.GAMMA_LADDER)
    assert len(broken["failed"]) / broken["attempted"] > len(clean["failed"]) / clean["attempted"]


def test_boolean_arrow_indices_are_counted_as_failed():
    """A known defect: JSON booleans pass as arrow indices.  The gate must
    count the request as failed.  Once bms refuses it with exit 2, this
    test fails: then add the request to ``workloads.BAD_REQUESTS``."""
    workdir = _scratch()
    x = workloads._space("a", [2])
    diagram = {"objects": [x, x], "arrows": [{"src": True, "tgt": False, "map": {"a1": "a1"}}]}
    path = workdir / "bool.json"
    path.write_text(json.dumps(diagram))
    op = workloads.Op("bad:bool_index", lambda: workloads.run_cli(["limit", "--diagram", str(path)]),
                      lambda res: oracle.expect_error(2)(*res))
    assert not workloads.passed(op, op.run())


def _bench(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of one traced run of each workload."""
    out = {}
    for w in workloads.WORKLOADS:
        proc = _bench(ROOT, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        out[w] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


def test_every_per_layer_metric_on_its_home_workload(traced):
    names = [n for n, _, _ in PER_LAYER]
    for w, metrics in traced.items():
        assert list(metrics) == names, w
    for name in names:
        if name not in UNREACHED:
            assert traced[home(name)][name] > 0, name
    assert traced["cli_requests"]["intlinalg.solve_integer_system.calls"] > 0


def test_layer_isolation(traced):
    m, e = traced["morphism_sweep"], traced["element_sweep"]
    assert m["ints.checked.calls"] < 0.05 * e["ints.checked.calls"]
    assert e["mspace.enumerate_homs.calls"] == 0
    assert m["mv.verify_mv_axioms.calls"] == 0 and e["mv.verify_mv_axioms.calls"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(p) for p in PER_LAYER]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the gate cannot run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "cli_requests", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
