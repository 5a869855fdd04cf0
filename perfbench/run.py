"""Benchmark of the `bms` law sweeps and CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs in a fresh single-threaded
child process (``child.py``); passes repeat until the next one would end
after ``--seconds``, with at least one.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` one
untraced and one traced pass give the per-layer metrics and the tracing
overhead.  Timings are scaled to a reference host speed (``hostspeed.py``).
The lines before it print every metric with its unit and sample count, and
the unscaled wall time.  Every run also writes ``perfbench/out/<workload>-seed<N>-trace<T>.json``
with the metrics, the samples and the environment.

Exit status is 0 when the correctness gate ran (its verdict is the
``correct`` field) and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_S  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "req_p50_ms": "ms", "req_p95_ms": "ms", "req_per_s": "1/s",
}
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class GateError(RuntimeError):
    """A pass could not run, so the outputs could not be checked."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_pass(workload: str, seed: int, index: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise GateError(f"pass {index} timed out after {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise GateError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "seed": seed,
        "commit": git_commit(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced passes until the next would overrun; end-to-end metrics.

    Every pass runs the same operations.  Each operation's time is scaled to
    the reference host speed (``hostspeed``), and the median over the passes
    is taken per operation; the timings derive from these medians.
    """
    passes = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(workload, seed, len(passes), trace=False))
        last = time.perf_counter() - t
        if time.perf_counter() - started + last > seconds:
            break
    if len({len(p["latencies_s"]) for p in passes}) != 1:
        raise GateError("passes ran different numbers of operations")
    for p in passes:
        p["scaled_s"] = [x * NOMINAL_S / ref for x, ref in zip(p["latencies_s"], p["ref_s"])]
    op_s = [statistics.median(times) for times in zip(*(p["scaled_s"] for p in passes))]
    p50, p95 = (statistics.quantiles(op_s, n=100, method="inclusive")[k] for k in (49, 94))
    metrics = {
        "wall_s": sum(op_s),
        "setup_s": statistics.median(p["setup_s"] * NOMINAL_S / p["setup_ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "req_p50_ms": 1000 * p50,
        "req_p95_ms": 1000 * p95,
        "req_per_s": len(op_s) / sum(op_s),
    }
    timed = f"{len(op_s)}x{len(passes)}"  # operations x passes
    samples = {
        "wall_s": timed, "setup_s": len(passes), "peak_rss_mb": len(passes),
        "req_p50_ms": timed, "req_p95_ms": timed, "req_per_s": timed,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": samples[k]} for k, v in metrics.items()}, passes


def measure_traced(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """One untraced and one traced pass over the same inputs; per-layer metrics."""
    plain = run_pass(workload, seed, 0, trace=False)
    traced = run_pass(workload, seed, 0, trace=True)
    layers = dict(traced.pop("layers"))
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: {"value": layers[k], "unit": units[k], "samples": 1} for k, _, _ in PER_LAYER}, [plain, traced]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the bms law sweeps and CLI.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running pass before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if args.trace:
            metrics, passes = measure_traced(args.workload, args.seed)
        else:
            metrics, passes = measure(args.workload, args.seed, args.seconds)
    except GateError as exc:
        print(f"error: the correctness gate could not run: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = [name for p in passes for name in p["failed"]]
    correct = not failed and all(p.get("tracer_ok", True) for p in passes)
    env = environment(args.seed)

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, "env": env,
        "correct": correct, "attempted": attempted, "failed": len(failed), "failed_ops": failed,
        "failed_share": len(failed) / attempted, "metrics": metrics,
        "passes": passes,
    }
    if not args.trace:
        record["unscaled_wall_s"] = sum(statistics.median(t) for t in zip(*(p["latencies_s"] for p in passes)))
        record["reference_slice_s"] = statistics.median(r for p in passes for r in p["ref_s"])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads"))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    if not args.trace:
        print(f"# unscaled wall_s = {record['unscaled_wall_s']:.6g} s; reference slice "
              f"{1000 * record['reference_slice_s']:.4g} ms, nominal {1000 * NOMINAL_S:.4g} ms")
    print(f"failed_share = {len(failed)}/{attempted}" + (f"  failed: {sorted(set(failed))}" if failed else ""))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
