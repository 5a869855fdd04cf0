"""One pass of a workload in a fresh process: the unit ``run.py`` repeats.

A pass imports `bms` from the checkout's ``src``, builds the workload's
inputs (this is the set-up time), runs its operations in a closed loop with
one client, then checks every result and prints one JSON report line.  An
untraced pass also times reference slices (``hostspeed``) around set-up and
while the operations run, and reports each operation's time without them.  A
fresh process per pass keeps the ``lru_cache``s of `bms` cold at the start
of every pass, as they are for a user's own process.

    python3 perfbench/child.py --workload W --seed N --trace 0|1 --workdir DIR

The CLI workload writes its input files into DIR, which the caller owns.
"""

from __future__ import annotations

import time

import hostspeed  # standard library only

# Reference slices on both sides of set-up give the host's speed during it.
SETUP_REF = [hostspeed.timed_slice() for _ in range(2)]
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_bms() -> None:
    """Import all of `bms` from this checkout's source tree and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import bms
    import bms.cli  # noqa: F401  (imports every other module)

    if Path(bms.__file__).resolve().parent != ROOT / "src" / "bms":
        raise SystemExit(f"bms imported from {bms.__file__}, not from {ROOT / 'src'}")


def run_pass(workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    import tracer as tracing
    import workloads

    ops = workloads.build(workload, seed, workdir)
    setup_s = time.perf_counter() - T0
    # A traced pass samples no host speed: the slices would count as self
    # time of whatever span they interrupt.
    tracer = tracing.Tracer() if trace else None
    speed = None if trace else hostspeed.HostSpeed()
    if tracer:
        tracer.install()
    else:
        speed.start()
    intervals, results = [], []
    started = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer:
            tracer.op = k
        t = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001  counted as a failed operation
            result = exc
        intervals.append((t, time.perf_counter()))
        results.append(result)
    wall_s = time.perf_counter() - started
    if tracer:
        tracer.uninstall()
    else:
        speed.stop()
        wall_s -= speed.busy_within(started, started + wall_s)

    failed = [op.name + (f": {r!r}" if isinstance(r, Exception) else "")
              for op, r in zip(ops, results) if not workloads.passed(op, r)]
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": [t1 - t0 - (speed.busy_within(t0, t1) if speed else 0) for t0, t1 in intervals],
        "attempted": len(ops),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if speed:
        report["setup_ref_s"] = statistics.fmean([e - s for s, e in SETUP_REF] + speed.durations(0, 1))
        report["ref_s"] = [speed.reference_around(t0, t1) for t0, t1 in intervals]
    if tracer:
        exit_codes = [r[0] for r in results if isinstance(r, tuple)] if workload == "cli_requests" else []
        layers = tracer.layer_metrics(exit_codes)
        self_sum = float(tracer.self_times().sum())
        report["layers"] = layers
        # Self times partition the traced intervals, so they cannot exceed the wall.
        report["tracer_ok"] = self_sum <= wall_s + 1e-6
        report["self_s_sum"] = self_sum
        tracer.write(OUT / f"spans-{workload}.npz")  # one file per workload, the latest
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    import_bms()
    report = run_pass(args.workload, args.seed, bool(args.trace), args.workdir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
