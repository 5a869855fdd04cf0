"""Regenerate the expected outcomes of the golden CLI requests.

Each entry of ``requests.json`` names one ``bms`` request and gives its
argv, with the paths of its input files under ``inputs/``.  The outcome of
a request is its exit code, the sha-256 of its stdout and the ``kind`` of
its stderr error (null when stderr is empty).  ``tests/test_golden.py`` runs every
request in process through ``bms.cli.main`` and compares the outcomes with
the stored ones.

The ``cli_1_*`` requests are the 100 requests of the ``cli_requests``
benchmark block of seed 1 (``perfbench/workloads.cli_block(1, ...)``), in
its order, with their input files copied once into ``inputs/cli_1/``.  They
are plain files here, so that the tests do not import ``perfbench``.

``laws_slow.sha256`` holds the stdout hashes of ``bms laws`` at (3, 4) and
(1, 99), which take too long for tier-1; CI checks them with ``sha256sum -c``.

Run this script only for a change that means to alter the output; it keeps
each name and argv and rewrites the outcomes:

    PYTHONPATH=src python3 tests/golden/regenerate.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from bms import cli

HERE = Path(__file__).resolve().parent
REQUESTS = HERE / "requests.json"


def outcome(argv: list[str]) -> dict:
    """Run one request in process, its ``inputs/`` paths read from this
    directory."""
    argv = [str(HERE / a) if a.startswith("inputs/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals leave main this way
            code = exc.code
    errors = err.getvalue().splitlines()
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_kind": json.loads(errors[-1])["kind"] if errors else None,
    }


if __name__ == "__main__":
    cases = json.loads(REQUESTS.read_text(encoding="utf-8"))
    for case in cases:
        case.update(outcome(case["argv"]))
    lines = ",\n".join(json.dumps(case) for case in cases)
    REQUESTS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
