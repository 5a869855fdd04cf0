"""Golden outputs: every request of ``tests/golden/requests.json`` gives
its stored exit code, stdout hash and stderr error kind.  A change that
means to alter an output regenerates them with
``tests/golden/regenerate.py`` and says which hashes changed and why."""

import json

import pytest

from golden.regenerate import REQUESTS, outcome

CASES = json.loads(REQUESTS.read_text(encoding="utf-8"))


def test_the_requests_cover_the_error_exit_codes():
    assert {0, 1, 2, 3} <= {case["exit"] for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_request_gives_its_golden_outcome(case):
    expected = {key: case[key] for key in ("exit", "stdout_sha256", "stderr_kind")}
    assert outcome(case["argv"]) == expected
