"""The traced benchmark (``perfbench/tracer.py``) wraps ``bms`` functions and
reads ``lru_cache`` statistics by name, so a rename in ``bms`` would silently
empty its per-layer metrics.  These tests resolve every name it lists."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # run_path compiles in memory, so nothing is written under perfbench/
    return runpy.run_path(str(TRACER))


def test_trace_targets_resolve(tracer):
    missing = []
    for module, attr, name in tracer["TARGETS"]:
        mod = importlib.import_module(f"bms.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            ok = isinstance(cls, type) and meth in vars(cls)
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append(name)
    assert missing == []


def test_traced_caches_have_cache_info(tracer):
    for module, fn in tracer["CACHES"]:
        info = getattr(importlib.import_module(f"bms.{module}"), fn).cache_info()
        assert info.hits >= 0 and info.misses >= 0
