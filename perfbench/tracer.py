"""Span tracer that wraps `bms` layer functions from outside.

Each traced function is replaced, in every loaded ``bms`` module namespace
that holds it (``from .mspace import compose`` binds ``laws.compose``
separately), by a wrapper that records one span: name, start, end, parent
span and the benchmark operation it belongs to.  Constructors and operators
are traced by wrapping the class attribute.  Spans live in flat arrays and
are written once, at the end; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Operators of GroupElement; wrapping __mul__ also wraps its alias __rmul__.
ELEMENT_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__abs__")
# (module, attribute, span name); "Class.method" wraps a class attribute.
TARGETS = (
    [("ints", "checked", "ints.checked"),
     ("sgroup", "GroupElement.__init__", "sgroup.GroupElement")]
    + [("sgroup", f"GroupElement.{m}", f"sgroup.GroupElement.{m}") for m in ELEMENT_OPS]
    + [("sgroup", f, f"sgroup.{f}") for f in (
        "meet", "join", "leq", "hyperarch_witness", "is_singular_definitional",
        "is_maximal_by_criterion", "compose_lhom")]
    + [("sgroup", "LHom.__init__", "sgroup.LHom"),
       ("mspace", "BmsMorphism.__init__", "mspace.BmsMorphism"),
       ("mspace", "compose", "mspace.compose"),
       ("mspace", "enumerate_homs", "mspace.enumerate_homs"),
       ("duality", "dual_hom", "duality.dual_hom"),
       ("duality", "spectrum_map", "duality.spectrum_map"),
       ("duality", "enumerate_lhoms", "duality.enumerate_lhoms"),
       ("limits", "limit", "limits.limit"),
       ("limits", "verify_universal", "limits.verify_universal"),
       ("mv", "verify_mv_axioms", "mv.verify_mv_axioms"),
       ("omega", "subgroup_membership", "omega.subgroup_membership"),
       ("intlinalg", "solve_integer_system", "intlinalg.solve_integer_system"),
       ("intlinalg", "smith_decomposition", "intlinalg.smith_decomposition"),
       ("cli", "main", "cli.main")]
)
LAW_CHECKS = (
    "check_category_laws", "check_round_trip", "check_naturality", "check_hom_bijection",
    "check_functoriality", "check_limit_law", "check_duality_exchange", "check_stone_restriction",
    "check_singular_theory", "check_ideal_correspondence", "check_hyperarch", "check_gamma_laws",
)
TARGETS += [("laws", c, f"laws.{c}") for c in LAW_CHECKS]
ELEMENT_OP_SPANS = [f"sgroup.GroupElement.{m}" for m in ELEMENT_OPS] + ["sgroup.meet", "sgroup.join", "sgroup.leq"]
CACHES = (("duality", "spectrum_space"), ("duality", "unit_iso"), ("duality", "counit_iso"), ("limits", "_homs"))
EXIT_CODES = (0, 2, 3)


def _add(key: str, amount):
    """A hook adding ``amount(args, result)`` to the counter ``key``."""
    def hook(t: "Tracer", args, result) -> None:
        t.extra[key] += amount(args, result)
    return hook


def _mv_table(t: "Tracer", args, result) -> None:
    """Bytes of the two n^3 int64 index tensors of the associativity sweep,
    computed from the element count (not measured)."""
    key = "mv.verify_mv_axioms.table_bytes"
    t.extra[key] = max(t.extra[key], 2 * 8 * result["cardinality"] ** 3)


HOOKS = {
    "mspace.enumerate_homs": [_add("mspace.enumerate_homs.homs", lambda a, r: len(r))],
    "limits.verify_universal": [_add("limits.verify_universal.cones", lambda a, r: r["cones"])],
    "limits.limit": [
        _add("limits.limit.scanned", lambda a, r: math.prod(len(o) for o in a[0].objects)),
        _add("limits.limit.apex", lambda a, r: len(r.apex)),
    ],
    "mv.verify_mv_axioms": [_add("mv.verify_mv_axioms.elements", lambda a, r: r["cardinality"]), _mv_table],
}


def _calls_self(name: str) -> list[tuple[str, str, str]]:
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]


# Every per-layer metric of a traced run, as (name, unit, better).
# BENCHMARK.json lists exactly these.
PER_LAYER = (
    _calls_self("ints.checked") + _calls_self("sgroup.GroupElement") + _calls_self("sgroup.element_ops")
    + _calls_self("sgroup.hyperarch_witness")
    + [("sgroup.is_singular_definitional.self_s", "s", "lower"),
       ("sgroup.is_maximal_by_criterion.self_s", "s", "lower")]
    + _calls_self("sgroup.LHom") + _calls_self("sgroup.compose_lhom") + _calls_self("mspace.compose")
    + [("mspace.BmsMorphism.calls", "count", "lower")]
    + _calls_self("mspace.enumerate_homs") + [("mspace.enumerate_homs.homs", "count", "lower")]
    + _calls_self("duality.dual_hom")
    + [("duality.spectrum_map.self_s", "s", "lower"), ("duality.enumerate_lhoms.self_s", "s", "lower")]
    + [(f"{m}.{f}.hit_ratio", "ratio", "higher") for m, f in CACHES]
    + _calls_self("limits.limit") + [("limits.limit.useful_ratio", "ratio", "higher")]
    + _calls_self("limits.verify_universal") + [("limits.verify_universal.cones", "count", "lower")]
    + _calls_self("mv.verify_mv_axioms")
    + [("mv.verify_mv_axioms.elements", "count", "lower"),
       ("mv.verify_mv_axioms.table_bytes", "bytes_computed", "lower")]
    + _calls_self("omega.subgroup_membership") + _calls_self("intlinalg.smith_decomposition")
    + [("intlinalg.solve_integer_system.calls", "count", "lower")]
    + [(f"laws.{c}.s", "s", "lower") for c in LAW_CHECKS]
    + _calls_self("cli.main") + [(f"cli.exit_{c}.calls", "count", "lower") for c in EXIT_CODES]
    + [("trace.overhead_ratio", "ratio", "lower"), ("trace.spans", "count", "lower")]
)


class Tracer:
    """The spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[str, float] = defaultdict(float)
        self.op = -1  # set by the benchmark before each operation
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        hooks = HOOKS.get(name, ())
        stack, span_name, parent, op_index = self._stack, self.span_name, self.parent, self.op_index
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            op_index.append(self.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            for hook in hooks:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in its defining module and in each importer."""
        namespaces = [m for n, m in list(sys.modules.items()) if n == "bms" or n.startswith("bms.")]
        for module, attr, name in TARGETS:
            mod = sys.modules[f"bms.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(orig, name)
                for key, value in list(cls.__dict__.items()):  # __rmul__ is __mul__
                    if value is orig:
                        self._restore.append((cls, key, orig))
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._restore.append((ns, key, orig))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_index, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def layer_metrics(self, exit_codes: list[int]) -> dict[str, float]:
        """Every per-layer metric but the overhead, which needs the untraced run.

        Call after the traced work: cache statistics are read from the live
        ``lru_cache`` objects of this process.
        """
        a = self.arrays()
        ids = a["name"]
        own = self.self_times()
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        total_s = np.bincount(ids, weights=a["end"] - a["start"], minlength=n)

        def by(arr, *names: str) -> float:
            return float(sum(arr[self.name_ids[x]] for x in names if x in self.name_ids))

        m: dict[str, float] = defaultdict(float, self.extra)
        for _, _, name in TARGETS:
            m[f"{name}.calls"] = by(calls, name)
            m[f"{name}.self_s"] = by(self_s, name)
        m["sgroup.element_ops.calls"] = by(calls, *ELEMENT_OP_SPANS)
        m["sgroup.element_ops.self_s"] = by(self_s, *ELEMENT_OP_SPANS)
        for c in LAW_CHECKS:
            m[f"laws.{c}.s"] = by(total_s, f"laws.{c}")
        if m["limits.limit.scanned"]:
            m["limits.limit.useful_ratio"] = m["limits.limit.apex"] / m["limits.limit.scanned"]
        for module, fn in CACHES:
            info = getattr(sys.modules[f"bms.{module}"], fn).cache_info()
            looked = info.hits + info.misses
            m[f"{module}.{fn}.hit_ratio"] = info.hits / looked if looked else 0.0
        for code in EXIT_CODES:
            m[f"cli.exit_{code}.calls"] = float(sum(c == code for c in exit_codes))
        m["trace.spans"] = float(len(ids))
        return {name: m[name] for name, _, _ in PER_LAYER if name != "trace.overhead_ratio"}
