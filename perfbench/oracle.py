"""Expected `bms` CLI outputs, computed from the request's JSON inputs alone.

Nothing here imports `bms`: each expectation is an independent brute-force
computation (divisor scans, LCM scans, products of chain lengths), so the
correctness gate does not trust the code it measures.
"""

from __future__ import annotations

import itertools
import json
import math

SPEC_PREFIX = "m_"
KIND_OF_CODE = {2: "schema", 3: "math-domain"}


def points(space: dict) -> list[tuple[str, int]]:
    return [(p["label"], p["mult"]) for p in space["points"]]


def tuple_label(labels) -> str:
    return "(" + ",".join(labels) + ")"


def spectrum(space: dict) -> dict:
    return {"points": [{"label": SPEC_PREFIX + l, "mult": m} for l, m in points(space)]}


def hom_candidates(x: dict, y: dict) -> list[list[str]]:
    """Per point of x, the points of y whose multiplicity divides its own."""
    return [[l for l, n in points(y) if m % n == 0] for _, m in points(x)]


def hom_count(x: dict, y: dict) -> int:
    return math.prod(len(c) for c in hom_candidates(x, y))


def hom(x: dict, y: dict) -> dict:
    labels = [l for l, _ in points(x)]
    maps = [dict(zip(labels, t)) for t in itertools.product(*hom_candidates(x, y))]
    return {
        "count": hom_count(x, y),
        "homs": [{"dom": x, "cod": y, "map": m} for m in maps],
    }


def limit(objects: list[dict], arrows: list[tuple[int, int, dict]]) -> dict:
    """Limit cone by a scan of all point tuples, apex multiplicity the LCM."""
    apex, comps = [], []
    for combo in itertools.product(*(points(o) for o in objects)):
        labels = [l for l, _ in combo]
        if all(m[labels[s]] == labels[t] for s, t, m in arrows):
            apex.append({"label": tuple_label(labels), "mult": math.lcm(*(m for _, m in combo))})
            comps.append(labels)
    apex_space = {"points": apex}
    return {
        "apex": apex_space,
        "legs": [
            {"dom": apex_space, "cod": obj, "map": {a["label"]: c[i] for a, c in zip(apex, comps)}}
            for i, obj in enumerate(objects)
        ],
    }


def dual_morphism(f: dict) -> dict:
    """Row x of the dual matrix carries m(x) / m(f(x)) in the column of f(x)."""
    cod_labels = [l for l, _ in points(f["cod"])]
    cod_mult = dict(points(f["cod"]))
    rows = []
    for x, m in points(f["dom"]):
        row = [0] * len(cod_labels)
        row[cod_labels.index(f["map"][x])] = m // cod_mult[f["map"][x]]
        rows.append(row)
    return {"dom": {"space": f["cod"]}, "cod": {"space": f["dom"]}, "matrix": rows}


def dual_lhom(h: dict) -> dict:
    """The spectrum map of a matrix: each row's point goes to its nonzero column."""
    dom_labels = [l for l, _ in points(h["dom"]["space"])]
    mapping = {}
    for (w, _), row in zip(points(h["cod"]["space"]), h["matrix"]):
        col = next(i for i, k in enumerate(row) if k)
        mapping[SPEC_PREFIX + w] = SPEC_PREFIX + dom_labels[col]
    return {"dom": spectrum(h["cod"]["space"]), "cod": spectrum(h["dom"]["space"]), "map": mapping}


def gamma(group: dict) -> dict:
    """Γ of a group: the product of the chains [0, u_i], one fiber per unit value."""
    pts = points(group["space"])
    fibers: dict[int, list[str]] = {}
    for l, u in pts:
        fibers.setdefault(u, []).append(l)
    return {
        "cardinality": math.prod(u + 1 for _, u in pts),
        "fibers": [{"points": ls, "n": u} for u, ls in sorted(fibers.items())],
        "axioms": "pass",
    }


def _last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def expect_output(compute):
    """A check passing iff exit 0 and stdout is exactly the JSON that
    ``compute()`` returns; computed only when the check runs."""
    def check(code: int, out: str, err: str) -> bool:
        return code == 0 and json.loads(out) == compute()
    return check


def expect_flag(key: str, value):
    """A check passing iff exit 0 and the stdout object has ``key == value``."""
    def check(code: int, out: str, err: str) -> bool:
        return code == 0 and json.loads(out).get(key) == value
    return check


def expect_error(code_expected: int):
    """A check for a refused request: the documented exit code, nothing on
    stdout, and one JSON error line of the matching kind on stderr."""
    def check(code: int, out: str, err: str) -> bool:
        if code != code_expected or out:
            return False
        try:
            report = _last_json(err)
        except json.JSONDecodeError:
            return False
        return isinstance(report, dict) and report.get("kind") == KIND_OF_CODE[code_expected]
    return check
