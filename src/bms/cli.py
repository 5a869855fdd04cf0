"""Command-line front end.

All commands read and write the package's JSON formats on files and stdout;
``export-dot`` emits Graphviz text instead.  Exit codes: 0 ok, 1 I/O error,
2 schema violation (including malformed JSON and bad arguments), 3
mathematical domain error (divisibility, overflow or a size limit), 4
verification failure, 5 internal error (any other exception, such as
running out of memory).  Every error is one JSON line on stderr with an
empty stdout.  Randomized commands take --seed and default to seed 0.

``main`` may be called many times in one process.  The argument parser is
built on the first call and shared by the later ones; it keeps no state
between calls.  ``hom`` streams its output from ``mspace.hom_factors`` and
builds no morphism, so its memory does not grow with the morphism count;
its output is byte for byte the ``json.dumps`` of the ``{"count", "homs"}``
object of the ``morphism_to_dict`` forms of ``enumerate_homs``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Iterator, Optional, Sequence

from . import duality, laws, limits, mv, omega
from .errors import MathDomainError, SchemaError
from .mspace import (
    BmsMorphism,
    MultiSpace,
    limited_hom_factors,
    morphism_from_dict,
    morphism_to_dict,
    space_from_dict,
    space_to_dict,
)
from .sgroup import group_from_dict, group_to_dict, lhom_from_dict, lhom_to_dict

EXIT_OK = 0
EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_MATH = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5

_EPILOG = """exit codes:
  0  success
  1  I/O error (unreadable or unwritable file)
  2  schema violation (malformed JSON, bad arguments, mismatched objects)
  3  math-domain error (divisibility failure, overflow, size limit)
  4  verification failure (a law sweep or demo found violations)
  5  internal error (out of memory, recursion depth, any other failure)
"""


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports errors as single-line JSON on stderr."""

    def error(self, message: str) -> None:  # type: ignore[override]
        print(json.dumps({"error": message, "kind": "schema"}), file=sys.stderr)
        raise SystemExit(EXIT_SCHEMA)


def _nonnegative_int(text: str) -> int:
    """An argparse type for a bound: a decimal integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _load(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _emit(data: object) -> None:
    print(json.dumps(data, sort_keys=False))


def _dot_quote(text: str) -> str:
    """A DOT double-quoted string holding ``text`` literally."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(m: BmsMorphism) -> str:
    """Two clusters of label:mult nodes, edges labeled with zeta values."""
    lines = ["digraph bms_morphism {", "  rankdir=LR;"]
    for name, space in (("dom", m.dom), ("cod", m.cod)):
        lines += [f"  subgraph cluster_{name} {{", f'    label="{name}";']
        for i, (lab, mult) in enumerate(zip(space.labels, space.mults)):
            lines.append(f"    {name[0]}{i} [label={_dot_quote(f'{lab}:{mult}')}];")
        lines.append("  }")
    lines += [f'  d{i} -> c{j} [label="{z}"];' for i, (j, z) in enumerate(m.rows)]
    lines.append("}")
    return "\n".join(lines)


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(
        prog="bms",
        description="Exact computations with finite boolean multispaces and their dual groups.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("space", help="validate a space file")
    sp_sub = sp.add_subparsers(dest="action", required=True)
    sp_check = sp_sub.add_parser("check")
    sp_check.add_argument("file")

    mo = sub.add_parser("morph", help="validate a morphism file")
    mo_sub = mo.add_subparsers(dest="action", required=True)
    mo_check = mo_sub.add_parser("check")
    mo_check.add_argument("file")

    hom = sub.add_parser("hom", help="enumerate all morphisms X -> Y")
    hom.add_argument("x")
    hom.add_argument("y")

    dual = sub.add_parser("dual", help="apply the duality to an object or morphism")
    dual.add_argument("what", choices=["obj", "mor"])
    dual.add_argument("file")

    for name in ("product", "coproduct"):
        c = sub.add_parser(name, help=f"{name} of two spaces")
        c.add_argument("a")
        c.add_argument("b")
    for name in ("equalizer", "pullback"):
        c = sub.add_parser(name, help=f"{name} of two morphisms")
        c.add_argument("f")
        c.add_argument("g")

    lim = sub.add_parser("limit", help="limit of a finite diagram")
    lim.add_argument("--diagram", required=True)

    gam = sub.add_parser("gamma", help="unit-interval MV-algebra of a group")
    gam.add_argument("file")

    lw = sub.add_parser("laws", help="run the invariant sweep")
    lw.add_argument("--max-points", type=int, default=2)
    lw.add_argument("--max-mult", type=int, default=3)
    lw.add_argument("--seed", type=int, default=0)

    om = sub.add_parser("omega", help="obstruction demos on the compactified naturals")
    om_sub = om.add_subparsers(dest="action", required=True)
    demo = om_sub.add_parser("demo")
    demo.add_argument("--which", required=True, choices=["not-specker", "power", "pushout"])
    demo.add_argument("--bound", type=_nonnegative_int, default=16)
    demo.add_argument("--seed", type=int, default=0)

    dot = sub.add_parser("export-dot", help="render a morphism as Graphviz text")
    dot.add_argument("file")
    return p


def _homs_json(x: MultiSpace, y: MultiSpace) -> Iterator[str]:
    """``json.dumps({"count": n, "homs": [morphism_to_dict(h) ...]})`` of
    ``enumerate_homs(x, y)``, in pieces.  The spaces are encoded once, and so
    is each ``"x": "y"`` candidate piece of ``hom_factors``; a morphism is one
    piece per domain point, joined with the default separators of
    ``json.dumps``.  Above ``HOM_LIMIT`` morphisms it raises SizeLimitError
    before yielding anything."""
    factors = limited_hom_factors(x, y)
    head = f'{{"dom": {json.dumps(space_to_dict(x))}, "cod": {json.dumps(space_to_dict(y))}, "map": {{'
    values = [json.dumps(label) for label in y.labels]
    pieces = [
        [f"{json.dumps(label)}: {values[j]}" for j, _ in rows] for label, rows in zip(x.labels, factors)
    ]
    yield f'{{"count": {math.prod(map(len, factors))}, "homs": ['
    sep = ""
    for choice in itertools.product(*pieces):
        yield sep + head + ", ".join(choice) + "}}"
        sep = ", "
    yield "]}"


def _dual_obj(data: object) -> dict:
    if isinstance(data, dict) and "points" in data:
        return group_to_dict(duality.function_group(space_from_dict(data)))
    if isinstance(data, dict) and "space" in data:
        return space_to_dict(duality.spectrum_space(group_from_dict(data)))
    raise SchemaError("expected a space or group JSON object")


def _dual_mor(data: object) -> dict:
    if isinstance(data, dict) and "map" in data:
        return lhom_to_dict(duality.dual_hom(morphism_from_dict(data)))
    if isinstance(data, dict) and "matrix" in data:
        return morphism_to_dict(duality.spectrum_map(lhom_from_dict(data)))
    raise SchemaError("expected a morphism or lhom JSON object")


def _run(args: argparse.Namespace) -> int:
    if args.verb == "space":
        _emit(space_to_dict(space_from_dict(_load(args.file))))
    elif args.verb == "morph":
        _emit(morphism_to_dict(morphism_from_dict(_load(args.file))))
    elif args.verb == "hom":
        x = space_from_dict(_load(args.x))
        y = space_from_dict(_load(args.y))
        sys.stdout.writelines(_homs_json(x, y))
        print()
    elif args.verb == "dual":
        data = _load(args.file)
        _emit(_dual_obj(data) if args.what == "obj" else _dual_mor(data))
    elif args.verb == "product":
        cone = limits.product(space_from_dict(_load(args.a)), space_from_dict(_load(args.b)))
        _emit(limits.cone_to_dict(cone))
    elif args.verb == "coproduct":
        cc = limits.coproduct(space_from_dict(_load(args.a)), space_from_dict(_load(args.b)))
        _emit(limits.cocone_to_dict(cc))
    elif args.verb == "equalizer":
        cone = limits.equalizer(morphism_from_dict(_load(args.f)), morphism_from_dict(_load(args.g)))
        _emit(limits.cone_to_dict(cone))
    elif args.verb == "pullback":
        cone = limits.pullback(morphism_from_dict(_load(args.f)), morphism_from_dict(_load(args.g)))
        _emit(limits.cone_to_dict(cone))
    elif args.verb == "limit":
        cone = limits.limit(limits.diagram_from_dict(_load(args.diagram)))
        _emit(limits.cone_to_dict(cone))
    elif args.verb == "gamma":
        group = group_from_dict(_load(args.file))
        report = mv.verify_mv_axioms(group)
        _emit({
            "cardinality": mv.cardinality(group),
            "fibers": [{"points": list(c.points), "n": c.n} for c in mv.fiber_decomposition(group)],
            "axioms": "pass" if report["pass"] else "fail",
        })
        if not report["pass"]:
            return EXIT_VERIFY
    elif args.verb == "laws":
        report = laws.run_laws(args.max_points, args.max_mult, args.seed)
        _emit(report)
        if not report["ok"]:
            return EXIT_VERIFY
    elif args.verb == "omega":
        if args.which == "not-specker":
            report = omega.not_specker_demo(seed=args.seed)
        elif args.which == "power":
            report = omega.countable_power_demo(max_k=args.bound)
        else:
            report = omega.pushout_demo(bound=args.bound)
        _emit(report)
        if not report["confirmed"]:
            return EXIT_VERIFY
    elif args.verb == "export-dot":
        print(export_dot(morphism_from_dict(_load(args.file))))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "kind": "schema"}), file=sys.stderr)
        return EXIT_SCHEMA
    except MathDomainError as exc:
        print(json.dumps({"error": str(exc), "kind": "math-domain"}), file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(json.dumps({"error": str(exc), "kind": "io"}), file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # the process boundary: no traceback escapes
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}", "kind": "internal"}), file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
