"""Seeded inputs and operations of the three workloads.

Each workload builds a list of operations from its seed.  An operation is a
name, a thunk that calls into `bms`, and a check that judges the thunk's
result.  The caller times the thunks and runs the checks afterwards, so
checking costs nothing inside the timed region.

- ``morphism_sweep``: the morphism-level law checks over ``all_spaces(3, 4)``.
- ``element_sweep``: the element-level law checks over ``all_groups(3, 4)``,
  one operation per chunk of five groups.
- ``cli_requests``: one block of ``bms`` argv lists run through ``cli.main``.

Every pass of a run builds the same operations from the seed, so that an
operation can be timed once per pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

import oracle

WORKLOADS = ("morphism_sweep", "element_sweep", "cli_requests")
ELEMENT_CHUNK = 5


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _no_failures(result: object) -> bool:
    return result == []


# -- the two law sweeps --------------------------------------------------------

def morphism_inputs(seed: int) -> tuple[list, list, list]:
    """The universe ``all_spaces(3, 4)`` in seeded order, its <=2-point
    spaces, and the triple set of the associativity sweep."""
    from bms import laws

    spaces = laws.all_spaces(3, 4)
    random.Random(seed).shuffle(spaces)
    return spaces, [x for x in spaces if len(x) <= 2], laws.representative_spaces()


def element_inputs(seed: int) -> list[list]:
    """``all_groups(3, 4)`` cut into 17 chunks of 5 consecutive groups, in
    seeded order."""
    from bms import laws

    groups = laws.all_groups(3, 4)
    chunks = [groups[i:i + ELEMENT_CHUNK] for i in range(0, len(groups), ELEMENT_CHUNK)]
    random.Random(seed).shuffle(chunks)
    return chunks


def morphism_sweep(seed: int) -> list[Op]:
    """The morphism-level checks of ``run_laws``, in its order, at (3, 4).

    The seed orders the universe and seeds the functoriality sample; every
    check still sees the same set of spaces, so the work is the same.
    """
    from bms import laws

    spaces, small, reps = morphism_inputs(seed)
    # Looked up on the module at call time, so a tracer's wrappers apply.
    calls = [
        ("check_category_laws", lambda: laws.check_category_laws(spaces, reps)),
        ("check_round_trip", lambda: laws.check_round_trip(spaces)),
        ("check_naturality", lambda: laws.check_naturality(spaces)),
        ("check_hom_bijection", lambda: laws.check_hom_bijection(spaces)),
        ("check_functoriality", lambda: laws.check_functoriality(small, sample=20000, seed=seed)),
        ("check_limit_law", lambda: laws.check_limit_law(spaces, small)),
        ("check_duality_exchange", lambda: laws.check_duality_exchange(spaces)),
        ("check_stone_restriction", lambda: laws.check_stone_restriction(spaces)),
    ]
    return [Op(name, fn, _no_failures) for name, fn in calls]


def element_sweep(seed: int) -> list[Op]:
    """Singular theory, ideal correspondence and hyperarch (value bound 2)
    over ``all_groups(3, 4)``; one operation runs all three on one chunk.

    Single groups fall into cost classes by point count and largest
    multiplicity, and the median sat on the edge between two classes, so it
    jumped between them from pass to pass.  Chunks of five consecutive
    groups spread their costs without such gaps.
    """
    from bms import laws

    def run(chunk) -> list[str]:
        return (laws.check_singular_theory(chunk) + laws.check_ideal_correspondence(chunk)
                + laws.check_hyperarch(chunk, value_bound=2))

    return [Op("groups", lambda c=c: run(c), _no_failures) for c in element_inputs(seed)]


# -- the CLI request stream ----------------------------------------------------

# One block: 100 requests, shuffled.  Latency classes, fastest first: 76
# requests cost little more than argument parsing; the 4-object limits, the
# not-specker demo and the middle gamma units take a few to tens of
# milliseconds (13); the 8 big `hom` requests come next (ranks 90-97); the
# laws sweep and the top two gamma units are the slowest (98-100).  So the
# median falls deep inside the cheap class and the 95th percentile inside
# the `hom` class, away from any class boundary.
OMEGA_DEMOS = ("not-specker", "power", "pushout")
GAMMA_LADDER = ((2, 2), (3, 3, 3), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 2))
BAD_REQUESTS = (
    "malformed_json", "zero_mult", "divisibility", "unknown_verb", "overflow",
    "arrow_out_of_range", "gamma_of_space", "not_parallel", "missing_arg", "bad_int_arg",
)
BLOCK_MIX = (
    ("dual_obj_space", 7), ("dual_obj_group", 7), ("dual_mor_morphism", 7), ("dual_mor_lhom", 7),
    ("product", 13), ("pullback", 11), ("equalizer", 11), ("omega", len(OMEGA_DEMOS)), ("laws", 1),
    ("gamma", len(GAMMA_LADDER)), ("limit4", 10), ("hom_big", 8), ("bad", len(BAD_REQUESTS)),
)


def _space(prefix: str, mults) -> dict:
    return {"points": [{"label": f"{prefix}{i}", "mult": m} for i, m in enumerate(mults, 1)]}


def _random_space(rng: random.Random, prefix: str, lo: int, hi: int, max_mult: int) -> dict:
    return _space(prefix, [rng.randint(1, max_mult) for _ in range(rng.randint(lo, hi))])


def _morphism_into(rng: random.Random, cod: dict, n_dom: int, prefix: str) -> dict:
    """A random morphism onto ``cod`` from a fresh domain whose multiplicities
    are multiples of their targets'."""
    targets = [rng.choice(cod["points"]) for _ in range(n_dom)]
    dom = _space(prefix, [t["mult"] * rng.randint(1, 3) for t in targets])
    return {"dom": dom, "cod": cod, "map": {p["label"]: t["label"] for p, t in zip(dom["points"], targets)}}


def _parallel_to(rng: random.Random, f: dict) -> dict:
    """Another morphism with the domain and codomain of ``f``."""
    cod = oracle.points(f["cod"])
    mapping = {x: rng.choice([l for l, n in cod if m % n == 0]) for x, m in oracle.points(f["dom"])}
    return {"dom": f["dom"], "cod": f["cod"], "map": mapping}


def _big_hom_shapes() -> list[tuple[list[int], list[int]]]:
    """Multiplicities of the ``hom_big`` pairs: a 5-point and a 6-point space
    with 2000 to 4000 morphisms between them, drawn once for every seed."""
    rng = random.Random("hom_big")
    shapes = []
    while len(shapes) < dict(BLOCK_MIX)["hom_big"]:
        y = [rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(6)]
        x = [rng.choice((4, 6, 12, 24)) for _ in range(5)]
        if 2000 <= oracle.hom_count(_space("x", x), _space("y", y)) <= 4000:
            shapes.append((x, y))
    return shapes


HOM_SHAPES = _big_hom_shapes()


class _Block:
    """Writes one block's input files and collects its requests."""

    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self.requests: list[tuple[str, list[str], Callable]] = []
        self._files = 0

    def file(self, data, raw: str | None = None) -> str:
        self._files += 1
        path = self.workdir / f"in{self._files:03d}.json"
        path.write_text(raw if raw is not None else json.dumps(data), encoding="utf-8")
        return str(path)

    def add(self, kind: str, argv: list[str], check: Callable) -> None:
        self.requests.append((kind, argv, check))

    # one method per request kind -------------------------------------------

    def dual_obj_space(self) -> None:
        x = _random_space(self.rng, "p", 1, 4, 12)
        self.add("dual_obj_space", ["dual", "obj", self.file(x)], oracle.expect_output(lambda: {"space": x}))

    def dual_obj_group(self) -> None:
        g = {"space": _random_space(self.rng, "p", 1, 4, 12)}
        self.add("dual_obj_group", ["dual", "obj", self.file(g)],
                 oracle.expect_output(lambda: oracle.spectrum(g["space"])))

    def dual_mor_morphism(self) -> None:
        f = _morphism_into(self.rng, _random_space(self.rng, "v", 1, 3, 4), self.rng.randint(1, 4), "w")
        self.add("dual_mor_morphism", ["dual", "mor", self.file(f)],
                 oracle.expect_output(lambda: oracle.dual_morphism(f)))

    def dual_mor_lhom(self) -> None:
        h = oracle.dual_morphism(
            _morphism_into(self.rng, _random_space(self.rng, "v", 1, 3, 4), self.rng.randint(1, 4), "w")
        )
        self.add("dual_mor_lhom", ["dual", "mor", self.file(h)], oracle.expect_output(lambda: oracle.dual_lhom(h)))

    def product(self) -> None:
        a = _random_space(self.rng, "a", 1, 4, 6)
        b = _random_space(self.rng, "b", 1, 4, 6)
        self.add("product", ["product", self.file(a), self.file(b)],
                 oracle.expect_output(lambda: oracle.limit([a, b], [])))

    def pullback(self) -> None:
        c = _random_space(self.rng, "c", 1, 3, 4)
        f = _morphism_into(self.rng, c, self.rng.randint(1, 4), "a")
        g = _morphism_into(self.rng, c, self.rng.randint(1, 4), "b")
        self.add("pullback", ["pullback", self.file(f), self.file(g)], oracle.expect_output(
            lambda: oracle.limit([f["dom"], g["dom"], c], [(0, 2, f["map"]), (1, 2, g["map"])])))

    def equalizer(self) -> None:
        f = _morphism_into(self.rng, _random_space(self.rng, "c", 1, 3, 4), self.rng.randint(1, 5), "a")
        g = _parallel_to(self.rng, f)
        self.add("equalizer", ["equalizer", self.file(f), self.file(g)], oracle.expect_output(
            lambda: oracle.limit([f["dom"], f["cod"]], [(0, 1, f["map"]), (0, 1, g["map"])])))

    def omega(self) -> None:
        which = OMEGA_DEMOS[sum(k == "omega" for k, _, _ in self.requests)]
        argv = ["omega", "demo", "--which", which, "--seed", str(self.rng.randint(0, 999))]
        self.add("omega", argv, oracle.expect_flag("confirmed", True))

    def laws(self) -> None:
        argv = ["laws", "--max-points", "2", "--max-mult", "3", "--seed", str(self.rng.randint(0, 999))]
        self.add("laws", argv, oracle.expect_flag("ok", True))

    def gamma(self) -> None:
        unit = list(GAMMA_LADDER[sum(k == "gamma" for k, _, _ in self.requests)])
        self.rng.shuffle(unit)
        g = {"space": _space("u", unit)}
        self.add("gamma", ["gamma", self.file(g)], oracle.expect_output(lambda: oracle.gamma(g)))

    def limit4(self) -> None:
        """Four objects, two of them mapped into a fourth: one scan of 3888 tuples."""
        tgt = _random_space(self.rng, "t", 6, 6, 4)
        f = _morphism_into(self.rng, tgt, 9, "a")
        g = _morphism_into(self.rng, tgt, 9, "b")
        free = _random_space(self.rng, "c", 8, 8, 6)
        objects = [f["dom"], g["dom"], free, tgt]
        arrows = [(0, 3, f["map"]), (1, 3, g["map"])]
        diagram = {"objects": objects, "arrows": [{"src": s, "tgt": t, "map": m} for s, t, m in arrows]}
        self.add("limit4", ["limit", "--diagram", self.file(diagram)],
                 oracle.expect_output(lambda: oracle.limit(objects, arrows)))

    def hom_big(self) -> None:
        """The next of ``HOM_SHAPES``, its points in seeded order: the
        morphism count, which sets the cost, is the same under every seed."""
        xm, ym = (self.rng.sample(m, len(m)) for m in HOM_SHAPES[sum(k == "hom_big" for k, _, _ in self.requests)])
        x, y = _space("x", xm), _space("y", ym)
        self.add("hom_big", ["hom", self.file(x), self.file(y)], oracle.expect_output(lambda: oracle.hom(x, y)))

    def bad(self) -> None:
        """Malformed or out-of-domain requests, each with its documented exit code."""
        which = BAD_REQUESTS[sum(k.startswith("bad:") for k, _, _ in self.requests)]
        ok = self.file(_random_space(self.rng, "p", 1, 3, 4))
        f = _morphism_into(self.rng, _random_space(self.rng, "c", 1, 3, 4), 2, "a")
        if which == "malformed_json":
            argv, code = ["dual", "obj", self.file(None, raw="{not json")], 2
        elif which == "zero_mult":
            argv, code = ["product", self.file(_space("z", [1, 0])), ok], 2
        elif which == "divisibility":
            bad = {"dom": _space("a", [2]), "cod": _space("b", [3]), "map": {"a1": "b1"}}
            argv, code = ["dual", "mor", self.file(bad)], 3
        elif which == "unknown_verb":
            argv, code = ["frobnicate", ok], 2
        elif which == "overflow":
            argv, code = ["product", self.file(_space("a", [2**62])), self.file(_space("b", [3**39]))], 3
        elif which == "arrow_out_of_range":
            diagram = {"objects": [_space("a", [1])], "arrows": [{"src": 0, "tgt": 5, "map": {}}]}
            argv, code = ["limit", "--diagram", self.file(diagram)], 2
        elif which == "gamma_of_space":
            argv, code = ["gamma", ok], 2
        elif which == "not_parallel":
            g = _morphism_into(self.rng, f["cod"], 3, "b")
            argv, code = ["equalizer", self.file(f), self.file(g)], 2
        elif which == "missing_arg":
            argv, code = ["hom", ok], 2
        else:
            argv, code = ["laws", "--max-points", "two"], 2
        self.add("bad:" + which, argv, oracle.expect_error(code))


def cli_block(seed: int, workdir: Path) -> list[tuple[str, list[str], Callable]]:
    """The block of requests for ``seed``: write its input files into
    ``workdir`` and return its requests as (kind, argv, check), shuffled."""
    rng = random.Random(f"cli:{seed}")
    block = _Block(workdir, rng)
    for kind, count in BLOCK_MIX:
        for _ in range(count):
            getattr(block, kind)()
    rng.shuffle(block.requests)
    return block.requests


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``bms <argv>`` in this process: exit code, stdout and stderr."""
    from bms import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_requests(seed: int, workdir: Path) -> list[Op]:
    return [
        Op(kind, lambda argv=argv: run_cli(argv), lambda res, check=check: check(*res))
        for kind, argv, check in cli_block(seed, workdir)
    ]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one pass."""
    if workload == "morphism_sweep":
        return morphism_sweep(seed)
    if workload == "element_sweep":
        return element_sweep(seed)
    if workload == "cli_requests":
        return cli_requests(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def passed(op: Op, result: object) -> bool:
    """Apply the op's check.  An op that raised, or whose output the check
    cannot parse, fails."""
    if isinstance(result, Exception):
        return False
    try:
        return bool(op.check(result))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError):
        return False
