"""Continuous integer functions on the one-point compactification of N.

An eventually constant sequence (finite prefix plus a tail value holding
from the end of the prefix onward, and at the point at infinity) is exactly
a continuous integer function on this space, so the model is faithful
rather than approximate.  On top of the pointwise group and lattice
operations this module decides subgroup membership by exact integer
elimination and replays three category-level obstructions: a unital
l-subgroup with too few singular elements, the discontinuous multiplicity
of a would-be countable power, and the forced multiplicities of a missing
pushout.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import SchemaError, SizeLimitError
from .intlinalg import Certificate, solve_integer_system
from .ints import checked, checked_lcm

__all__ = [
    "INFINITY",
    "ECSeq",
    "ec_value",
    "ec_add",
    "ec_sub",
    "ec_neg",
    "ec_meet",
    "ec_join",
    "ec_scalar_mul",
    "ec_is_singular",
    "const",
    "indicator",
    "MembershipResult",
    "subgroup_membership",
    "not_specker_demo",
    "countable_power_demo",
    "pushout_demo",
    "comparison_multiplicity",
    "PUSHOUT_BOUND_LIMIT",
]

# Largest ``bound`` of ``pushout_demo``, whose report lists bound + 2 forced values.
PUSHOUT_BOUND_LIMIT = 1024


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()

OmegaPoint = Union[int, _Infinity]


@dataclass(frozen=True)
class ECSeq:
    """An eventually constant integer sequence in canonical form.

    ``prefix`` holds the initial values; ``tail`` is the value at every
    later position and at infinity.  Canonical form: the last prefix entry
    differs from the tail (or the prefix is empty), so equal functions have
    equal representations.
    """

    prefix: tuple[int, ...]
    tail: int

    def __post_init__(self) -> None:
        checked(self.tail, "tail")
        for v in self.prefix:
            checked(v, "prefix value")
        p = self.prefix
        while p and p[-1] == self.tail:
            p = p[:-1]
        object.__setattr__(self, "prefix", p)

    def __repr__(self) -> str:
        body = ",".join(str(v) for v in self.prefix)
        return f"ECSeq([{body}],{self.tail})"


def const(c: int) -> ECSeq:
    return ECSeq((), c)


def indicator(positions: Iterable[int]) -> ECSeq:
    """Indicator of a finite set of positions."""
    pos = sorted(set(positions))
    if not pos:
        return const(0)
    if pos[0] < 0:
        raise SchemaError("indicator positions must be nonnegative")
    prefix = [1 if i in set(pos) else 0 for i in range(pos[-1] + 1)]
    return ECSeq(tuple(prefix), 0)


def ec_value(a: ECSeq, p: OmegaPoint) -> int:
    """Value at a natural number, or at infinity (the tail)."""
    if isinstance(p, _Infinity):
        return a.tail
    if not isinstance(p, int) or p < 0:
        raise SchemaError(f"evaluation point must be a natural number or INFINITY, got {p!r}")
    return a.prefix[p] if p < len(a.prefix) else a.tail


def _zip_with(a: ECSeq, b: ECSeq, op) -> ECSeq:
    n = max(len(a.prefix), len(b.prefix))
    vals = tuple(checked(op(ec_value(a, i), ec_value(b, i)), "value") for i in range(n))
    return ECSeq(vals, checked(op(a.tail, b.tail), "tail"))


def ec_add(a: ECSeq, b: ECSeq) -> ECSeq:
    return _zip_with(a, b, lambda x, y: x + y)


def ec_sub(a: ECSeq, b: ECSeq) -> ECSeq:
    return _zip_with(a, b, lambda x, y: x - y)


def ec_neg(a: ECSeq) -> ECSeq:
    return ECSeq(tuple(-v for v in a.prefix), -a.tail)


def ec_meet(a: ECSeq, b: ECSeq) -> ECSeq:
    return _zip_with(a, b, min)


def ec_join(a: ECSeq, b: ECSeq) -> ECSeq:
    return _zip_with(a, b, max)


def ec_scalar_mul(k: int, a: ECSeq) -> ECSeq:
    checked(k, "scalar")
    return ECSeq(tuple(checked(k * v, "value") for v in a.prefix), checked(k * a.tail, "tail"))


def ec_is_singular(a: ECSeq) -> bool:
    """True iff the function is an indicator of a finite or cofinite set."""
    return a.tail in (0, 1) and all(v in (0, 1) for v in a.prefix)


# -- subgroup membership ------------------------------------------------------

@dataclass(frozen=True)
class MembershipResult:
    """Outcome of an integer subgroup-membership query.

    On success ``coefficients`` reproduces the target from the generators.
    On failure ``certificate`` carries a separating functional over the
    coordinates (positions 0..N-1 followed by the tail) and ``coordinate``
    names the single coordinate involved when the functional is a standard
    basis vector, e.g. ``"tail"`` for the unreachable-tail case.
    """

    member: bool
    coefficients: Optional[tuple[int, ...]]
    certificate: Optional[Certificate]
    coordinate: Optional[Union[int, str]] = None


def _coordinates(seqs: Sequence[ECSeq]) -> int:
    return max((len(s.prefix) for s in seqs), default=0)


def subgroup_membership(target: ECSeq, generators: Sequence[ECSeq]) -> MembershipResult:
    """Decide whether the target is an integer combination of the generators.

    Every involved function is determined by its values on positions
    0..N-1 plus the tail, N being the largest prefix length, so membership
    reduces to an integer linear system over those N+1 coordinates, solved
    by unimodular (Smith) elimination.
    """
    n_pos = _coordinates([target, *generators])
    rows = list(range(n_pos)) + [INFINITY]
    matrix = [[ec_value(g, p) for g in generators] for p in rows]
    rhs = [ec_value(target, p) for p in rows]
    coeffs, cert = solve_integer_system(matrix, rhs)
    if coeffs is not None:
        return MembershipResult(True, tuple(coeffs), None)
    coordinate: Optional[Union[int, str]] = None
    w = cert.functional
    hot = [i for i, x in enumerate(w) if x != 0]
    if len(hot) == 1 and abs(w[hot[0]]) == 1:
        coordinate = "tail" if hot[0] == n_pos else hot[0]
    return MembershipResult(False, None, cert, coordinate)


def combine(coefficients: Sequence[int], generators: Sequence[ECSeq]) -> ECSeq:
    """The integer combination sum(c_i * g_i)."""
    out = const(0)
    for c, g in zip(coefficients, generators):
        out = ec_add(out, ec_scalar_mul(c, g))
    return out


# -- obstruction demos --------------------------------------------------------

def not_specker_demo(seed: int = 0, samples: int = 200, prefix_bound: int = 6) -> dict:
    """The even-at-infinity subgroup of the constant-2 unit group.

    Checks that (a) the subgroup is closed under the group and lattice
    operations on a seeded random sample, (b) all of its singular elements
    are indicators of finite sets (exhaustive over 0/1 prefixes up to the
    bound), and (c) its unit, the constant 2, is not an integer combination
    of those singular elements, certified by the unreachable tail.
    """
    rng = random.Random(seed)

    def in_h(a: ECSeq) -> bool:
        return a.tail % 2 == 0

    def random_h_element() -> ECSeq:
        k = rng.randint(0, 5)
        prefix = tuple(rng.randint(-4, 4) for _ in range(k))
        return ECSeq(prefix, 2 * rng.randint(-2, 2))

    closed = True
    for _ in range(samples):
        a, b = random_h_element(), random_h_element()
        results = [ec_add(a, b), ec_sub(a, b), ec_neg(a), ec_meet(a, b), ec_join(a, b)]
        if not all(in_h(r) for r in results):
            closed = False
            break

    # singular elements of H with prefix length <= bound
    singulars = []
    all_finite_support = True
    for k in range(prefix_bound + 1):
        for bits in itertools.product((0, 1), repeat=k):
            for tail in (0, 1):
                s = ECSeq(bits, tail)
                if ec_is_singular(s) and in_h(s):
                    singulars.append(s)
                    if s.tail != 0:
                        all_finite_support = False
    singulars = sorted(set(singulars), key=lambda s: (len(s.prefix), s.prefix, s.tail))

    unit = const(2)
    membership = subgroup_membership(unit, singulars)

    return {
        "closed": "pass" if closed else "fail",
        "singulars_finite_support": "pass" if all_finite_support else "fail",
        "singular_count": len(singulars),
        "unit_generated": membership.member,
        "certificate_coordinate": membership.coordinate,
        "confirmed": closed and all_finite_support and not membership.member
        and membership.coordinate == "tail",
    }


def countable_power_demo(max_k: int = 10) -> dict:
    """Why the countable power of a two-point space cannot exist.

    The k-th witness takes the multiplicity-1 letter on the first k
    coordinates and the multiplicity-2 letter afterwards; every witness
    forces LCM multiplicity 2, yet their coordinatewise limit (the constant
    multiplicity-1 point) forces 1, so the LCM multiplicity is not
    continuous at the limit; ``confirmed`` reports that.
    """
    def lcm(a: ECSeq) -> int:
        return checked_lcm([*a.prefix, a.tail])

    witnesses = [{"k": k, "v": lcm(ECSeq((1,) * k, 2))} for k in range(max_k + 1)]
    limit_v = lcm(const(1))
    discontinuous = all(w["v"] == 2 for w in witnesses)
    return {
        "witnesses": witnesses,
        "limit_v": limit_v,
        "all_b_v": lcm(const(2)),
        "discontinuous": discontinuous,
        "confirmed": discontinuous and limit_v == 1,
    }


def comparison_multiplicity(n: int) -> ECSeq:
    """Multiplicity constantly 1 except the value 2 at position n."""
    if n < 0:
        raise SchemaError("position must be nonnegative")
    return ECSeq((1,) * n + (2,), 1)


def pushout_demo(bound: int = 16) -> dict:
    """Replay of the forced multiplicities of a missing pushout.

    Gluing a multiplicity-1 singleton onto the accumulation point of the
    constant-2 compactified naturals forces v(inf) = 1, while comparison
    against the spaces of ``comparison_multiplicity`` forces v(n) = 2 for
    every n up to the bound (v(n) must be both a multiple and a divisor of
    2).  No eventually constant, hence no continuous, multiplicity function
    satisfies all constraints: a tail of 1 needs a prefix longer than any
    fixed bound as the bound grows.  A bound above ``PUSHOUT_BOUND_LIMIT``
    raises SizeLimitError before any work.
    """
    if bound > PUSHOUT_BOUND_LIMIT:
        raise SizeLimitError(f"pushout bound {bound} exceeds the limit of {PUSHOUT_BOUND_LIMIT}")
    # comparison_multiplicity(n) is 2 at n, a divisor of 2: each forces v(n) = 2
    forced = {"inf": 1, **{str(n): 2 for n in range(bound + 1)}}

    # an ECSeq with tail 1 and value 2 on 0..bound needs prefix length > bound
    candidate = ECSeq((2,) * (bound + 1), 1)
    consistent = all(ec_value(candidate, n) == 2 for n in range(bound + 1)) and candidate.tail == 1
    min_prefix = len(candidate.prefix)

    return {
        "bound": bound,
        "forced": forced,
        "min_prefix_length": min_prefix,
        "representable_within_bound": consistent,
        "representable_for_all_n": False,
        "confirmed": consistent and min_prefix == bound + 1,
    }
