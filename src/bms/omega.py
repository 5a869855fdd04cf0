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

Values are checked once, where they enter: calling ``ECSeq`` checks the
tail and every prefix value against ``INT_LIMIT``.  The pointwise
operations pad both prefixes with their tails to one length and build their
results unchecked, only stripped to canonical form: ``ec_meet``,
``ec_join`` and ``ec_neg`` cannot leave the symmetric bound, and ``ec_add``
and ``ec_sub`` test their result's extremes once and pass a result beyond
the bound to the checked constructor, which names the value.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import SchemaError, SizeLimitError
from .intlinalg import Certificate, solve_integer_system
from .ints import INT_LIMIT, checked, checked_lcm, require_int

__all__ = [
    "INFINITY",
    "ECSeq",
    "ec_value",
    "ec_add",
    "ec_sub",
    "ec_neg",
    "ec_meet",
    "ec_join",
    "ec_is_singular",
    "const",
    "indicator",
    "MembershipResult",
    "subgroup_membership",
    "not_specker_demo",
    "countable_power_demo",
    "pushout_demo",
    "PUSHOUT_BOUND_LIMIT",
]

# Largest bound of ``pushout_demo`` and ``countable_power_demo``, whose reports grow with it.
PUSHOUT_BOUND_LIMIT = 1024


class _Infinity:
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
    equal representations.  A prefix given as another sequence is stored as
    a tuple.
    """

    prefix: tuple[int, ...]
    tail: int

    def __post_init__(self) -> None:
        checked(self.tail, "tail")
        p = self.prefix if type(self.prefix) is tuple else tuple(self.prefix)
        for v in p:
            checked(v, "prefix value")
        while p and p[-1] == self.tail:
            p = p[:-1]
        object.__setattr__(self, "prefix", p)

    def __repr__(self) -> str:
        body = ",".join(str(v) for v in self.prefix)
        return f"ECSeq([{body}],{self.tail})"


_new = object.__new__
_setattr = object.__setattr__


def const(c: int) -> ECSeq:
    return ECSeq((), c)


def indicator(positions: Iterable[int]) -> ECSeq:
    """Indicator of a finite set of positions."""
    pos = sorted(set(positions))
    if not pos:
        return const(0)
    if pos[0] < 0:
        raise SchemaError("indicator positions must be nonnegative")
    members = set(pos)
    prefix = [1 if i in members else 0 for i in range(pos[-1] + 1)]
    return ECSeq(tuple(prefix), 0)


def ec_value(a: ECSeq, p: OmegaPoint) -> int:
    """Value at a natural number, or at infinity (the tail).  A bool is no
    natural number."""
    if isinstance(p, _Infinity):
        return a.tail
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise SchemaError(f"evaluation point must be a natural number or INFINITY, got {p!r}")
    return a.prefix[p] if p < len(a.prefix) else a.tail


def _canonical(prefix: tuple[int, ...], tail: int) -> ECSeq:
    """The sequence of checked values, stripped to canonical form without
    checking them again."""
    n = len(prefix)
    while n and prefix[n - 1] == tail:
        n -= 1
    s = _new(ECSeq)
    _setattr(s, "prefix", prefix if n == len(prefix) else prefix[:n])
    _setattr(s, "tail", tail)
    return s


def _zip_with(a: ECSeq, b: ECSeq, op) -> tuple[tuple[int, ...], int]:
    """``op`` at every position, both prefixes padded with their tails to
    one length, and at the tail."""
    pa, pb = a.prefix, b.prefix
    pad = len(pa) - len(pb)
    if pad > 0:
        pb += (b.tail,) * pad
    elif pad < 0:
        pa += (a.tail,) * -pad
    return tuple(map(op, pa, pb)), op(a.tail, b.tail)


def _bounded(prefix: tuple[int, ...], tail: int) -> ECSeq:
    """The sequence of a sum or difference, after one test of its extremes
    against ``INT_LIMIT``; the checked constructor names a value beyond it."""
    if abs(tail) > INT_LIMIT or prefix and (max(prefix) > INT_LIMIT or min(prefix) < -INT_LIMIT):
        return ECSeq(prefix, tail)
    return _canonical(prefix, tail)


def ec_add(a: ECSeq, b: ECSeq) -> ECSeq:
    return _bounded(*_zip_with(a, b, operator.add))


def ec_sub(a: ECSeq, b: ECSeq) -> ECSeq:
    return _bounded(*_zip_with(a, b, operator.sub))


def ec_neg(a: ECSeq) -> ECSeq:
    return _canonical(tuple(map(operator.neg, a.prefix)), -a.tail)


def ec_meet(a: ECSeq, b: ECSeq) -> ECSeq:
    return _canonical(*_zip_with(a, b, min))


def ec_join(a: ECSeq, b: ECSeq) -> ECSeq:
    return _canonical(*_zip_with(a, b, max))


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


# -- obstruction demos --------------------------------------------------------

def not_specker_demo(seed: int = 0) -> dict:
    """The even-at-infinity subgroup of the constant-2 unit group.

    Checks that (a) the subgroup is closed under the group and lattice
    operations on a seeded random sample of 200 pairs, (b) all of its
    singular elements are indicators of finite sets (exhaustive over 0/1
    prefixes of length at most 6), and (c) its unit, the constant 2, is not
    an integer combination of those singular elements, certified by the
    unreachable tail.  A seed that is not an int (a bool is not) is a
    ``SchemaError``.
    """
    rng = random.Random(require_int(seed, "seed"))

    def in_h(a: ECSeq) -> bool:
        return a.tail % 2 == 0

    def random_h_element() -> ECSeq:
        k = rng.randint(0, 5)
        prefix = tuple(rng.randint(-4, 4) for _ in range(k))
        return ECSeq(prefix, 2 * rng.randint(-2, 2))

    closed = True
    for _ in range(200):
        a, b = random_h_element(), random_h_element()
        results = [ec_add(a, b), ec_sub(a, b), ec_neg(a), ec_meet(a, b), ec_join(a, b)]
        if not all(in_h(r) for r in results):
            closed = False
            break

    # singular elements of H with prefix length <= 6
    singulars = []
    all_finite_support = True
    for k in range(7):
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
    continuous at the limit; ``confirmed`` reports that.  A ``max_k`` that
    is not an int (a bool is not) or is negative raises SchemaError, and one
    above ``PUSHOUT_BOUND_LIMIT`` SizeLimitError, before any work.
    """
    if require_int(max_k, "power bound") < 0:
        raise SchemaError(f"power bound must be >= 0, got {max_k}")
    if max_k > PUSHOUT_BOUND_LIMIT:
        raise SizeLimitError(f"power bound {max_k} exceeds the limit of {PUSHOUT_BOUND_LIMIT}")
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


def pushout_demo(bound: int = 16) -> dict:
    """Replay of the forced multiplicities of a missing pushout.

    Gluing a multiplicity-1 singleton onto the accumulation point of the
    constant-2 compactified naturals forces v(inf) = 1, while comparison
    against the multiplicity that is 2 at n and 1 elsewhere forces v(n) = 2
    for every n up to the bound (v(n) must be both a multiple and a divisor
    of 2).  No eventually constant, hence no continuous, multiplicity function
    satisfies all constraints: a tail of 1 needs a prefix longer than any
    fixed bound as the bound grows.  A bound that is not an int (a bool is
    not) or is negative raises SchemaError, and one above
    ``PUSHOUT_BOUND_LIMIT`` SizeLimitError, before any work.
    """
    if require_int(bound, "pushout bound") < 0:
        raise SchemaError(f"pushout bound must be >= 0, got {bound}")
    if bound > PUSHOUT_BOUND_LIMIT:
        raise SizeLimitError(f"pushout bound {bound} exceeds the limit of {PUSHOUT_BOUND_LIMIT}")
    # the comparison multiplicity is 2 at n, a divisor of 2: each forces v(n) = 2
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
