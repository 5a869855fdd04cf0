"""Helpers shared by the ``bms.omega`` tests."""

from typing import Sequence

from bms.omega import ECSeq, const, ec_add


def scale(k: int, a: ECSeq) -> ECSeq:
    """The pointwise multiple k * a."""
    return ECSeq(tuple(k * v for v in a.prefix), k * a.tail)


def combine(coefficients: Sequence[int], generators: Sequence[ECSeq]) -> ECSeq:
    """The integer combination sum(c_i * g_i)."""
    out = const(0)
    for c, g in zip(coefficients, generators):
        out = ec_add(out, scale(c, g))
    return out
