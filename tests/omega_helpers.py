"""Helpers shared by the ``bms.omega`` tests."""

from typing import Sequence

from bms.omega import ECSeq, const, ec_add, ec_scalar_mul


def combine(coefficients: Sequence[int], generators: Sequence[ECSeq]) -> ECSeq:
    """The integer combination sum(c_i * g_i)."""
    out = const(0)
    for c, g in zip(coefficients, generators):
        out = ec_add(out, ec_scalar_mul(c, g))
    return out
