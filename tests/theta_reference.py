"""Scalar reference for radius2._theta_tables: theta(x, y) of one pair,
computed with FieldElement arithmetic and the explicit trace, one product
at a time."""

from typing import Optional

from leeperfect.fields import FieldElement


def trace_to_prime(e: FieldElement) -> int:
    """Sum of e^(p^k) over k < f, asserted to land in the prime subfield."""
    ctx = e.owner
    out = e.row() @ ctx.trace_matrix() % ctx.p
    if out[1:].any():
        raise AssertionError("trace did not land in the prime subfield")
    return int(out[0])


def in_prime_subfield(e: FieldElement) -> Optional[int]:
    if any(e.coeffs[1:]):
        return None
    return e.coeffs[0]


def theta(x, y, v: int, d: int, mode: str) -> Optional[int]:
    """The orbit sum of (xy)^(2^i): plain power sum when 2 generates the
    units mod v, trace form otherwise.  None if the value leaves F_p
    (such x cannot arise from integer coefficients)."""
    t = x * y
    if mode == "power_sum":
        acc = t
        for _ in range(v - 2):
            t = t * t
            acc = acc + t
        return in_prime_subfield(acc)
    if mode == "trace":
        total = 0
        for _ in range(d):
            total += trace_to_prime(t)
            t = t * t
        return total % x.owner.p
    raise ValueError(f"unknown theta mode {mode!r}")
