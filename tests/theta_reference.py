"""Scalar references for the row kernel of leeperfect.fields.

The package computes on int64 coefficient rows only (fields.PolyModRing).
The tests compare it with FieldElement, one immutable element of one ring
at a time with operators, and with the scalar theta(x, y) of one pair,
computed one product at a time with FieldElement arithmetic and the trace
as a sum of Frobenius images; radius2._theta_tables computes every theta
value at once.

Elements never migrate between rings: mixing owners raises ValueError, even
over equal moduli, since a silently coerced operand is the classic way to
get a wrong character sum.
"""

from typing import Optional

import numpy as np

from leeperfect.fields import PolyModRing


class FieldElement:
    """Immutable element of a PolyModRing, in reduced coefficient form."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner: PolyModRing, coeffs: tuple[int, ...]):
        self.owner = owner
        self.coeffs = coeffs

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError("field elements only combine with field elements")
        if self.owner is not other.owner:
            raise ValueError("operands belong to different field contexts")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.owner.p
        return FieldElement(self.owner, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.owner.p
        return FieldElement(self.owner, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.owner.p
        return FieldElement(self.owner, tuple(-a % p for a in self.coeffs))

    def row(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return element(self.owner, self.owner.mul(self.row()[None, :], other.row()[None, :])[0])

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inv() ** (-e)
        # square-and-multiply: the kernel's pow may step by frob, which this checks
        return element(self.owner, self.owner._square_multiply(self.row(), e))

    def inv(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return element(self.owner, self.owner.inv(self.row()))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.owner is other.owner
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.owner), self.coeffs))

    def __repr__(self):
        return f"Fe{list(self.coeffs)}"


def element(ring: PolyModRing, coeffs) -> FieldElement:
    """The element with the given coefficients (a row or a sequence, constant
    term first, zero-padded to the ring's degree)."""
    arr = tuple(int(c) % ring.p for c in coeffs)
    if len(arr) > ring.deg:
        raise ValueError("too many coefficients")
    return FieldElement(ring, arr + (0,) * (ring.deg - len(arr)))


def scalar(ring: PolyModRing, c: int) -> FieldElement:
    return element(ring, (c,))


def one(ring: PolyModRing) -> FieldElement:
    return scalar(ring, 1)


def gen(ring: PolyModRing) -> FieldElement:
    """The residue of x."""
    return element(ring, ring.x_vec())


def random_element(ring: PolyModRing, rng) -> FieldElement:
    return element(ring, [rng.randrange(ring.p) for _ in range(ring.deg)])


def frobenius(e: FieldElement, k: int) -> FieldElement:
    """e^(p^k) via the ring's precomputed p-th-power linear maps; k is taken
    mod f, since z^(p^f) = z in a field F_{p^f}."""
    if k < 0:
        raise ValueError("negative Frobenius power")
    return element(e.owner, e.owner.frob(e.row(), k % e.owner.deg))


def trace_to_prime(e: FieldElement) -> int:
    """Sum of e^(p^k) over k < f, by f - 1 single Frobenius steps: only
    frob_matrix(1), not the trace matrix under test.  Asserted to land in
    the prime subfield."""
    total = t = e
    for _ in range(e.owner.deg - 1):
        t = frobenius(t, 1)
        total = total + t
    out = in_prime_subfield(total)
    if out is None:
        raise AssertionError("trace did not land in the prime subfield")
    return out


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
