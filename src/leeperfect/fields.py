"""Arithmetic in F_p[x]/(m) and explicit finite field extensions F_{p^f}.

PolyModRing is the one kernel: coefficient rows of length d = deg m, with a
batched multiply-and-reduce on (N, d) int64 arrays, single-element powers,
and Frobenius and trace as precomputed F_p-linear maps (numpy integer
matrices), which keeps the per-element cost of the character-orbit
evaluations low even at degree 70.  Both the theta tables over F_{p^f} and
the orbit searches in F_p[y]/Psi_v (orbitfield.CosineField) run on it.

A FieldCtx is a PolyModRing whose modulus is a monic irreducible polynomial
over F_p, found by seeded search and certified by Rabin's test.  Its
FieldElements are coefficient tuples of length f.  Elements never migrate
between contexts: mixing owners raises immediately, since a silently
coerced operand is the classic way to get a wrong character sum.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from . import nt
from .nt import BudgetExceeded, seeded_rng

_INT64_MAX = 2**63 - 1


def _fits_int64(p: int, d: int) -> bool:
    """Whether no int64 sum of PolyModRing.mul can pass 2^63 - 1 at degree d.

    The shift-add product leaves each of the d - 1 high coefficients below
    (d - 1)(p - 1)^2, unreduced; their product with the reduction rows (entries
    below p) adds (d - 1)^2 (p - 1)^3 to a low coefficient below d (p - 1)^2.
    The Frobenius, trace and power-table matmuls sum only d products below p^2.
    """
    return d * (p - 1) ** 2 + (d - 1) ** 2 * (p - 1) ** 3 <= _INT64_MAX


class PolyModRing:
    """F_p[x] / (modulus), modulus monic of degree deg >= 1, on coefficient rows."""

    def __init__(self, p: int, modulus: Iterable[int]):
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.deg = d = len(modulus) - 1
        if not _fits_int64(p, d):
            raise ValueError(f"p = {p} at degree {d} overflows int64 products")
        self.modulus = modulus
        # reduction rows: row k holds x^(d+k) mod modulus, k = 0..d-2
        rows = [np.array([(-c) % p for c in modulus[:-1]], dtype=np.int64)]
        for _ in range(d - 2):
            prev = rows[-1]
            rows.append((np.concatenate(([0], prev[:-1])) + prev[-1] * rows[0]) % p)
        self._red = np.array(rows[: d - 1], dtype=np.int64).reshape(d - 1, d)
        self._frob = {0: np.eye(d, dtype=np.int64)}
        self._trace: Optional[np.ndarray] = None

    def scalar_vec(self, c: int) -> np.ndarray:
        z = np.zeros(self.deg, dtype=np.int64)
        z[0] = c % self.p
        return z

    def x_vec(self) -> np.ndarray:
        """The residue of x itself (for deg 1, the constant -modulus[0])."""
        if self.deg == 1:
            return self.scalar_vec(-self.modulus[0])
        x = np.zeros(self.deg, dtype=np.int64)
        x[1] = 1
        return x

    # -- batched operations on (N, deg) int64 arrays; a 1-row side broadcasts --

    def mul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        d, p = self.deg, self.p
        if d == 1:
            return A * B % p
        if A.shape[0] == 1 and B.shape[0] == 1:
            conv = np.convolve(A[0], B[0])[None, :]
        else:
            conv = np.zeros((max(A.shape[0], B.shape[0]), 2 * d - 1), dtype=np.int64)
            for i in range(d):
                conv[:, i : i + d] += A[:, i : i + 1] * B
        return self.reduce(conv)

    def reduce(self, conv: np.ndarray) -> np.ndarray:
        """Rows of 2 deg - 1 unreduced product coefficients, reduced mod the
        modulus; the caller keeps the int64 sums in range (_fits_int64)."""
        d = self.deg
        return (conv[:, :d] + conv[:, d:] @ self._red) % self.p

    def square(self, A: np.ndarray) -> np.ndarray:
        return self.mul(A, A)

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """Single-element power (1-D in, 1-D out), e >= 0."""
        r = self.scalar_vec(1)[None, :]
        base = a[None, :] % self.p
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r[0]

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Inverse of a nonzero element (1-D); the modulus must be irreducible."""
        if self.deg == 1:  # F_p: one integer inverse instead of a p - 2 power
            return np.array([pow(int(a[0]), -1, self.p)], dtype=np.int64)
        return self.pow(a, self.size - 2)

    @property
    def size(self) -> int:
        """p^deg, the number of elements."""
        return self.p**self.deg

    def frob_matrix(self, e: int) -> np.ndarray:
        """Matrix of z -> z^(p^e) on coefficient rows (row i holds (x^i)^(p^e)),
        e >= 0.  The exponent is taken as given: only a field has
        z^(p^deg) = z."""
        if e not in self._frob:
            if e == 1:
                xp = self.pow(self.x_vec(), self.p)[None, :]
                m = np.eye(self.deg, dtype=np.int64)
                for i in range(1, self.deg):
                    m[i] = self.mul(m[i - 1 : i], xp)[0]
            else:
                m = self.frob_matrix(e - 1) @ self.frob_matrix(1) % self.p
            self._frob[e] = m
        return self._frob[e]

    def frob(self, A: np.ndarray, e: int = 1) -> np.ndarray:
        return A @ self.frob_matrix(e) % self.p

    def trace_matrix(self) -> np.ndarray:
        """Matrix of z -> sum of z^(p^k), k < deg, acting on coefficient rows."""
        if self._trace is None:
            tr = np.zeros((self.deg, self.deg), dtype=np.int64)
            for k in range(self.deg):
                tr = (tr + self.frob_matrix(k)) % self.p
            self._trace = tr
        return self._trace


class FieldCtx(PolyModRing):
    """F_{p^f} = F_p[x] / (modulus), modulus monic irreducible of degree f."""

    def __init__(self, p: int, modulus: Iterable[int]):
        super().__init__(p, modulus)
        if not self._is_irreducible():
            raise ValueError(f"modulus {self.modulus} is reducible over F_{p}")

    def _is_irreducible(self) -> bool:
        """Rabin: x^(p^f) = x and gcd(x^(p^(f/q)) - x, modulus) = 1, q | f prime."""
        f, p = self.deg, self.p
        if f == 1:
            return True
        x = self.x_vec()
        powers = {}
        cur = x
        for k in range(1, f + 1):
            cur = self.frob(cur)
            powers[k] = cur
        if not np.array_equal(powers[f], x):
            return False
        modulus = np.array(self.modulus, dtype=np.int64)[:, None]
        for q in nt.factorize(f).primes():
            diff = (powers[f // q] - x) % p
            if not diff.any():
                return False
            if len(poly_gcd(prime_field(p), diff[:, None], modulus)) > 1:
                return False
        return True

    # -- elements --------------------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        arr = tuple(int(c) % self.p for c in coeffs)
        if len(arr) > self.deg:
            raise ValueError("too many coefficients")
        return FieldElement(self, arr + (0,) * (self.deg - len(arr)))

    def zero(self) -> "FieldElement":
        return self.element(())

    def one(self) -> "FieldElement":
        return self.element((1,))

    def scalar(self, c: int) -> "FieldElement":
        return self.element((c,))

    def gen(self) -> "FieldElement":
        return self.element((0, 1)) if self.deg > 1 else self.one()

    def random_element(self, rng) -> "FieldElement":
        return self.element(tuple(rng.randrange(self.p) for _ in range(self.deg)))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, f={self.deg})"


class FieldElement:
    """Immutable element of a FieldCtx, in reduced coefficient form."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner: FieldCtx, coeffs: tuple[int, ...]):
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
        return _element(self.owner, self.owner.mul(self.row()[None, :], other.row()[None, :])[0])

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inv() ** (-e)
        return _element(self.owner, self.owner.pow(self.row(), e))

    def inv(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return _element(self.owner, self.owner.inv(self.row()))

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


def _element(ctx: FieldCtx, row: np.ndarray) -> FieldElement:
    return FieldElement(ctx, tuple(row.tolist()))


def build_field(p: int, f: int, seed: int = 0) -> FieldCtx:
    """Seeded search for an irreducible degree-f modulus; same seed, same field.
    The degree cap is the caller's (field_check reads Caps.max_field_degree)."""
    if not nt.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f < 1:
        raise ValueError("degree must be >= 1")
    if not _fits_int64(p, f):
        raise BudgetExceeded(f"p = {p} at degree {f} overflows the int64 kernel")
    if f == 1:
        return FieldCtx(p, (0, 1))
    rng = seeded_rng(seed, "field-modulus", p, f)
    while True:
        coeffs = [rng.randrange(p) for _ in range(f)] + [1]
        if _has_root(coeffs, p):
            continue  # a root in F_p makes a degree f >= 2 modulus reducible
        try:
            return FieldCtx(p, coeffs)
        except ValueError:
            continue


def frobenius(e: FieldElement, k: int) -> FieldElement:
    """e^(p^k) via the precomputed p-th-power linear maps; k is taken mod f,
    since z^(p^f) = z in F_{p^f}."""
    if k < 0:
        raise ValueError("negative Frobenius power")
    return _element(e.owner, e.owner.frob(e.row(), k % e.owner.deg))


def exact_order_element(ctx: FieldCtx, k: int, rng) -> FieldElement:
    """g^((size-1)/k) for random nonzero g drawn from rng, until one has
    exact multiplicative order k (k must divide size - 1)."""
    prime_divs = nt.factorize(k).primes()
    cofactor = (ctx.size - 1) // k
    while True:
        g = ctx.random_element(rng)
        if not g:
            continue
        z = g**cofactor
        if all(z ** (k // q) != ctx.one() for q in prime_divs):
            return z


# -- polynomials over a field ------------------------------------------------------
#
# A polynomial over the field K (a PolyModRing with irreducible modulus, and
# prime_field(p) for F_p itself) is an (m, K.deg) int64 array of coefficient
# rows, constant term first.  The helpers return it trimmed: the top row is
# nonzero, and the zero polynomial has m = 0.


def prime_field(p: int) -> PolyModRing:
    """F_p as the ring F_p[x]/(x): its elements are rows of length 1."""
    return PolyModRing(p, (0, 1))


def poly_trim(a: np.ndarray) -> np.ndarray:
    m = len(a)
    while m and not a[m - 1].any():
        m -= 1
    return a[:m]


def poly_divmod(K: PolyModRing, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of a by a nonzero b over K, by long division
    by b made monic."""
    r, b = poly_trim(a % K.p), poly_trim(b % K.p)
    db = len(b) - 1
    if len(r) <= db:
        return r[:0], r
    monic = b[-1, 0] == 1 and not b[-1, 1:].any()
    if not monic:
        lead_inv = K.inv(b[-1])[None, :]
        b = K.mul(b, lead_inv)
    q = np.empty((len(r) - db, K.deg), dtype=np.int64)
    for i in range(len(r) - 1, db - 1, -1):
        q[i - db] = r[i]
        r[i - db : i + 1] = (r[i - db : i + 1] - K.mul(q[i - db : i - db + 1], b)) % K.p
    return q if monic else K.mul(q, lead_inv), poly_trim(r[:db])


def poly_gcd(K: PolyModRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Monic gcd of a and b over K (the zero polynomial when both are zero)."""
    a, b = poly_trim(a % K.p), poly_trim(b % K.p)
    while len(b):
        a, b = b, poly_divmod(K, a, b)[1]
    return K.mul(a, K.inv(a[-1])[None, :]) if len(a) else a


# -- internal helpers -----------------------------------------------------------


def _has_root(coeffs: list[int], p: int) -> bool:
    """Whether the polynomial (coefficients from the constant term up) has a
    root in F_p, by Horner over all p points at once."""
    x = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        val = (val * x + c) % p
    return not val.all()
