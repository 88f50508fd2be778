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

DEFAULT_MAX_DEGREE = 80
DEFAULT_MAX_UNITY = 65536


class PolyModRing:
    """F_p[x] / (modulus), modulus monic of degree deg >= 1, on coefficient rows."""

    def __init__(self, p: int, modulus: Iterable[int]):
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.deg = d = len(modulus) - 1
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
        return (conv[:, :d] + conv[:, d:] @ self._red) % p

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

    def frob_matrix(self, e: int) -> np.ndarray:
        """Matrix of z -> z^(p^e) on coefficient rows (row i holds (x^i)^(p^e))."""
        e %= self.deg
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
        self.f = self.deg
        self.order = p**self.f
        if not self._is_irreducible():
            raise ValueError(f"modulus {self.modulus} is reducible over F_{p}")

    def _is_irreducible(self) -> bool:
        """Rabin: x^(p^f) = x and gcd(x^(p^(f/q)) - x, modulus) = 1, q | f prime."""
        f, p = self.f, self.p
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
        for q in nt.factorize(f).primes():
            diff = (powers[f // q] - x) % p
            if not diff.any():
                return False
            if _poly_gcd_degree(list(diff), list(self.modulus), p) > 0:
                return False
        return True

    # -- elements --------------------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        arr = tuple(int(c) % self.p for c in coeffs)
        if len(arr) > self.f:
            raise ValueError("too many coefficients")
        return FieldElement(self, arr + (0,) * (self.f - len(arr)))

    def zero(self) -> "FieldElement":
        return self.element(())

    def one(self) -> "FieldElement":
        return self.element((1,))

    def scalar(self, c: int) -> "FieldElement":
        return self.element((c,))

    def gen(self) -> "FieldElement":
        return self.element((0, 1)) if self.f > 1 else self.one()

    def random_element(self, rng) -> "FieldElement":
        return self.element(tuple(rng.randrange(self.p) for _ in range(self.f)))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, f={self.f})"


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
        return self ** (self.owner.order - 2)

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


def build_field(p: int, f: int, seed: int = 0, max_degree: int = DEFAULT_MAX_DEGREE) -> FieldCtx:
    """Seeded search for an irreducible degree-f modulus; same seed, same field."""
    if not nt.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f < 1:
        raise ValueError("degree must be >= 1")
    if f > max_degree:
        raise BudgetExceeded(f"extension degree {f} exceeds the cap {max_degree}")
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
    """e^(p^k) via the precomputed p-th-power linear maps."""
    if k < 0:
        raise ValueError("negative Frobenius power")
    return _element(e.owner, e.owner.frob(e.row(), k))


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


def roots_of_unity(
    ctx: FieldCtx, k: int, seed: int = 0, cap: int = DEFAULT_MAX_UNITY
) -> list[FieldElement]:
    """All k-th roots of unity, as powers of one exact-order-k element."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if (ctx.order - 1) % k != 0:
        raise ValueError(f"{k} does not divide the multiplicative group order")
    if k > cap:
        raise BudgetExceeded(f"unity group size {k} exceeds the cap {cap}")
    if k == 1:
        return [ctx.one()]
    z = exact_order_element(ctx, k, seeded_rng(seed, "unity", ctx.p, ctx.f, k))
    roots = [ctx.one()]
    cur = z
    for _ in range(k - 1):
        roots.append(cur)
        cur = cur * z
    return roots


def exact_order_element(ctx: FieldCtx, k: int, rng) -> FieldElement:
    """g^((order-1)/k) for random nonzero g drawn from rng, until one has
    exact multiplicative order k (k must divide order - 1)."""
    prime_divs = nt.factorize(k).primes()
    cofactor = (ctx.order - 1) // k
    while True:
        g = ctx.random_element(rng)
        if not g:
            continue
        z = g**cofactor
        if all(z ** (k // q) != ctx.one() for q in prime_divs):
            return z


# -- internal helpers -----------------------------------------------------------


def _has_root(coeffs: list[int], p: int) -> bool:
    """Whether the polynomial (coefficients from the constant term up) has a
    root in F_p, by Horner over all p points at once."""
    x = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        val = (val * x + c) % p
    return not val.all()


def _poly_gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) over F_p; 0 means coprime up to units."""

    def norm(v):
        v = [int(c) % p for c in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = norm(a), norm(b)
    while b:
        # a mod b
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b) and r:
            lead = r[-1] * inv % p
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - lead * c) % p
            r = norm(r)
        a, b = b, r
    return max(len(a) - 1, 0)
