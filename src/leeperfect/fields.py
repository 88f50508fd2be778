"""Arithmetic in F_p[x]/(m) and explicit finite field extensions F_{p^f}.

PolyModRing is the one kernel: coefficient rows of length d = deg m, with a
batched multiply-and-reduce on (N, d) int64 arrays, single-element powers,
and multiplication, Frobenius and trace as precomputed F_p-linear maps (d x d
matrices), which keeps the per-element cost of the character-orbit
evaluations low even at degree 70.  Both the theta tables over F_{p^f} and
the orbit searches in F_p[y]/Psi_v (orbitfield.CosineField) run on it.
powers builds the (n, d) table of a^j, each doubling block written into
its own rows: the baby steps of powers_dot and the digit table of pow.
powers_dot takes only the products a^j . t with one column t, by
baby-step/giant-step on sqrt(n) rows, so the theta values (one trace
column, in both modes of field_check) build no (N, f) table.

The F_p-linear maps (multiplication matrices, the power tables, Frobenius
and its powers, the trace) run as float64 BLAS products (_matmul): every
partial sum is an integer below 2^53, so they are exact.  _matmul converts,
multiplies and reduces one row block at a time into its int64 result, so a
product costs its result's bytes and one block's, not a float64 copy of
each operand and of the product beside it.  The shift-add product mul and
pow stay on int64: their reduce multiplies unreduced coefficients, whose
sums _fits_int64 bounds only by 2^63.

A FieldCtx is a PolyModRing whose modulus is a monic irreducible polynomial
over F_p: build_field draws seeded candidates in batches, drops those with a
root in F_p in one scan and those with x^(p^f) != x in one Rabin's test
stacked over the batch (_rabin), and keeps the first of the rest in draw
order that FieldCtx accepts.  _rabin is the one irreducibility test:
FieldCtx runs it in full on its own modulus.
exact_order_element draws a row of given multiplicative order (pow takes a
large exponent in base-p digits when p is small against the degree).  The
scalar FieldElement that the tests compare with lives in theta_reference.py.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nt
from .nt import BudgetExceeded, seeded_rng

_INT64_MAX = 2**63 - 1
_FLOAT_EXACT = 2**53  # float64 holds every integer up to here exactly
_ONE_THREAD = 2**18  # OpenBLAS runs a product of at most this many multiply-adds on one thread
_SEARCH_BATCH = 16  # build_field's candidates per root scan for p <= 1024 (BENCH_fieldsearch.json)
_RABIN_BUDGET = 2**17  # build_field's rows per _rabin call times f^2 (BENCH_rabinbatch.json)


def _fits_int64(p: int, d: int) -> bool:
    """Whether no int64 sum of PolyModRing.mul can pass 2^63 - 1 at degree d.

    The shift-add product leaves each of the d - 1 high coefficients below
    (d - 1)(p - 1)^2, unreduced; their product with the reduction rows (entries
    below p) adds (d - 1)^2 (p - 1)^3 to a low coefficient below d (p - 1)^2.
    _rabin's products (_mul_rows) are such products, one modulus per row.

    The F_p-linear maps (_matmul) sum only d products below p^2, and this
    bound keeps those sums below 2^43 < 2^53 for every d >= 2, so their
    float64 products are exact, stacked or not (_rabin's reduction rows,
    Frobenius matrices and steps are such products, one modulus per matrix
    of the stack): (d - 1)^2 (p - 1)^3 < 2^63 gives
    (p - 1)^2 < 2^42 / (d - 1)^(4/3), and d / (d - 1)^(4/3) falls from 2 at
    d = 2, so d (p - 1)^2 < 2^43.  At d = 1 the bound admits p up to about
    3e9, where (p - 1)^2 passes 2^53; _matmul keeps those products on int64.
    """
    return d * (p - 1) ** 2 + (d - 1) ** 2 * (p - 1) ** 3 <= _INT64_MAX


def _matmul(A: np.ndarray, B: np.ndarray, p: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(A @ B) mod p as int64, for int64 or float64 operands holding integers
    in [0, p); written into out (int64, of the product's shape, not
    overlapping A) when given, and returned.

    Each entry sums k = A.shape[-1] products below (p - 1)^2.  While that
    stays below 2^53 (every ring of degree >= 2, see _fits_int64), every
    partial sum is an integer that float64 holds exactly, whatever order
    BLAS adds in, so its blocking and thread count cannot change a result.
    Past that (degree-1 rings with p above about 9.5e7) the product stays on
    int64.

    A matrix A, or each matrix of a stack, is multiplied in row blocks of at
    most _ONE_THREAD multiply-adds, which OpenBLAS runs on the calling
    thread: a second BLAS thread spins between calls, which slowed the worker
    processes of a --threads scan and bought no wall time in one process
    (BENCH_fieldblas.json).  Each block of A is converted to the product's
    type on its own, and its product is cast and reduced straight into its
    rows of the int64 result, so no converted copy of A and no full float64
    product sit beside the result (BENCH_thetaclasses.json).  A vector A
    (as a 1-row matrix), or a stack of 1-row matrices (_rabin's steps), is
    one block: OpenBLAS ran those vector-matrix products on one thread at
    every degree tried, up to 400.
    """
    if A.ndim == 1:  # a vector is a 1-row matrix
        return _matmul(A[None, :], B, p, None if out is None else out[..., None, :])[..., 0, :]
    dtype = np.float64 if A.shape[-1] * (p - 1) ** 2 <= _FLOAT_EXACT else np.int64
    # contiguous operands: numpy runs a strided view through its own loop, not BLAS
    B = np.ascontiguousarray(B, dtype=dtype)
    step = max(1, _ONE_THREAD // max(1, A.shape[-1] * B.shape[-1]))
    if out is None:
        # np.broadcast_shapes costs more than a small product: only for a stacked B
        stack = A.shape[:-2] if B.ndim == 2 else np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
        out = np.empty(stack + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for i in range(0, A.shape[-2], step):
        block = out[..., i : i + step, :]
        block[...] = np.ascontiguousarray(A[..., i : i + step, :], dtype=dtype) @ B
        block %= p  # on int64: a float fmod is ten times slower
    return out


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
        self._red = _frozen(_reduction_rows(np.array([modulus[:-1]]), p)[0])
        self._frob = {0: _frozen(np.eye(d))}
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
        return _reduce(conv, self._red, self.p)

    def square(self, A: np.ndarray) -> np.ndarray:
        return self.mul(A, A)

    def mul_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of z -> a z on coefficient rows (row i holds x^i a), for a
        reduced 1-D a: its d shifted copies, unreduced, are windows on a
        padded with zeros, and one product with the reduction rows reduces
        them all."""
        d = self.deg
        z = np.zeros(3 * d - 2, dtype=np.int64)
        z[d - 1 : 2 * d - 1] = a
        shifted = sliding_window_view(z, 2 * d - 1)[::-1]
        return (_matmul(shifted[:, d:], self._red, self.p) + shifted[:, :d]) % self.p

    def powers(self, a: np.ndarray, n: int) -> np.ndarray:
        """The (n, deg) table of a^j, j < n, for a reduced 1-D a, n >= 1, in
        doubling blocks: rows s + j are rows j times a^s, one product with
        mul_matrix(a^s) per block, so log2 n matrices in place of n - 1
        single-row products.  _matmul writes each block into its rows of
        the table, so the table is the only (n, deg) array built."""
        P = np.zeros((n, self.deg), dtype=np.int64)
        P[0] = self.scalar_vec(1)
        if n > 1:
            P[1] = a
        s = 2
        while s < n:
            b = min(s, n - s)
            a_s = self.mul(P[s - 1 : s], P[1:2])[0]
            _matmul(P[:b], self.mul_matrix(a_s), self.p, out=P[s : s + b])
            s += b
        return P

    def powers_dot(self, a: np.ndarray, n: int, t: np.ndarray) -> np.ndarray:
        """The n-vector of a^j . t mod p, j < n, for a reduced 1-D a, n >= 1,
        and a column t of length deg, without the (n, deg) table of powers.

        Baby-step/giant-step: with B = ceil(sqrt n) and j = q B + r, a^j . t
        is a^r . u_q, u_q = mul_matrix(a^(qB)) t.  The giant steps u_q are
        built by doubling like powers: u_(s+q) = mul_matrix(a^(sB)) u_q, since
        multiplication matrices commute.  One (B, deg) x (deg, G) product
        then holds every value, q-major.  n deg + sqrt(n) deg^2 work, and
        O(n + sqrt(n) deg) memory in place of powers' O(n deg)."""
        B = math.isqrt(n - 1) + 1
        G = -(-n // B)
        baby = self.powers(a, B + 1)
        U = np.empty((G, self.deg), dtype=np.int64)
        U[0] = t
        giant, s = baby[B], 1  # giant = a^(sB); s doubles until the last block
        while s < G:
            b = min(s, G - s)
            _matmul(U[:b], self.mul_matrix(giant).T, self.p, out=U[s : s + b])
            giant = self.mul(giant[None], giant[None])[0]
            s += b
        return _matmul(baby[:B], U.T, self.p).T.reshape(-1)[:n]

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """Single-element power (1-D in, 1-D out), e >= 0: in base-p digits when
        e >= p and the p-row table costs at most the deg log2 p squarings saved."""
        p = self.p
        if p <= e and p <= self.deg * p.bit_length():  # at degree 1, p = 2 only
            return self._pow_digits(a, e)
        return self._square_multiply(a, e)

    def _square_multiply(self, a: np.ndarray, e: int) -> np.ndarray:
        r = self.scalar_vec(1)[None, :]
        base = a[None, :] % self.p
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r[0]

    def _pow_digits(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e by the base-p digits of e, most significant first: per digit one
        Frobenius step r -> r^p and one product with a row of powers(a, p)."""
        digits = []
        while e:
            e, digit = divmod(e, self.p)
            digits.append(digit)
        table, r = self.powers(a % self.p, self.p), self.scalar_vec(1)
        for digit in reversed(digits):
            r = self.mul(self.frob(r)[None, :], table[digit : digit + 1])[0]
        return r

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
        z^(p^deg) = z.  The matrix is the ring's cached one, read-only, and
        float64, the operand type of _matmul, so that a Frobenius step does
        not convert it.  frob_matrix(1) is the one-modulus stack of
        _frob_matrices, which Rabin's test builds for its candidates."""
        if e not in self._frob:
            if e == 1:
                m = _frob_matrices(self._red[None], self.p)[0]
            else:
                m = _matmul(self.frob_matrix(e - 1), self.frob_matrix(1), self.p)
            self._frob[e] = _frozen(m.astype(np.float64, copy=False))
        return self._frob[e]

    def frob(self, A: np.ndarray, e: int = 1) -> np.ndarray:
        return _matmul(A, self.frob_matrix(e), self.p)

    def trace_matrix(self) -> np.ndarray:
        """Matrix of z -> sum of z^(p^k), k < deg, acting on coefficient rows
        (cached, read-only).  Binary splitting over the bits of deg, as
        radius2._orbit_sum: with F = frob_matrix(1) and S_a the sum of F^k
        over k < a, S_2a = S_a + S_a F^a and S_(a+1) = S_a + F^a, so at most
        3 log2 deg products in place of deg - 1.  The powers F^a are not
        kept."""
        if self._trace is None:
            p, F = self.p, self.frob_matrix(1)
            S, power = np.eye(self.deg, dtype=np.int64), F  # S_a and F^a, a = 1
            for bit in bin(self.deg)[3:]:
                S = (S + _matmul(S, power, p)) % p  # S_2a
                power = _matmul(power, power, p)  # F^2a
                if bit == "1":
                    S = (S + power) % p  # S_(2a+1)
                    power = _matmul(power, F, p)  # F^(2a+1)
            self._trace = _frozen(S)
        return self._trace


class FieldCtx(PolyModRing):
    """F_{p^f} = F_p[x] / (modulus), modulus monic irreducible of degree f."""

    def __init__(self, p: int, modulus: Iterable[int]):
        super().__init__(p, modulus)
        if not self._is_irreducible():
            raise ValueError(f"modulus {self.modulus} is reducible over F_{p}")

    def _is_irreducible(self) -> bool:
        """Rabin's test (_rabin) on the one row of the modulus, with the
        ring's own reduction rows and Frobenius matrix, which stays cached
        for the field."""
        low = np.array([self.modulus[:-1]])
        return bool(_rabin(low, self.p, self._red[None], self.frob_matrix(1)[None])[0])


def build_field(p: int, f: int, seed: int = 0) -> FieldCtx:
    """Seeded search for an irreducible degree-f modulus; same seed, same field.
    The degree cap is the caller's (field_check reads Caps.max_field_degree).

    Candidates are drawn in batches: one root scan drops those with a root in
    F_p, and one stacked _rabin call, at most _RABIN_BUDGET // f^2 rows at a
    time, drops those with x^(p^f) != x.  The rest go to FieldCtx in draw
    order, whose _rabin decides the gcd condition with the Frobenius matrix
    the field keeps.  At f <= 3 a root-free candidate is irreducible.  The
    first accepted row in draw order is the modulus, the one a search of one
    candidate at a time finds; draws past it change nothing."""
    if not nt.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f < 1:
        raise ValueError("degree must be >= 1")
    if not _fits_int64(p, f):
        raise BudgetExceeded(f"p = {p} at degree {f} overflows the int64 kernel")
    if f == 1:
        return FieldCtx(p, (0, 1))
    rng = seeded_rng(seed, "field-modulus", p, f)
    rows = max(1, min(_SEARCH_BATCH, _SEARCH_BATCH * 1024 // p))  # grid <= max(2^14, p) entries
    step = max(1, _RABIN_BUDGET // f**2)
    while True:
        batch = np.reshape([rng.randrange(p) for _ in range(rows * f)], (-1, f))
        free = batch[_root_free(batch, p)]  # a root in F_p makes a modulus reducible
        if f <= 3 and len(free):  # without a root, so without a linear factor: irreducible
            return FieldCtx(p, [*free[0], 1])
        for i in range(0, len(free), step):
            chunk = free[i : i + step]
            for low in chunk[_rabin(chunk, p, gcd=False)]:
                try:
                    return FieldCtx(p, [*low, 1])
                except ValueError:
                    continue


def exact_order_element(ctx: FieldCtx, k: int, rng) -> np.ndarray:
    """The row g^((size-1)/k) for random nonzero g drawn from rng, until one
    has exact multiplicative order k; k must divide size - 1."""
    if (ctx.size - 1) % k:
        raise ValueError(f"{k} does not divide {ctx.size} - 1")
    prime_divs = nt.factorize(k).primes()
    cofactor = (ctx.size - 1) // k
    one = ctx.scalar_vec(1)
    while True:
        g = np.array([rng.randrange(ctx.p) for _ in range(ctx.deg)], dtype=np.int64)
        if not g.any():
            continue
        z = ctx.pow(g, cofactor)
        if all(not np.array_equal(ctx.pow(z, k // q), one) for q in prime_divs):
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


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a ring's cached maps are shared by every caller
    (radius2._field_ctx caches whole rings)."""
    a.flags.writeable = False
    return a


def _root_free(low: np.ndarray, p: int) -> np.ndarray:
    """Which monic polynomials have no root in F_p, each a row of its low
    coefficients (constant term first): Horner over the (rows, p) grid."""
    x = np.arange(p, dtype=np.int64)
    val = np.ones((low.shape[0], p), dtype=np.int64)
    for c in low.T[::-1]:
        val *= x
        val += c[:, None]
        val %= p
    return val.all(axis=1)


def _reduction_rows(low: np.ndarray, p: int) -> np.ndarray:
    """The (k, d - 1, d) stack of x^(d + j) mod each of k monic moduli of
    degree d, j < d - 1, each modulus a row of its low coefficients.  By
    doubling: rows s + j are rows j shifted by s, their top s coefficients
    reduced by the rows < s."""
    k, d = low.shape
    red = np.zeros((k, max(d - 1, 1), d), dtype=np.int64)
    red[:, 0] = -low % p
    s = 1
    while s < d - 1:
        b = min(s, d - 1 - s)
        red[:, s : s + b, s:] = red[:, :b, : d - s]
        red[:, s : s + b] = (red[:, s : s + b] + _matmul(red[:, :b, d - s :], red[:, :s], p)) % p
        s += b
    return red[:, : d - 1]


def _reduce(conv: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    """Unreduced product rows (..., 2d - 1) reduced by the reduction rows red
    (..., d - 1, d): one matrix for every row (PolyModRing.reduce), or a
    stack, one modulus per matrix (_mul_rows).  int64: the caller keeps the
    sums in range (_fits_int64)."""
    d = red.shape[-1]
    return (conv[..., :d] + conv[..., d:] @ red) % p


def _times_x(A: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    """Stacked rows A (k, d) times x: a shift, and the top coefficient times
    the first reduction row."""
    R = A[:, -1:] * red[:, 0]
    R[:, 1:] += A[:, :-1]
    R %= p
    return R


def _mul_rows(A: np.ndarray, B: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    """Stacked rows A times rows B (k, d), each mod its own modulus:
    np.convolve per row, as PolyModRing.mul takes one row (build_field's
    stacks hold at most _SEARCH_BATCH rows), then _reduce by the reduction
    rows."""
    return _reduce(np.array([np.convolve(a, b) for a, b in zip(A, B)])[:, None], red, p)[:, 0]


def _frob_matrices(red: np.ndarray, p: int) -> np.ndarray:
    """The float64 (k, d, d) stack of Frobenius matrices of k moduli of degree
    d, from their reduction rows red (k, d - 1, d): row i holds
    (x^p)^i.  x^p is a unit row when p < d, a reduction row when
    p <= 2d - 2, and a stacked square-and-multiply otherwise.  Row i + 1 is
    row i times the matrix of z -> x^p z, whose rows x^(p + j) are single
    shifts (_times_x) of x^p.  At d = 1 the matrix is (1)."""
    k, _, d = red.shape
    if d == 1:
        return np.ones((k, 1, 1))
    if p < d:
        xp = np.zeros((k, d), dtype=np.int64)
        xp[:, p] = 1
    elif p <= 2 * d - 2:
        xp = red[:, p - d]
    else:
        xp = np.zeros((k, d), dtype=np.int64)
        xp[:, 1] = 1
        for bit in bin(p)[3:]:
            xp = _mul_rows(xp, xp, red, p)
            if bit == "1":
                xp = _times_x(xp, red, p)
    M = np.empty((k, d, d))
    M[:, 0] = xp
    for j in range(1, d):
        M[:, j] = xp = _times_x(xp, red, p)
    Q = np.zeros((k, d, d))
    Q[:, 0, 0] = 1
    for i in range(1, d):
        Q[:, i] = _matmul(Q[:, i - 1 : i], M, p)[:, 0]
    return Q


def _rabin(low: np.ndarray, p: int, red: Optional[np.ndarray] = None, Q: Optional[np.ndarray] = None,
           gcd: bool = True) -> np.ndarray:
    """Rabin's irreducibility test on k monic polynomials of degree d at once,
    each a row of its low coefficients (k, d): the mask of those with
    x^(p^d) = x and gcd(x^(p^(d/q)) - x, m) = 1 for every prime q | d.

    Every step is a stacked product over all k: the reduction rows red, the
    Frobenius matrices Q (_frob_matrices; a FieldCtx passes its own of
    both), then steps y -> y Q from y = x^p (row 1 of Q) up to x^(p^d),
    which keep x^(p^(d/q)).  Only the rows with x^(p^d) = x reach the gcd
    condition, which takes one gcd per row: of m and the product, mod m, of
    the x^(p^(d/q)) - x, since gcd(a b mod m, m) = 1 iff gcd(a, m) =
    gcd(b, m) = 1.  With gcd=False the mask is the first condition alone
    (build_field leaves the gcd to FieldCtx).  Every monic polynomial of
    degree 1 is irreducible."""
    k, d = low.shape
    if d == 1:
        return np.ones(k, dtype=bool)
    if red is None:
        red = _reduction_rows(low, p)
    if Q is None:
        Q = _frob_matrices(red, p)
    x = np.zeros(d, dtype=np.int64)
    x[1] = 1
    kept = dict.fromkeys(d // q for q in nt.factorize(d).primes())
    y = Q[:, 1].astype(np.int64)
    for j in range(1, d):  # y = x^(p^j)
        if j in kept:
            kept[j] = y
        y = _matmul(y[:, None], Q, p)[:, 0]
    accepted = (y == x).all(axis=1)
    if gcd and accepted.any():
        rows = np.flatnonzero(accepted)
        product, *rest = ((y_j[rows] - x) % p for y_j in kept.values())
        for factor in rest:
            product = _mul_rows(product, factor, red[rows], p)
        for i, row in zip(rows, product):
            modulus = np.append(low[i], 1)[:, None]
            # gcd(0, modulus) is the modulus itself
            accepted[i] = len(poly_gcd(prime_field(p), row[:, None], modulus)) == 1
    return accepted
