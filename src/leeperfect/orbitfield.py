"""Vectorized arithmetic for the character-orbit searches.

The orbit searches quantify over x = chi(T) mod p, where chi has odd prime
order v and the symmetry x(-j) = x(j) confines candidates to the subfield
F_{p^((v-1)/2)}.  That subfield has a canonical model: F_p[y] / Psi_v(y),
where Psi_v is the minimal polynomial of zeta_v + zeta_v^{-1}.  Whenever p is
primitive mod v (true for every instance run here, and checked), Psi_v stays
irreducible mod p, the whole constructed field *is* the candidate domain, and
the paired powers zeta^k + zeta^-k needed by the inversion formula are plain
polynomial expressions in the generator y.  No embedding into F_{p^(v-1)} is
ever required.

Primitivity also fixes every class value by the one at class 1: Frobenius
sends class c to class pc, and the powers p^e (e < deg) meet each +- class
once, so the value at the class of p^e is tau^(p^e).  A projected equation
at any class is then the Frobenius image of the one at class 1, and a
search needs only that one equation in tau.

CosineField is a fields.PolyModRing with modulus Psi_v mod p: every
candidate-level operation is the shared batched kernel on (N, deg) integer
arrays, so a full scan of F_{11^6} (about 1.8M candidates) runs in seconds.
On top of the kernel it adds the paired powers, the class values, the
chunked root scan and the inversion back to the coefficients a_g.
"""

from __future__ import annotations

import numpy as np

from . import nt
from .fields import PolyModRing

# candidates per batch of the root scan; the kernel's temporaries on a batch
# (a few (chunk, 2 deg - 1) int64 arrays) set the orbit search's peak memory
_CHUNK = 1 << 16


def cosine_min_poly(v: int) -> list[int]:
    """Monic minimal polynomial of zeta_v + zeta_v^{-1} over Z (low to high).

    Built from the recursion for the paired powers D_k = zeta^k + zeta^-k:
    D_0 = 2, D_1 = y, D_{k+1} = y*D_k - D_{k-1}; the vanishing sum of all
    v-th roots of unity gives 1 + sum_{k=1..(v-1)/2} D_k = 0.
    """
    if v < 3 or v % 2 == 0:
        raise ValueError("v must be an odd prime >= 3")
    half = (v - 1) // 2

    def padd(a, b):
        m = max(len(a), len(b))
        return [
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(m)
        ]

    d_prev, d_cur = [2], [0, 1]
    acc = padd([1], d_cur)
    for _ in range(half - 1):
        d_prev, d_cur = d_cur, padd([0] + d_cur, [-c for c in d_prev])
        acc = padd(acc, d_cur)
    assert len(acc) == half + 1 and acc[-1] == 1
    return acc


class CosineField(PolyModRing):
    """F_p[y]/Psi_v(y) with batched (N, deg) operations; y = zeta_v + zeta_v^-1."""

    def __init__(self, p: int, v: int):
        if nt.mult_order(p % v, v) != v - 1:
            raise ValueError(f"{p} is not primitive mod {v}: cosine model is reducible")
        super().__init__(p, cosine_min_poly(v))
        self.v = v
        # paired powers c_k = zeta^k + zeta^-k as field elements, k = 0..v (c_v = c_0)
        y = self.x_vec()[None, :]
        cos = [self.scalar_vec(2)[None, :], y]
        for k in range(2, v + 1):
            cos.append((self.mul(cos[k - 1], y) - cos[k - 2]) % p)
        assert np.array_equal(cos[v], cos[0]), "cosine recursion failed to close"
        self.cosines = np.concatenate(cos[:v])
        # frob_exponent[c] = e with class(p^e) = c, so the value at c is tau^(p^e)
        self.frob_exponent = {self.pm_class(pow(p, e, v)): e for e in range(self.deg)}
        assert len(self.frob_exponent) == self.deg, "Frobenius missed a class"

    def class_values(self, A: np.ndarray) -> dict:
        """Values at every +- class c = 1..deg of the class-1 values A."""
        return {c: self.frob(A, e) for c, e in self.frob_exponent.items()}

    def roots(self, residual) -> np.ndarray:
        """Every tau (as a digit row, in enumeration order) where the batched
        residual(tau) is all zero, by a chunked scan of the whole field."""
        found = []
        for start in range(0, self.size, _CHUNK):
            tau = self.enumerate(start, min(start + _CHUNK, self.size))
            found.append(tau[~residual(tau).any(axis=1)])
        return np.concatenate(found)

    def coefficients(self, values: dict, total: int) -> list[int]:
        """Inversion a_g = (total + sum_j values[j] * c_(jg)) / v, g = 0..v-1,
        from the 1-row class values j = 1..deg; asserts that every a_g lands in
        F_p and that they sum to total (mod p)."""
        v, p = self.v, self.p
        acc = np.zeros((v, self.deg), dtype=np.int64)
        acc[:, 0] = total
        for j in range(1, self.deg + 1):
            acc += self.mul(values[j], self.cosines[np.arange(v) * j % v])
        a = acc % p * pow(v, -1, p) % p
        assert not a[:, 1:].any(), "reconstructed coefficient left the prime subfield"
        assert a[:, 0].sum() % p == total % p, "coefficient sum mismatch"
        return a[:, 0].tolist()

    def enumerate(self, start: int, stop: int) -> np.ndarray:
        """Candidates start..stop-1 as base-p digit rows."""
        idx = np.arange(start, stop, dtype=np.int64)
        out = np.empty((stop - start, self.deg), dtype=np.int64)
        for i in range(self.deg):
            out[:, i] = idx % self.p
            idx = idx // self.p
        return out

    @property
    def size(self) -> int:
        return self.p**self.deg

    def pm_class(self, j: int) -> int:
        """Representative of {j, -j} mod v in 1..(v-1)/2 (0 for the identity)."""
        j %= self.v
        return min(j, self.v - j)
