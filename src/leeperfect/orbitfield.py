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
arrays.  On top of the kernel it adds the paired powers, the class values,
two ways to find the candidates that solve a projected equation, and the
inversion back to the coefficients a_g.  roots scans the whole field in
chunks (1.8M candidates for F_{11^6}, about a second); poly_roots splits a
polynomial over F_p whose roots all lie in the field (Cantor-Zassenhaus),
which costs milliseconds when the equation reduces to one.  Radius 2 does
reduce: its survivors are the roots of a polynomial of degree at most
2^k (radius2._periodic_roots), and it scans only when that degree makes
the polynomial arithmetic dearer than the scan.  The radius-3 cubic is not
a polynomial in tau alone, so radius 3 scans its 125 candidates.

The radius-2 and radius-3 orbit criteria share everything after their
candidate rows: class_survey records each survivor (its factor class, the
coefficient value at the principal point), budget_skip refuses a candidate
space over the search budget, and search_outcome turns a class summary
into the three-way verdict.  Each radius module keeps its residual, its
survivor re-checks and factor tests, its preconditions and its reason
strings.
"""

from __future__ import annotations

import numpy as np

from . import nt
from .fields import PolyModRing, poly_divmod, poly_gcd
from .outcomes import Caps, CriterionOutcome, Status, Tier

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

    def poly_roots(self, f, seed: int = 0) -> np.ndarray:
        """Every root of the monic squarefree polynomial f over F_p (coefficients
        from the constant term up, all of its roots in this field), as digit
        rows in enumeration order.  Cantor-Zassenhaus: a = (x + delta)^((q-1)/2)
        mod f, computed in this field's F[x]/f with f's own F_p reduction rows,
        is 1 at about half of the roots for a random delta, so gcd(h, a - 1)
        splits every pending factor h of f in about half the rounds.  delta
        comes from a generator fixed by seed; the rows do not depend on it.
        Needs an odd p."""
        p, s = self.p, len(f) - 1
        if p == 2:
            raise ValueError("Cantor-Zassenhaus splitting needs an odd p")
        if s == 0:
            return np.zeros((0, self.deg), dtype=np.int64)
        lifted = np.zeros((s + 1, self.deg), dtype=np.int64)
        lifted[:, 0] = f
        pending, found = [lifted], []
        rx = PolyModRing(p, f)
        i, j = np.divmod(np.arange(s * s), s)
        rng = nt.seeded_rng(seed, "poly-roots", p, self.v)

        def mulmod(a, b):
            conv = np.zeros((2 * s - 1, self.deg), dtype=np.int64)
            np.add.at(conv, i + j, self.mul(a[i], b[j]))
            return rx.reduce(conv.T % p).T

        while True:
            found += [-h[0] % p for h in pending if len(h) == 2]
            pending = [h for h in pending if len(h) > 2]
            if not pending:
                break
            a = np.zeros((s, self.deg), dtype=np.int64)
            a[0, 0] = 1
            base = np.zeros((s, self.deg), dtype=np.int64)
            base[0] = [rng.randrange(p) for _ in range(self.deg)]
            base[1, 0] = 1
            e = (self.size - 1) // 2
            while e:
                if e & 1:
                    a = mulmod(a, base)
                base = mulmod(base, base)
                e >>= 1
            a[0, 0] = (a[0, 0] - 1) % p
            split = []
            for h in pending:
                g = poly_gcd(self, h, a)
                split += [g, poly_divmod(self, h, g)[0]] if 1 < len(g) < len(h) else [h]
            pending = split
        rows = np.array(found, dtype=np.int64).reshape(-1, self.deg)
        return rows[np.lexsort(rows.T)]

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

    def pm_class(self, j: int) -> int:
        """Representative of {j, -j} mod v in 1..(v-1)/2 (0 for the identity)."""
        j %= self.v
        return min(j, self.v - j)


def class_survey(F: CosineField, rows: np.ndarray, n_mod_p: int, kind_of) -> dict:
    """Summary of one class from its survivor rows tau (roots of the class's
    residual, in enumeration order), with kind_of(row, class values) (which
    re-asserts the survivor's invariants and names its factor class, "other"
    for none) and the reconstructed coefficient at the principal point,
    expected to equal total = 2n + 1 mod p: the coefficient sum of
    T = 1 + sum of (g_i + -g_i), the same at both radii and kept by the
    projection onto the order-v quotient."""
    total = (2 * n_mod_p + 1) % F.p
    records = []
    for row in rows:
        values = F.class_values(row[None, :])
        kind = kind_of(row, values)
        point_value = F.coefficients(values, total)[0]
        records.append({
            "tau": [int(x) for x in row],
            "class": kind,
            "principal_point_value": point_value,
            "principal_point_ok": point_value == total,
        })
    return {
        "v": F.v, "p": F.p, "n_mod_p": n_mod_p,
        "candidates_scanned": F.size,
        "survivors": records,
        "survivor_count": len(records),
        "unexplained": [
            r for r in records if r["class"] == "other" and r["principal_point_ok"]
        ],
        "expected_coefficient_sum": total,
    }


def budget_skip(criterion: str, params: dict, caps: Caps) -> CriterionOutcome | None:
    """A SKIPPED outcome when the candidate space p^((v-1)/2) of
    params["v"], params["p"] exceeds caps.search_node_budget, else None."""
    p, half = params["p"], (params["v"] - 1) // 2
    if p**half <= caps.search_node_budget:
        return None
    return CriterionOutcome(
        criterion, Status.SKIPPED,
        reason=f"candidate space {p}^{half} exceeds the search budget", params=params,
    )


def search_outcome(
    criterion: str, params: dict, cert: dict, none_reason: str, carried_by: str,
) -> CriterionOutcome:
    """The verdict on a class summary: no survivors excludes unconditionally,
    survivors all carried by a factor (or failing the principal point)
    exclude on the cited argument, anything else is undecided."""
    if cert["survivor_count"] == 0:
        status, tier, reason = Status.EXCLUDED, Tier.UNCONDITIONAL, none_reason
    elif not cert["unexplained"]:
        status, tier = Status.EXCLUDED, Tier.CITED
        reason = (f"all survivors carried by {carried_by} or the published "
                  "principal-point computation")
    else:
        status, tier = Status.UNDECIDED, None
        reason = f"{len(cert['unexplained'])} survivor(s) not explained by any factor"
    return CriterionOutcome(
        criterion, status, tier=tier, reason=reason, params=params, certificate=cert,
    )
