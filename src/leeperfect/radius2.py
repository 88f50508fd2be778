"""Nonexistence criteria for linear perfect Lee codes of radius 2.

Four families, all deciding properties of the group order 2n^2 + 2n + 1:

* kim_check - the projected power-sum test: for a prime divisor v > 2n+1,
  existence forces a(x+1) + by = n - l to be solvable for some small l;
  the least solvable l is the minimum of (n - ak) mod b over k = x+1.
* small_v_check - the small-divisor tests for v in {5, 13, 17} with their
  square preconditions on 8n+1 and 8n-3.
* lambda_check / field_check - the unit-group invariant lambda attached to a
  pair (v, p) with p | 2n, and the finite-field conditions on the
  character-orbit sums theta(x, y) when lambda is nondegenerate.  The theta
  table is indexed by the exponent of x*y in Z/N, N = lcm(lambda, v); in
  both of the paper's forms (power sum, trace sum) theta is one sum over
  the subgroup <2, p> of (Z/N)*, read off the N traces of the powers of an
  order-N element.  The y-exponents of one candidate x form a coset of the
  order-v subgroup, that is one column of the table's (v, N/v) view, so
  each condition is one column reduction over the whole table instead of a
  loop over x.  lambda is a gcd over the exponent pairs (i, j) with
  2^i = p^j mod v; it is read off a Lagrange-Gauss reduced basis of their
  lattice, so the gcd runs on integers of a few thousand bits instead of
  p^l - 1 itself.
* orbit_check - exhaustive search over chi(T) mod p for the instances
  (v, p) = (13, 11) and (17, 3), reproducing the published machine
  computation: the class values are the Frobenius images of tau = V(1), so
  the one projected equation V(2) = 2n - V(1)^2 selects the candidates.
  This module supplies that residual, the re-check of every chain and
  Frobenius edge on each survivor, its classification against the two
  quadratic factors and the quadratic preconditions; orbitfield runs the
  scan, reconstructs the coefficients and value at the principal point,
  and gives the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import nt
from .fields import (
    PolyModRing, _fits_int64, build_field, exact_order_element, poly_gcd, prime_field,
)
from .geometry import group_order_r2
from .nt import BudgetExceeded
from .orbitfield import CosineField, budget_skip, class_survey, search_outcome
from .outcomes import Caps, CriterionOutcome, DEFAULT_CAPS, Status, Tier, read_only


def _divisor_factorization(d: int, fac: nt.Factorization) -> nt.Factorization:
    """Factorization of a divisor d of fac.n, read off fac."""
    rest, out = d, []
    for q, _ in fac.factors:
        e = 0
        while rest % q == 0:
            rest //= q
            e += 1
        if e:
            out.append((q, e))
    assert rest == 1, "d does not divide the factored integer"
    return nt.Factorization(d, tuple(out))


# ---------------------------------------------------------------------------
# generalized power-sum (two-coin) criterion
# ---------------------------------------------------------------------------


def _least_shift(a: Optional[int], b: int, n: int) -> Optional[int]:
    """The least l >= 0 with a(x+1) + by = n - l solvable in x, y >= 0, or
    None (a is None: no exponent).  For k = x+1 the solvable shifts are
    l = n - ak mod b, so l* is the minimum of (n - ak) mod b over
    1 <= k <= n // a; the residue has period b / gcd(a, b) in k, so k <= b."""
    if a is None or a > n:
        return None
    return min((n - a * k) % b for k in range(1, min(n // a, b) + 1))


def kim_check(
    n: int, caps: Caps = DEFAULT_CAPS, fac: Optional[nt.Factorization] = None,
) -> CriterionOutcome:
    """Excluded iff some prime v | order, v > 2n+1, makes every shift l
    in 0..floor(m/4) unsolvable in a(x+1) + by = n - l, that is the least
    solvable shift l* = min over k of (n - ak) mod b (_least_shift) is
    absent or exceeds floor(m/4).  `fac` is the order's factorization when
    the caller already has it."""
    if n < 2:
        raise ValueError("kim_check requires n >= 2")
    order = group_order_r2(n)
    if fac is None:
        try:
            fac = nt.factorize(order, budget=caps.factor_budget, seed=caps.seed)
        except BudgetExceeded as e:
            return CriterionOutcome("kim", Status.SKIPPED, reason=str(e), params={"n": n})
    entries = []
    fired = None
    for v in fac.primes():
        if v <= 2 * n + 1:
            continue
        try:
            vfac = nt.factorize(v - 1, budget=caps.factor_budget, seed=caps.seed)
        except BudgetExceeded as e:
            return CriterionOutcome("kim", Status.SKIPPED, reason=str(e), params={"n": n, "v": v})
        b = nt.mult_order(4, v, vfac)
        # None when -(4n+2) lies outside <4>: no exponent exists
        j = nt.discrete_log_factored(4, -(4 * n + 2), v, _divisor_factorization(b, vfac))
        a = None if j is None else (b if j == 0 else j)
        m = order // v
        l_star = _least_shift(a, b, n)
        solvable_l = l_star if l_star is not None and l_star <= m // 4 else None
        entry = {
            "v": v,
            "a": "infinity" if a is None else a,
            "b": b,
            "m": m,
            "l_range": m // 4 + 1,
            "solvable_l": solvable_l,
        }
        entries.append(entry)
        if solvable_l is None and fired is None:
            fired = entry
    params = {"n": n, "order": order}
    if not entries:
        return CriterionOutcome(
            "kim", Status.NOT_APPLICABLE, reason="no prime divisor exceeds 2n+1",
            params=params, certificate={"divisors": {str(q): e for q, e in fac.factors}},
        )
    cert = {"evaluated": entries, "factorization": {str(q): e for q, e in fac.factors}}
    if fired is not None:
        return CriterionOutcome(
            "kim", Status.EXCLUDED, tier=Tier.UNCONDITIONAL,
            reason=f"every shift 0..{fired['m'] // 4} unsolvable for v={fired['v']}",
            params={**params, "v": fired["v"]}, certificate=cert,
        )
    return CriterionOutcome("kim", Status.UNDECIDED, reason="some shift solvable for every eligible v",
                            params=params, certificate=cert)


# ---------------------------------------------------------------------------
# small-divisor criterion (v in {5, 13, 17})
# ---------------------------------------------------------------------------


def quadratic_preconditions(n: int, v: int) -> tuple[Optional[int], bool]:
    """(sqrt of 8n+1 if square else None, whether 8n-3 equals v * square)."""
    square8n1 = nt.is_perfect_square(8 * n + 1)
    vk2_hit = False
    if v in (5, 13):
        q, r = divmod(8 * n - 3, v)
        if r == 0 and q >= 0 and nt.is_perfect_square(q) is not None:
            vk2_hit = True
    return square8n1, vk2_hit


SMALL_DIVISORS = (5, 13, 17)  # the v of small_v_check, also tallied one by one by survey.counts


def small_v_check(n: int) -> CriterionOutcome:
    """Excluded iff 8n+1 is non-square and one of the divisors 5, 13, 17 of
    the order passes its square precondition on 8n-3."""
    if n < 2:
        raise ValueError("small_v_check requires n >= 2")
    order = group_order_r2(n)
    params = {"n": n, "order": order}
    c = nt.is_perfect_square(8 * n + 1)
    if c is not None:
        return CriterionOutcome(
            "small_v", Status.NOT_APPLICABLE,
            reason=f"8n+1 = {8 * n + 1} = {c}^2 is a perfect square", params=params,
            certificate={"sqrt_8n_plus_1": c},
        )
    divisors = [v for v in SMALL_DIVISORS if order % v == 0]
    if not divisors:
        return CriterionOutcome(
            "small_v", Status.NOT_APPLICABLE,
            reason="none of 5, 13, 17 divides the order", params=params,
        )
    fired = []
    blocked = []
    for v in divisors:
        _, vk2 = quadratic_preconditions(n, v)
        if vk2:
            blocked.append({"v": v, "reason": f"8n-3 = {8 * n - 3} = {v} * square"})
        else:
            fired.append(v)
    cert = {"fired": fired, "blocked": blocked, "eight_n_minus_3": 8 * n - 3}
    if fired:
        return CriterionOutcome(
            "small_v", Status.EXCLUDED, tier=Tier.UNCONDITIONAL,
            reason=f"8n+1 non-square; divisor(s) {fired} pass the square preconditions",
            params={**params, "v": fired[0]}, certificate=cert,
        )
    return CriterionOutcome(
        "small_v", Status.UNDECIDED,
        reason="all small divisors blocked by 8n-3 = v*k^2", params=params, certificate=cert,
    )


# ---------------------------------------------------------------------------
# the lambda invariant of a pair (v, p)
# ---------------------------------------------------------------------------


@dataclass
class LambdaCertificate:
    """Inputs, hypothesis flags, and the computed invariant for one (v, p)."""

    n: int
    v: int
    p: int
    m: int
    m1: int
    m2: int
    h2: int  # multiplicative order of 2 mod v
    hp: int  # multiplicative order of p mod v (= extension degree f)
    f: int
    l: int  # least i with p^i = +-1 mod v
    d: int
    i0: int
    j0: int
    lam: int
    hypotheses: dict[str, bool]

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    def to_json(self) -> dict:
        out = self.__dict__.copy()
        return out


def _gauss_reduce(u: tuple[int, int], w: tuple[int, int]):
    """Lagrange-Gauss reduction of the basis (u, w) of a rank-2 lattice, with
    exact integer rounding; returns (u, w) with |u| <= |w| and |<u, w>| at
    most |u|^2 / 2, so u is a shortest nonzero vector."""
    def dot(s, t):
        return s[0] * t[0] + s[1] * t[1]

    if dot(u, u) > dot(w, w):
        u, w = w, u
    while True:
        uu = dot(u, u)
        mu = (2 * dot(u, w) + uu) // (2 * uu)  # round(<u, w> / <u, u>)
        w = (w[0] - mu * u[0], w[1] - mu * u[1])
        if dot(w, w) >= uu:
            return u, w
        u, w = w, u


def _pair_value(a: int, b: int, p: int, mod: Optional[int] = None) -> int:
    """The integer whose divisors r (prime to 2p) are those with 2^a = p^b
    (mod r): 2^a - p^b when a and b have the same sign, 2^a p^|b| - 1 when
    they differ, after normalising (a, b) to a >= 0.  Taken mod `mod` by
    three-argument pow when given, so no exponent-sized integer is built."""
    if a < 0:
        a, b = -a, -b
    if b >= 0:
        return pow(2, a, mod) - pow(p, b, mod)
    return pow(2, a, mod) * pow(p, -b, mod) - 1


def lambda_chain(v: int, p: int, vfac: nt.Factorization):
    """The invariant lambda of the prime pair (v, p): the largest r dividing
    p^l - 1 and every difference 2^i - p^j over the pairs (i, j) of the
    lattice generated by (h2, 0), (0, hp) and (i0, j0), all of which have
    2^i = p^j mod v.

    lambda divides p^l - 1, which is prime to p, and the odd 2^h2 - 1.  An
    r prime to 2p divides 2^i - p^j for every pair of a lattice exactly when
    it divides the values (_pair_value) of one basis, so lambda only needs a
    good basis.  The three generators go to Hermite normal form (g, c),
    (0, hp), of determinant g hp <= v - 1, and Lagrange-Gauss reduction
    leaves a shortest vector u of length at most sqrt(2 (v - 1) / sqrt 3).
    The value x of u has a few thousand bits at most (6237 is the most over
    every pair of n <= 1000); the factors 2 and p are stripped from it, and
    the other basis value and p^l - 1 are only taken mod x.  For p = 2,
    lambda is 2^l - 1 exactly.  Returns (h2, hp, l, i0, j0, lambda); vfac
    factors v - 1.
    """
    h2 = nt.mult_order(2, v, vfac)
    hp = nt.mult_order(p, v, vfac)
    l = hp // 2 if (hp % 2 == 0 and pow(p, hp // 2, v) == v - 1) else hp
    i0 = (v - 1) // hp
    # (2^i0)^hp = 2^(v-1) = 1, so 2^i0 lies in <p>, the subgroup of order hp
    j0 = nt.discrete_log(p, pow(2, i0, v), v, hp)
    assert j0 is not None, "2^i0 outside <p>: v is not prime"
    if p == 2:
        return h2, hp, l, i0, j0, 2**l - 1
    # Hermite normal form: t (i0, j0) - k (h2, 0) = (g, t j0) with t i0 = g
    # (mod h2), and a pair (0, j) has p^j = 1, so hp | j: the second row is
    # (0, hp) itself
    g = math.gcd(h2, i0)
    t = pow(i0 // g, -1, h2 // g)
    u, w = _gauss_reduce((g, t * j0 % hp), (0, hp))
    x = abs(_pair_value(*u, p))
    x >>= (x & -x).bit_length() - 1  # strip the factors 2
    while x % p == 0:
        x //= p
    lam = math.gcd(x, _pair_value(*w, p, x), pow(p, l, x) - 1)
    return h2, hp, l, i0, j0, lam


def lambda_value(n: int, v: int, p: int, caps: Caps = DEFAULT_CAPS) -> LambdaCertificate:
    """The reduced-basis lambda of lambda_chain for a prime divisor v of the
    order and a prime p | 2n, with its lattice data (h2, hp, l, i0, j0), the
    hypothesis flags and the coefficient data m, m1, m2 of the criterion.
    For prime v, j0 always exists, so the data are defined whether or not 2
    and p generate the units mod v; two_and_p_generate only gates the
    criterion."""
    if n < 2:
        raise ValueError("lambda_value requires n >= 2")
    order = group_order_r2(n)
    if order % v != 0 or not nt.is_prime(v):
        raise ValueError(f"{v} is not a prime divisor of the order {order}")
    if not nt.is_prime(p) or (2 * n) % p != 0:
        raise ValueError(f"{p} is not a prime divisor of 2n = {2 * n}")
    vfac = nt.factorize(v - 1, budget=caps.factor_budget, seed=caps.seed)
    m = order // v
    m1 = m % p
    m2 = (2 * m) % p
    h2, hp, l, i0, j0, lam = lambda_chain(v, p, vfac)
    f = hp
    d = (v - 1) // f
    # rho is the residue of the one reconstructed coefficient whose character
    # argument collapses to 1; the unity-candidate contradiction needs the
    # sharp bound (v-1) m2 + rho, slightly stronger than the plain m2 v
    rho = (m * (2 - v)) % p
    hypotheses = {
        "coefficient_bound_m1": 2 * n + 1 < m1 * v,
        "coefficient_bound_m2": 2 * n + 1 < m2 * v,
        "coefficient_bound_m2_sharp": 2 * n + 1 < (v - 1) * m2 + rho,
        # (Z/v)* is cyclic, so <2, p> has order lcm(h2, hp)
        "two_and_p_generate": math.lcm(h2, hp) == v - 1,
    }
    return LambdaCertificate(
        n=n, v=v, p=p, m=m, m1=m1, m2=m2, h2=h2, hp=hp, f=f, l=l, d=d,
        i0=i0, j0=j0, lam=lam, hypotheses=hypotheses,
    )


def lambda_bruteforce(v: int, p: int) -> int:
    """Independent oracle: gcd over all exponent pairs in the box
    [0, h2] x [0, hp] with 2^i = p^j (mod v), using exact big integers."""
    vfac = nt.factorize(v - 1)
    h2 = nt.mult_order(2, v, vfac)
    hp = nt.mult_order(p, v, vfac)
    f = hp
    l = f // 2 if (f % 2 == 0 and pow(p, f // 2, v) == v - 1) else f
    g = p**l - 1
    by_residue: dict[int, list[int]] = {}
    x = 1
    for i in range(h2 + 1):
        by_residue.setdefault(x, []).append(i)
        x = x * 2 % v
    y = 1
    for j in range(hp + 1):
        for i in by_residue.get(y, ()):
            if i == 0 and j == 0:
                continue
            g = math.gcd(g, abs(2**i - p**j))
        y = y * p % v
    return g


def lambda_check(n: int, v: int, p: int, caps: Caps = DEFAULT_CAPS) -> CriterionOutcome:
    """Condition: the invariant must avoid the degenerate values 1 and v."""
    cert = lambda_value(n, v, p, caps)
    params = {"n": n, "v": v, "p": p}
    if not cert.hypotheses_ok:
        failed = [k for k, ok in cert.hypotheses.items() if not ok]
        return CriterionOutcome(
            "lambda", Status.NOT_APPLICABLE, reason=f"hypotheses failed: {failed}",
            params=params, certificate=cert.to_json(),
        )
    if cert.lam in (1, v):
        return CriterionOutcome(
            "lambda", Status.EXCLUDED, tier=Tier.UNCONDITIONAL,
            reason=f"lambda = {cert.lam} is degenerate",
            params={**params, "lambda": cert.lam}, certificate=cert.to_json(),
        )
    return CriterionOutcome(
        "lambda", Status.UNDECIDED, reason=f"lambda = {cert.lam}",
        params={**params, "lambda": cert.lam}, certificate=cert.to_json(),
    )


# ---------------------------------------------------------------------------
# finite-field conditions on theta(x, y)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _field_ctx(p: int, f: int, seed: int):
    return build_field(p, f, seed=seed)


def _orbit_sum(T: np.ndarray, L: int, p: int) -> np.ndarray:
    """S(k) = sum of T[k * 2^i mod N] over i < L, mod p, for every k < N.

    T is an (N,) or (N, f) table with entries in [0, p), L >= 1.  Binary
    splitting S_{a+b}(k) = S_a(k) + S_b(k * 2^a mod N) walks the bits of L:
    each bit doubles a (gather S itself) and a set bit adds one term (gather
    T), so the sum takes at most 2 floor(log2 L) gathers instead of L - 1.
    One % p at the end suffices: S_L <= L (p - 1), far inside int64.
    """
    k = np.arange(T.shape[0], dtype=np.int64)
    S = T.copy()
    a = 1
    for bit in bin(L)[3:]:
        S += S[k * pow(2, a, len(k)) % len(k)]  # S_{2a}(k) = S_a(k) + S_a(k * 2^a)
        a *= 2
        if bit == "1":
            S += T[k * pow(2, a, len(k)) % len(k)]  # S_{a+1}(k) = S_a(k) + T[k * 2^a]
            a += 1
    return S % p


def _theta_tables(ctx, w, N: int, d: int) -> np.ndarray:
    """theta for every possible product x*y at once: the N-vector of
    residues S(k) = sum of Tr(w^(k 2^i)) over i < d, mod p.

    x and y are both powers of the order-N element w, a coefficient row of
    ctx (N = lcm(lambda, v), f = ctx.deg, d f = v - 1), so theta(x, y) only
    depends on the w-exponent k of x*y.  Both modes of field_check are the
    sum of w^(k h) over the subgroup H = <2, p> of (Z/N)*:
    - H has v - 1 elements.  Under two_and_p_generate the lambda lattice,
      spanned by (h2, 0), (0, hp) and (i0, j0), has determinant
      gcd(h2, i0) hp = i0 hp = v - 1, so it holds every pair with
      2^i = p^j (mod v); lambda and v divide every 2^i - p^j on it, so N
      does too, and reduction mod v maps H isomorphically onto (Z/v)*.
    - Trace mode: 2 generates (Z/v)* / <p>, of order d, so the 2^i p^e,
      i < d, e < f, run over H once.
    - Power-sum mode (h2 = v - 1): <2> = H, so the power sum over i < v - 1
      is the same sum, fixed by Frobenius (p H = H) and so in F_p.
    So every check needs only the N scalars Tr(w^j) = w^j . T[:, 0]: on a
    field every trace lies in F_p, which one check of the trace matrix T
    confirms, PolyModRing.powers_dot takes them by baby-step/giant-step
    without an (N, f) table, and _orbit_sum sums their orbits by binary
    splitting.  Afterwards each (x, y) pair is a single lookup.
    """
    T = ctx.trace_matrix()
    assert not T[:, 1:].any(), "trace left the prime subfield"
    return _orbit_sum(ctx.powers_dot(w, N, T[:, 0]), d, ctx.p)


def _field_candidates(residues, n: int, v: int, p: int, lam: int, m: int):
    """The per-candidate conditions of field_check, one column at a time.

    residues is the N-vector of _theta_tables, N = lcm(lam, v).
    Candidate x_index = i pairs with the y-exponents i N/lam + k N/v mod N,
    k < v: a coset of the order-v subgroup of Z/N.  Column c of the
    (v, N/v) view of the table holds exactly the coset of c, and no
    condition depends on the order within a coset, so each statistic is one
    axis-0 reduction over the view, and candidate i reads column
    i N/lam mod N/v.  Every theta value lies in F_p (_theta_tables), so
    every candidate is admissible.  m is reduced mod p before it multiplies
    theta, so no product leaves int64.  Returns the dicts of the first
    min(lam, 64) candidates and the number of candidates that pass.
    """
    N = residues.shape[0]
    cols = N // v
    R = residues.reshape(v, cols)
    if m == 1:
        count1 = (R == 1 % p).sum(axis=0)
        count0 = (R == 0).sum(axis=0)
        ok = (count1 == 2 * n * n) & (count0 == 2 * n + 1)
    else:
        mp = m % p
        sum_ok = mp * (R.sum(axis=0) % p) % p == 0
        range_violations = (mp * (1 - R) % p > min(m, p - 1)).sum(axis=0)
        ok = sum_ok & (range_violations == 0)
    col_of = np.arange(lam, dtype=np.int64) * (N // lam) % cols
    candidates = []
    for xi, c in enumerate(col_of[:64].tolist()):
        if m == 1:
            candidates.append({
                "x_index": xi, "admissible": True, "count_theta_1": int(count1[c]),
                "count_theta_0": int(count0[c]), "passes": bool(ok[c]),
            })
        else:
            candidates.append({
                "x_index": xi, "admissible": True, "sum_ok": bool(sum_ok[c]),
                "range_violations": int(range_violations[c]), "passes": bool(ok[c]),
            })
    return candidates, int(ok[col_of].sum())


def field_check(
    n: int, v: int, p: int, caps: Caps = DEFAULT_CAPS,
    lam_cert: Optional[LambdaCertificate] = None,
) -> CriterionOutcome:
    """Search for an admissible x among the lambda-th roots of unity.

    Excluded iff no x satisfies the applicable condition: the weighted sum
    m * sum_y theta(x,y) = 0 (mod p) with every reconstructed coefficient
    residue m(1-theta) in {0..m} when v < order, or the exact value counts
    #theta=1 = 2n^2 and #theta=0 = 2n+1 when v equals the order.  Every
    theta(x, y) is one entry of the table of _theta_tables; the y of one x
    form a coset of the order-v subgroup, a column of the table's (v, N/v)
    view, so _field_candidates decides all lambda candidates from one
    reduction per statistic over that view.
    """
    params = {"n": n, "v": v, "p": p}
    if lam_cert is None:
        lam_cert = lambda_value(n, v, p, caps)
    if not lam_cert.hypotheses_ok:
        failed = [k for k, ok in lam_cert.hypotheses.items() if not ok]
        return CriterionOutcome(
            "field", Status.NOT_APPLICABLE, reason=f"hypotheses failed: {failed}",
            params=params, certificate=lam_cert.to_json(),
        )
    lam = lam_cert.lam
    if lam in (1, v):
        raise ValueError("degenerate lambda: the lambda criterion already decides")
    f = lam_cert.f
    if f > caps.max_field_degree:
        return CriterionOutcome(
            "field", Status.SKIPPED,
            reason=f"extension degree {f} exceeds max_field_degree {caps.max_field_degree}",
            params={**params, "f": f},
        )
    N = lam * v // math.gcd(lam, v)
    if N > caps.max_unity_enum:
        return CriterionOutcome(
            "field", Status.SKIPPED,
            reason=f"unity enumeration {N} exceeds max_unity_enum {caps.max_unity_enum}",
            params={**params, "f": f},
        )
    # the paper's form of theta, for the certificate: _theta_tables sums both alike
    mode = "power_sum" if lam_cert.h2 == v - 1 else "trace"
    table_work = N * (v - 1 if mode == "power_sum" else lam_cert.d)
    if table_work > caps.search_node_budget:
        return CriterionOutcome(
            "field", Status.SKIPPED,
            reason=f"theta table work {table_work} exceeds search_node_budget "
                   f"{caps.search_node_budget}",
            params={**params, "f": f},
        )
    ctx = _field_ctx(p, f, caps.seed)
    w = exact_order_element(ctx, N, nt.seeded_rng(caps.seed, "unity-gen", p, f, N))
    # the lambda-th roots lie in the subfield fixed by Frobenius^l
    x_gen = fixed = ctx.pow(w, N // lam)
    for _ in range(lam_cert.l % f):  # single steps: frob(x_gen, e) would cache frob_matrix(e)
        fixed = ctx.frob(fixed)
    assert np.array_equal(fixed, x_gen), "lambda-th root escaped F_{p^l}"
    # the lambda lattice mod N, on which _theta_tables' one sum over <2, p> rests
    assert pow(2, lam_cert.h2, N) == 1 and pow(2, lam_cert.i0, N) == pow(p, lam_cert.j0, N), \
        "lambda lattice pair with 2^i != p^j mod N"
    residues = _theta_tables(ctx, w, N, lam_cert.d)
    m = lam_cert.m
    candidates, passing = _field_candidates(residues, n, v, p, lam, m)
    cert = {
        "lambda": lam, "mode": mode, "f": f, "l": lam_cert.l, "d": lam_cert.d,
        "m": m, "unity_order": N,
        "candidates": candidates, "passing": passing,
    }
    if not passing:
        which = "value counts" if m == 1 else "sum/range conditions"
        return CriterionOutcome(
            "field", Status.EXCLUDED, tier=Tier.UNCONDITIONAL,
            reason=f"no admissible x among the {lam} unity candidates satisfies the {which}",
            params={**params, "lambda": lam, "f": f}, certificate=cert,
        )
    return CriterionOutcome(
        "field", Status.UNDECIDED, reason="some candidate x satisfies the conditions",
        params={**params, "lambda": lam, "f": f}, certificate=cert,
    )


# ---------------------------------------------------------------------------
# exhaustive orbit search over chi(T) mod p
# ---------------------------------------------------------------------------

ORBIT_INSTANCES = {13: 11, 17: 3}  # v -> validated companion prime p


def _roots_cheaper(F: CosineField, k: int) -> bool:
    """Whether the radius-2 candidates come from the roots of H = g^(k)(x) - x
    (_periodic_roots) rather than a scan of F: the dense ring F_p[x]/H costs
    (2^k)^2, the size of its reduction matrix, against the p^((v-1)/2)
    candidates of the scan, and its int64 products must not overflow.  At
    p = 2, 2^k = p^((v-1)/2), so that case always scans."""
    return 4**k <= F.size and _fits_int64(F.p, 2**k)


def _periodic_roots(F: CosineField, two_n: int, e2: int, k: int) -> np.ndarray:
    """Every tau in F with Frob^e2(tau) = g(tau), g(x) = 2n - x^2, as digit
    rows in enumeration order.  g has coefficients in F_p, so such a tau has
    Frob^(j e2)(tau) = g^(j)(tau); Frob^e2 has order k on F, so tau is a root
    of H = g^(k)(x) - x, of degree 2^k.  The taus are then the roots in F of
    gcd(H, x^(p^deg) - x, x^(p^e2) - g(x)), with both powers taken in
    F_p[x]/H."""
    p = F.p
    gk = np.array([0, 1], dtype=np.int64)
    for _ in range(k):
        gk = -np.convolve(gk, gk) % p
        gk[0] = (gk[0] + two_n) % p
    gk[1] -= 1
    H = -gk % p  # made monic: g^(k) has leading coefficient -1
    ring = PolyModRing(p, H)
    x = ring.x_vec()
    g_x = -ring.square(x[None, :])[0]
    g_x[0] += two_n
    found = H[:, None]
    for r in (ring.pow(x, F.size) - x, ring.pow(x, p**e2) - g_x):
        found = poly_gcd(prime_field(p), found, r[:, None])
    return F.poly_roots(found[:, 0])


@lru_cache(maxsize=None)
def _orbit_r2_class(v: int, p: int, n_mod_p: int) -> dict:
    """Class-level exhaustive search; depends on n only through n mod p."""
    F = CosineField(p, v)
    two_n = 2 * n_mod_p % p
    e2 = F.frob_exponent[F.pm_class(2)]

    def chain_step(A):
        out = (-F.square(A)) % p
        out[:, 0] = (out[:, 0] + two_n) % p
        return out

    def kind_of(row, values):
        # re-verify the construction invariants V(2j) = 2n - V(j)^2, V(pj) = V(j)^p
        for c in values:
            c2, cp = F.pm_class(2 * c), F.pm_class(p * c)
            assert np.array_equal(values[c2], chain_step(values[c]))
            assert np.array_equal(values[cp], F.frob(values[c]))
        # classification against the two quadratic factors
        sq = F.square(row[None, :])[0]
        q1 = (sq - row) % p
        q1[0] = (q1[0] - (two_n - 1)) % p
        q2 = (sq + row) % p
        q2[0] = (q2[0] - two_n) % p
        if not q1.any():
            return "quadratic_factor_1"
        if not q2.any():
            return "quadratic_factor_2"
        return "other"

    def residual(tau):
        # the chain step at class 1, V(2) = 2n - V(1)^2; its Frobenius images
        # are the chain steps at the other classes, re-asserted by kind_of
        return F.frob(tau, e2) - chain_step(tau)

    k = F.deg // math.gcd(e2, F.deg)  # the order of 2 in (Z/v)*/{+-1}
    if _roots_cheaper(F, k):
        # the residual still decides: it keeps every root that solves it
        rows = _periodic_roots(F, two_n, e2, k)
        rows = rows[~residual(rows).any(axis=1)]
    else:
        rows = F.roots(residual)
    return read_only(class_survey(F, rows, n_mod_p, kind_of))


def orbit_check(
    n: int, v: int, caps: Caps = DEFAULT_CAPS,
    p: Optional[int] = None, allow_generic: bool = False,
) -> CriterionOutcome:
    """Reproduction of the published orbit computation for one divisor v.

    Defaults to the validated instances (13, 11) and (17, 3); any other
    (v, p) needs allow_generic=True and passes the same hypothesis checks
    (v prime dividing the order, p prime and primitive mod v).
    """
    if n < 2:
        raise ValueError("orbit_check requires n >= 2")
    params = {"n": n, "v": v}
    if p is None:
        p = ORBIT_INSTANCES.get(v)
        if p is None:
            raise ValueError(f"no default companion prime for v={v}; pass p explicitly")
    params["p"] = p
    if (v, p) not in ORBIT_INSTANCES.items() and not allow_generic:
        raise ValueError(f"instance (v={v}, p={p}) is experimental; pass allow_generic=True")
    order = group_order_r2(n)
    if order % v != 0:
        return CriterionOutcome(
            "orbit", Status.NOT_APPLICABLE, reason=f"{v} does not divide the order", params=params
        )
    if not nt.is_prime(v) or not nt.is_prime(p):
        raise ValueError("v and p must be prime")
    square8n1, vk2 = quadratic_preconditions(n, v)
    if square8n1 is not None:
        return CriterionOutcome(
            "orbit", Status.NOT_APPLICABLE,
            reason=f"8n+1 = {square8n1}^2 is a perfect square", params=params,
        )
    if v == 13 and vk2:
        return CriterionOutcome(
            "orbit", Status.NOT_APPLICABLE,
            reason="8n-3 = 13 * square blocks the quadratic-factor argument", params=params,
        )
    skip = budget_skip("orbit", params, caps)
    if skip is not None:
        return skip
    cert = {
        "preconditions": {"eight_n_plus_1_nonsquare": True, "vk2_hit": vk2},
        **_orbit_r2_class(v, p, n % p),
    }
    return search_outcome(
        "orbit", params, cert, "no consistent candidate survives the projected equations",
        "the quadratic factors",
    )
