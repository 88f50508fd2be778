"""Nonexistence criteria for linear perfect Lee codes of radius 2.

Four families, all deciding properties of the group order 2n^2 + 2n + 1:

* kim_check - the projected power-sum test: for a prime divisor v > 2n+1,
  existence forces a(x+1) + by = n - l to be solvable for some small l.
* small_v_check - the small-divisor tests for v in {5, 13, 17} with their
  square preconditions on 8n+1 and 8n-3.
* lambda_check / field_check - the unit-group invariant lambda attached to a
  pair (v, p) with p | 2n, and the finite-field conditions on the
  character-orbit sums theta(x, y) when lambda is nondegenerate.
* orbit_check - exhaustive search over chi(T) mod p for the instances
  (v, p) = (13, 11) and (17, 3), reproducing the published machine
  computation: the class values are the Frobenius images of tau = V(1), so
  the one projected equation V(2) = 2n - V(1)^2 selects the candidates and
  every chain and Frobenius edge is re-asserted on each survivor; then
  integrality of the reconstructed coefficients, the reconstruction value
  at the principal point, and classification of survivors against the two
  quadratic factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import nt
from .fields import (
    build_field, exact_order_element, frobenius, in_prime_subfield, trace_to_prime,
)
from .nt import INFINITY, BudgetExceeded
from .orbitfield import CosineField
from .outcomes import Caps, CriterionOutcome, DEFAULT_CAPS, Status, Tier, read_only


def order_r2(n: int) -> int:
    return 2 * n * n + 2 * n + 1


def _divisor_factorization(d: int, fac: nt.Factorization) -> nt.Factorization:
    """Factorization of a divisor d of fac.n, read off fac."""
    out = []
    for q, _ in fac.factors:
        e = 0
        while d % q == 0:
            d //= q
            e += 1
        if e:
            out.append((q, e))
    assert d == 1, "d does not divide the factored integer"
    return nt.Factorization(int(_prod(out)), tuple(out))


def _prod(factors) -> int:
    n = 1
    for q, e in factors:
        n *= q**e
    return n


# ---------------------------------------------------------------------------
# generalized power-sum (two-coin) criterion
# ---------------------------------------------------------------------------


def kim_check(n: int, caps: Caps = DEFAULT_CAPS) -> CriterionOutcome:
    """Excluded iff some prime v | order, v > 2n+1, makes every shift l
    in 0..floor(m/4) unsolvable in a(x+1) + by = n - l."""
    if n < 2:
        raise ValueError("kim_check requires n >= 2")
    order = order_r2(n)
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
        target = (-(4 * n + 2)) % v
        a: float | int
        if pow(target, b, v) != 1:
            a = INFINITY  # target outside <4>: no exponent exists
        else:
            bfac = _divisor_factorization(b, vfac)
            j = nt.discrete_log_factored(4, target, v, bfac)
            assert j is not None
            a = b if j == 0 else j
        m = order // v
        solvable_l = None
        for l in range(m // 4 + 1):
            if nt.solvable_shifted(a, b, n - l):
                solvable_l = l
                break
        entry = {
            "v": v,
            "a": "infinity" if a is INFINITY else a,
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


def small_v_check(n: int) -> CriterionOutcome:
    """Excluded iff 8n+1 is non-square and one of the divisors 5, 13, 17 of
    the order passes its square precondition on 8n-3."""
    if n < 2:
        raise ValueError("small_v_check requires n >= 2")
    order = order_r2(n)
    params = {"n": n, "order": order}
    c = nt.is_perfect_square(8 * n + 1)
    if c is not None:
        return CriterionOutcome(
            "small_v", Status.NOT_APPLICABLE,
            reason=f"8n+1 = {8 * n + 1} = {c}^2 is a perfect square", params=params,
            certificate={"sqrt_8n_plus_1": c},
        )
    divisors = [v for v in (5, 13, 17) if order % v == 0]
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
    i0: Optional[int]
    j0: Optional[int]
    lam: Optional[int]
    hypotheses: dict[str, bool]

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    def to_json(self) -> dict:
        out = self.__dict__.copy()
        return out


def _generates_full_unit_group(gens: list[int], v: int, vfac: nt.Factorization) -> bool:
    """<gens> = (Z/v)* for prime v, via the maximal-subgroup test."""
    phi = v - 1
    for q, _ in vfac.factors:
        if all(pow(g, phi // q, v) == 1 for g in gens):
            return False
    return True


def lambda_chain(v: int, p: int, vfac: nt.Factorization):
    """The gcd invariant of the pair (v, p): the largest r dividing p^l - 1
    and every difference 2^i - p^j over exponent pairs with 2^i = p^j mod v.

    Computed from the three generating pairs (h2, 0), (0, hp), (i0, j0) of
    the pair lattice, reducing each difference modulo the running gcd so no
    integer with exponent-many digits is ever materialized beyond p^l - 1.
    Returns (h2, hp, l, i0, j0, lambda); j0 is None when 2^i0 lies outside
    <p>, and lambda is then only an upper bound.  vfac factors v - 1.
    """
    h2 = nt.mult_order(2, v, vfac)
    hp = nt.mult_order(p, v, vfac)
    l = hp // 2 if (hp % 2 == 0 and pow(p, hp // 2, v) == v - 1) else hp
    M = p**l - 1
    if M > 1:
        M = math.gcd(M, pow(2, h2, M) - 1)
    if M > 1:
        M = math.gcd(M, pow(p, hp, M) - 1)
    i0 = (v - 1) // hp
    j0 = nt.discrete_log(p, pow(2, i0, v), v, hp)
    if j0 is not None and M > 1:
        M = math.gcd(M, (pow(2, i0, M) - pow(p, j0, M)) % M)
    return h2, hp, l, i0, j0, M


def lambda_value(n: int, v: int, p: int, caps: Caps = DEFAULT_CAPS) -> LambdaCertificate:
    """lambda_chain for a pair (v, p) of dimension n, with the hypothesis
    flags and the coefficient data m, m1, m2 of the criterion."""
    order = order_r2(n)
    if order % v != 0:
        raise ValueError(f"{v} does not divide the order {order}")
    if (2 * n) % p != 0:
        raise ValueError(f"{p} does not divide 2n")
    vfac = nt.factorize(v - 1, budget=caps.factor_budget, seed=caps.seed)
    m = order // v
    m1 = m % p
    m2 = (2 * m) % p
    h2, hp, l, i0, j0, M = lambda_chain(v, p, vfac)
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
        "two_and_p_generate": _generates_full_unit_group([2 % v, p % v], v, vfac),
    }
    if j0 is None:
        # 2^i0 outside <p>: the pair (i0, j0) does not exist, which can only
        # happen when the generation hypothesis fails; the chain value is
        # then only an upper bound and the certificate is already gated.
        hypotheses["two_and_p_generate"] = False
    return LambdaCertificate(
        n=n, v=v, p=p, m=m, m1=m1, m2=m2, h2=h2, hp=hp, f=f, l=l, d=d,
        i0=i0, j0=j0, lam=M, hypotheses=hypotheses,
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


@lru_cache(maxsize=16)
def _field_ctx(p: int, f: int, seed: int, max_degree: int):
    return build_field(p, f, seed=seed, max_degree=max_degree)


def _orbit_sum(T: np.ndarray, L: int, p: int) -> np.ndarray:
    """S(k) = sum of T[k * 2^i mod N] over i < L, mod p, for every k < N.

    T is an (N,) or (N, f) table with entries in [0, p), L >= 1.  Binary
    splitting S_{a+b}(k) = S_a(k) + S_b(k * 2^a mod N) walks the bits of L:
    each bit doubles a (gather S itself) and a set bit adds one term (gather
    T), so the sum takes at most 2 floor(log2 L) gathers instead of L - 1.
    """
    N = T.shape[0]
    k = np.arange(N, dtype=np.int64)
    S = T.copy()
    a = 1
    for bit in bin(L)[3:]:
        S += S[k * pow(2, a, N) % N]  # S_{2a}(k) = S_a(k) + S_a(k * 2^a)
        S %= p
        a *= 2
        if bit == "1":
            S += T[k * pow(2, a, N) % N]  # S_{a+1}(k) = S_a(k) + T[k * 2^a]
            S %= p
            a += 1
    return S


def _theta_tables(ctx, w, N: int, v: int, d: int, mode: str):
    """theta for every possible product x*y at once.

    x and y are both powers of the order-N element w (N = lcm(lambda, v)),
    so theta(x, y) only depends on the w-exponent of x*y.  The (N, f) power
    table W[j] = w^j is built in doubling blocks, W[size + j] = W[j] @ M,
    where M is the F_p-linear matrix of multiplication by w^size.  Each
    theta value is then an orbit sum over the doubling orbit k * 2^i mod N,
    of L = v - 1 rows of W (power sum) or of L = d entries of the trace
    vector (trace), taken by binary splitting in O(log L) gathers.
    Afterwards each (x, y) pair is a single lookup.  Returns
    (residues, in_prime_subfield) as N-vectors.
    """
    f, p = ctx.f, ctx.p
    W = np.zeros((N, f), dtype=np.int64)
    W[0, 0] = 1
    if N > 1:
        W[1] = w.row()
    size = 2
    while size < N:  # doubling blocks: W[size + j] = w^size * w^j
        block = min(size, N - size)
        w_size = ctx.mul(W[size - 1 : size], W[1:2])
        M = ctx.mul(np.eye(f, dtype=np.int64), w_size)
        W[size : size + block] = W[:block] @ M % p
        size += block
    if mode == "power_sum":
        acc = _orbit_sum(W, v - 1, p)
        residues = acc[:, 0]
        in_fp = ~acc[:, 1:].any(axis=1) if f > 1 else np.ones(N, dtype=bool)
        return residues, in_fp
    if mode == "trace":
        tr = W @ ctx.trace_matrix() % p
        assert not tr[:, 1:].any(), "trace left the prime subfield"
        return _orbit_sum(tr[:, 0], d, p), np.ones(N, dtype=bool)
    raise ValueError(f"unknown theta mode {mode!r}")


def field_check(
    n: int, v: int, p: int, caps: Caps = DEFAULT_CAPS,
    lam_cert: Optional[LambdaCertificate] = None,
) -> CriterionOutcome:
    """Search for an admissible x among the lambda-th roots of unity.

    Excluded iff no x satisfies the applicable condition: the weighted sum
    m * sum_y theta(x,y) = 0 (mod p) with every reconstructed coefficient
    residue m(1-theta) in {0..m} when v < order, or the exact value counts
    #theta=1 = 2n^2 and #theta=0 = 2n+1 when v equals the order.
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
    if v > caps.max_unity_enum or lam > caps.max_unity_enum or N > caps.max_unity_enum:
        return CriterionOutcome(
            "field", Status.SKIPPED,
            reason=f"unity enumeration {max(N, v, lam)} exceeds max_unity_enum {caps.max_unity_enum}",
            params={**params, "f": f},
        )
    mode = "power_sum" if lam_cert.h2 == v - 1 else "trace"
    table_work = N * (v - 1 if mode == "power_sum" else lam_cert.d)
    if table_work > caps.search_node_budget:
        return CriterionOutcome(
            "field", Status.SKIPPED,
            reason=f"theta table work {table_work} exceeds search_node_budget "
                   f"{caps.search_node_budget}",
            params={**params, "f": f},
        )
    ctx = _field_ctx(p, f, caps.seed, caps.max_field_degree)
    w = exact_order_element(ctx, N, nt.seeded_rng(caps.seed, "unity-gen", p, f, N))
    # the lambda-th roots lie in the subfield fixed by Frobenius^l
    x_gen = w ** (N // lam)
    assert frobenius(x_gen, lam_cert.l) == x_gen, "lambda-th root escaped F_{p^l}"
    residues, in_fp = _theta_tables(ctx, w, N, v, lam_cert.d, mode)
    m = lam_cert.m
    x_step = N // lam
    y_step = N // v
    ks = np.arange(v, dtype=np.int64) * y_step % N
    per_x = []
    some_pass = False
    for xi in range(lam):
        gamma = (xi * x_step + ks) % N
        if not in_fp[gamma].all():
            per_x.append({"x_index": xi, "admissible": False})
            continue
        thetas = residues[gamma]
        if m == 1:
            count1 = int((thetas == 1 % p).sum())
            count0 = int((thetas == 0).sum())
            ok = count1 == 2 * n * n and count0 == 2 * n + 1
            per_x.append({
                "x_index": xi, "admissible": True, "count_theta_1": count1,
                "count_theta_0": count0, "passes": ok,
            })
        else:
            sum_ok = int(m * thetas.sum()) % p == 0
            range_violations = int(((m * (1 - thetas)) % p > min(m, p - 1)).sum())
            ok = sum_ok and range_violations == 0
            per_x.append({
                "x_index": xi, "admissible": True, "sum_ok": sum_ok,
                "range_violations": range_violations, "passes": ok,
            })
        some_pass = some_pass or ok
    cert = {
        "lambda": lam, "mode": mode, "f": f, "l": lam_cert.l, "d": lam_cert.d,
        "m": m, "unity_order": N,
        "candidates": per_x if lam <= 64 else per_x[:64],
        "passing": sum(1 for c in per_x if c.get("passes")),
    }
    if not some_pass:
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


@lru_cache(maxsize=None)
def _orbit_r2_class(v: int, p: int, n_mod_p: int) -> dict:
    """Class-level exhaustive search; depends on n only through n mod p."""
    F = CosineField(p, v)
    two_n = 2 * n_mod_p % p
    two_n1 = (2 * n_mod_p + 1) % p
    e2 = F.frob_exponent[F.pm_class(2)]

    def chain_step(A):
        out = (-F.square(A)) % p
        out[:, 0] = (out[:, 0] + two_n) % p
        return out

    # the chain step at class 1, V(2) = 2n - V(1)^2; its Frobenius images are
    # the chain steps at the other classes, re-asserted on survivors below
    survivors = F.roots(lambda tau: F.frob(tau, e2) - chain_step(tau))
    records = []
    for row in survivors:
        tau = row[None, :]
        values = F.class_values(tau)
        # re-verify the construction invariants V(2j) = 2n - V(j)^2, V(pj) = V(j)^p
        for c in values:
            c2, cp = F.pm_class(2 * c), F.pm_class(p * c)
            assert np.array_equal(values[c2], chain_step(values[c]))
            assert np.array_equal(values[cp], F.frob(values[c]))
        point_value = F.coefficients(values, two_n1)[0]
        # classification against the two quadratic factors
        sq = F.square(tau)[0]
        q1 = (sq - row) % p
        q1[0] = (q1[0] - (two_n - 1)) % p
        q2 = (sq + row) % p
        q2[0] = (q2[0] - two_n) % p
        if not q1.any():
            kind = "quadratic_factor_1"
        elif not q2.any():
            kind = "quadratic_factor_2"
        else:
            kind = "other"
        records.append({
            "tau": [int(c) for c in row],
            "class": kind,
            "principal_point_value": point_value,
            "principal_point_ok": point_value == two_n1,
        })
    unexplained = [
        r for r in records if r["class"] == "other" and r["principal_point_ok"]
    ]
    return read_only({
        "v": v, "p": p, "n_mod_p": n_mod_p,
        "candidates_scanned": F.size,
        "survivors": records,
        "survivor_count": len(records),
        "unexplained": unexplained,
        "expected_coefficient_sum": two_n1,
    })


def orbit_check(
    n: int, v: int, caps: Caps = DEFAULT_CAPS,
    p: Optional[int] = None, allow_generic: bool = False,
) -> CriterionOutcome:
    """Reproduction of the published orbit computation for one divisor v.

    Defaults to the validated instances (13, 11) and (17, 3); any other
    (v, p) needs allow_generic=True and passes the same hypothesis checks
    (v prime dividing the order, p prime and primitive mod v).
    """
    params = {"n": n, "v": v}
    if p is None:
        p = ORBIT_INSTANCES.get(v)
        if p is None:
            raise ValueError(f"no default companion prime for v={v}; pass p explicitly")
    params["p"] = p
    if (v, p) not in ORBIT_INSTANCES.items() and not allow_generic:
        raise ValueError(f"instance (v={v}, p={p}) is experimental; pass allow_generic=True")
    order = order_r2(n)
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
    if p**((v - 1) // 2) > caps.search_node_budget:
        return CriterionOutcome(
            "orbit", Status.SKIPPED,
            reason=f"candidate space {p}^{(v - 1) // 2} exceeds the search budget", params=params,
        )
    analysis = _orbit_r2_class(v, p, n % p)
    cert = {
        "preconditions": {"eight_n_plus_1_nonsquare": True, "vk2_hit": vk2},
        **analysis,
    }
    if analysis["survivor_count"] == 0:
        return CriterionOutcome(
            "orbit", Status.EXCLUDED, tier=Tier.UNCONDITIONAL,
            reason="no consistent candidate survives the projected equations",
            params=params, certificate=cert,
        )
    if not analysis["unexplained"]:
        return CriterionOutcome(
            "orbit", Status.EXCLUDED, tier=Tier.CITED,
            reason="all survivors carried by the quadratic factors or the published "
                   "principal-point computation",
            params=params, certificate=cert,
        )
    return CriterionOutcome(
        "orbit", Status.UNDECIDED,
        reason=f"{len(analysis['unexplained'])} survivor(s) not explained by any factor",
        params=params, certificate=cert,
    )
