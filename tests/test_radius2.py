import copy
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from leeperfect import nt, radius2
from leeperfect.fields import exact_order_element
from leeperfect.geometry import group_order_r2
from leeperfect.orbitfield import CosineField
from leeperfect.outcomes import Caps, DEFAULT_CAPS, Status, Tier
from theta_reference import theta


def test_kim_examples():
    out = radius2.kim_check(4)
    assert out.status is Status.EXCLUDED and out.tier is Tier.UNCONDITIONAL
    entry = out.certificate["evaluated"][0]
    assert (entry["v"], entry["a"], entry["b"], entry["m"]) == (41, 3, 10, 1)

    out = radius2.kim_check(6)
    assert out.status is Status.EXCLUDED
    fired = [e for e in out.certificate["evaluated"] if e["solvable_l"] is None]
    assert fired and fired[0]["v"] == 17 and fired[0]["a"] == "infinity"

    out = radius2.kim_check(2)
    assert out.status is Status.UNDECIDED
    entry = out.certificate["evaluated"][0]
    assert (entry["v"], entry["a"], entry["b"], entry["solvable_l"]) == (13, 2, 6, 0)


def test_kim_with_the_callers_factorization_matches_its_own():
    for n in range(2, 301):
        fac = nt.factorize(group_order_r2(n))
        assert radius2.kim_check(n, DEFAULT_CAPS, fac) == radius2.kim_check(n, DEFAULT_CAPS)


def _two_coin_solvable(a, b, t):
    """Reference for radius2._least_shift: does a(x+1) + by = t admit
    x, y >= 0?  A double loop; a None means no exponent exists."""
    if a is None or t < 0:
        return False
    return any((t - a * (x + 1)) % b == 0 for x in range(t // a))


@given(a=st.none() | st.integers(1, 60), b=st.integers(1, 60), n=st.integers(0, 300),
       L=st.integers(0, 400))
@example(a=3, b=10, n=4, L=0)  # the n = 4, v = 41 firing shift: no l <= 0 works
@example(a=2, b=6, n=2, L=0)  # x = y = 0 solves the unshifted equation
@example(a=None, b=5, n=100, L=100)
@example(a=7, b=9, n=6, L=10)  # a > n
@example(a=4, b=1, n=9, L=0)
@example(a=1, b=3, n=0, L=5)
@example(a=2, b=6, n=50, L=40)  # L >= b
@settings(max_examples=300, deadline=None)
def test_least_shift_is_the_first_solvable_shift(a, b, n, L):
    first = next((l for l in range(n + 1) if _two_coin_solvable(a, b, n - l)), None)
    l_star = radius2._least_shift(a, b, n)
    assert l_star == first
    # kim's cut at l_range = L + 1, against the loop over the shifts
    loop = next((l for l in range(L + 1) if _two_coin_solvable(a, b, n - l)), None)
    assert loop == (l_star if l_star is not None and l_star <= L else None)


def test_kim_certificates_pinned():
    # sha256 of [status, reason, certificate] for n = 2..3000, as the loop
    # over the shifts l = 0..m // 4 computed them
    outs = [radius2.kim_check(n) for n in range(2, 3001)]
    rows = [[o.status.value, o.reason, o.certificate] for o in outs]
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == (
        "29f6f75ea9f9b0e8cdb1e12c8b52142bf4c57447b1c5dca77639bfbe3aa2d1a6")


def test_kim_not_applicable():
    # order 841 = 29^2 has no prime divisor above 2n+1 = 41
    out = radius2.kim_check(20)
    assert out.status is Status.NOT_APPLICABLE


def test_quadratic_preconditions():
    assert radius2.quadratic_preconditions(8, 5) == (None, False)
    assert radius2.quadratic_preconditions(3, 5)[0] == 5  # 25 = 5^2
    assert radius2.quadratic_preconditions(1, 5) == (3, True)  # 9 = 3^2 and 5 = 5*1
    assert radius2.quadratic_preconditions(2, 13) == (None, True)  # 13 = 13*1


def test_small_v_examples():
    for n, v in ((8, 5), (49, 13), (299, 17)):
        out = radius2.small_v_check(n)
        assert out.status is Status.EXCLUDED
        assert v in out.certificate["fired"]
    assert radius2.small_v_check(3).status is Status.NOT_APPLICABLE  # 25 square
    assert radius2.small_v_check(2).status is Status.UNDECIDED  # 13 = 13*1^2 blocks
    assert radius2.small_v_check(4).status is Status.NOT_APPLICABLE  # 41 has no small divisor


def test_lambda_worked_examples():
    cert = radius2.lambda_value(102, 21013, 3)
    assert cert.lam == 1 and cert.l == 5253 and cert.hypotheses_ok
    cert = radius2.lambda_value(14, 421, 7)
    assert cert.lam == 3 and cert.l == 35 and cert.f == 70 and cert.d == 6

    assert radius2.lambda_check(102, 21013, 3).status is Status.EXCLUDED
    out = radius2.lambda_check(14, 421, 7)
    assert out.status is Status.UNDECIDED and out.params["lambda"] == 3


def test_lambda_hypothesis_gates():
    # p = 2 always fails the m2 coefficient bound (2m = 0 mod 2)
    out = radius2.lambda_check(2, 13, 2)
    assert out.status is Status.NOT_APPLICABLE
    assert "coefficient_bound_m2" in out.reason
    # n=15, v=13, p=3: 2n+1 = 31 > 13 = m1 * v
    out = radius2.lambda_check(15, 13, 3)
    assert out.status is Status.NOT_APPLICABLE


def test_lambda_value_needs_a_prime_divisor():
    # 25 divides the order 25 at n = 3, but the unit-group orders and
    # discrete logs behind lambda hold for prime v only; 7 does not divide 25
    with pytest.raises(ValueError):
        radius2.lambda_value(3, 25, 3)
    with pytest.raises(ValueError):
        radius2.lambda_value(3, 7, 3)
    # 13 divides the order 13 at n = -3, and 2 divides 2n
    with pytest.raises(ValueError, match="n >= 2"):
        radius2.lambda_check(-3, 13, 2)
    with pytest.raises(ValueError, match="n >= 2"):
        radius2.field_check(-3, 13, 2)
    # 17 divides the order 85 at n = 6; 6 and 12 divide 2n = 12 but are not
    # prime (lambda would come out as 1, a false exclusion), and 1 is no prime
    for p in (1, 6, 12):
        for fn in (radius2.lambda_value, radius2.lambda_check, radius2.field_check):
            with pytest.raises(ValueError, match=f"^{p} is not a prime divisor of 2n = 12"):
                fn(6, 17, p)


def _generates_full_unit_group(gens, v, vfac):
    """Reference for the two_and_p_generate hypothesis: <gens> = (Z/v)* for
    prime v, by the maximal-subgroup test."""
    return all(any(pow(g, (v - 1) // q, v) != 1 for g in gens) for q in vfac.primes())


@given(n=st.integers(2, 3000))
@example(n=14)  # (v, p) = (421, 7): 2 is primitive mod 421
@example(n=102)  # (v, p) = (21013, 3)
@settings(max_examples=60, deadline=None)
def test_two_and_p_generate_matches_maximal_subgroup_test(n):
    # lambda_value reads the hypothesis off lambda_chain's orders h2 and hp
    for v in nt.factorize(group_order_r2(n)).primes():
        vfac = nt.factorize(v - 1)
        for p in nt.factorize(2 * n).primes():
            cert = radius2.lambda_value(n, v, p)
            expect = _generates_full_unit_group([2, p % v], v, vfac)
            assert cert.hypotheses["two_and_p_generate"] == expect, (n, v, p)


def test_lambda_formula_matches_bruteforce_sample():
    checked = 0
    for v in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        vfac = nt.factorize(v - 1)
        for p in (3, 5, 7, 11, 13):
            if p == v or not _generates_full_unit_group([2, p % v], v, vfac):
                continue
            M = radius2.lambda_chain(v, p, vfac)[-1]
            assert M == radius2.lambda_bruteforce(v, p), (v, p)
            checked += 1
    assert checked >= 20


def _lambda_chain_reference(v, p, vfac):
    """Reference for radius2.lambda_chain: the gcd chain it ran before the
    reduced basis, on p^l - 1 itself (up to megabits near n = 560)."""
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


_ODD_PRIMES = [q for q in range(3, 20_000) if nt.is_prime(q)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_ODD_PRIMES), st.sampled_from([2] + _ODD_PRIMES[:300]))
@example(17, 13)  # <2, 13> has order 8 mod 17: 2 and p do not generate
@example(19_997, 2)
def test_lambda_chain_matches_gcd_chain_reference(v, p):
    assume(p != v)
    vfac = nt.factorize(v - 1)
    assert radius2.lambda_chain(v, p, vfac) == _lambda_chain_reference(v, p, vfac)


def test_lambda_n562_pinned():
    # as the gcd chain (_lambda_chain_reference) computes them on p^l - 1,
    # a 1.3-megabit integer; that takes about 1.6 s, so the values are pinned
    cert = radius2.lambda_value(562, 632813, 281)
    assert (cert.lam, cert.l, cert.h2) == (3164065, 158203, 632812)
    assert cert.hypotheses_ok


def test_selftest_lambda_suite_runs_the_production_lambda(monkeypatch):
    from leeperfect import selftest

    real = radius2.lambda_chain
    monkeypatch.setattr(radius2, "lambda_chain", lambda v, p, vfac: real(v, p, vfac)[:-1] + (0,))
    assert not selftest._lambda_suite(lambda line: None, DEFAULT_CAPS)


def test_selftest_inversion_suite_checks_the_engine_inversion(monkeypatch):
    from leeperfect import selftest

    real = CosineField.coefficients

    def shifted(self, values, total):
        a = real(self, values, total)
        return a[:-1] + [(a[-1] + 1) % self.p]

    monkeypatch.setattr(CosineField, "coefficients", shifted)
    assert not selftest._inversion_suite(lambda line: None, DEFAULT_CAPS)


def test_theta_trivial_values():
    from leeperfect.fields import build_field

    ctx = build_field(3, 16)  # ord_17(3) = 16
    one = ctx.one()
    # power-sum mode at x = y = 1 sums v-1 copies of 1
    assert theta(one, one, 17, 1, "power_sum") == (17 - 1) % 3
    # trace mode sums d traces of 1, each f mod p
    d = 1
    assert theta(one, one, 17, d, "trace") == d * 16 % 3


@pytest.mark.parametrize("n, v, p, f, N, d, mode", [
    (10, 13, 5, 4, 39, 3, "power_sum"), (55, 61, 11, 4, 183, 15, "power_sum"),
    (535, 157, 107, 12, 471, 13, "trace"), (86, 73, 43, 24, 511, 3, "trace"),
])
def test_theta_table_matches_scalar_theta(n, v, p, f, N, d, mode):
    # the same field and order-N element as field_check, every exponent k < N
    cert = radius2.lambda_value(n, v, p)
    assert (cert.f, cert.lam * v // math.gcd(cert.lam, v), cert.d) == (f, N, d)
    assert mode == ("power_sum" if cert.h2 == v - 1 else "trace")
    caps = DEFAULT_CAPS
    ctx = radius2._field_ctx(p, f, caps.seed)
    w = exact_order_element(ctx, N, nt.seeded_rng(caps.seed, "unity-gen", p, f, N))
    residues, in_fp = radius2._theta_tables(ctx, w, N, v, d, mode)
    one = x = ctx.one()
    for k in range(N):  # x = w^k
        expect = theta(x, one, v, d, mode)
        assert bool(in_fp[k]) == (expect is not None), k
        assert expect is None or int(residues[k]) == expect, k
        x = x * w


def _orbit_sum_linear(T, L, p):
    """Reference for radius2._orbit_sum: the linear gather loop the theta
    table ran before binary splitting, L - 1 gathers along k * 2^i mod N."""
    N = T.shape[0]
    acc = T.copy()
    cur = np.arange(N, dtype=np.int64)
    for _ in range(L - 1):
        cur = cur * 2 % N
        acc = (acc + T[cur]) % p
    return acc


@st.composite
def _orbit_tables(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 61, 107]))
    N = draw(st.integers(1, 90))
    shape = draw(st.sampled_from([(N,), (N, 1), (N, 3)]))
    T = draw(arrays(np.int64, shape, elements=st.integers(0, p - 1)))
    L = draw(st.one_of(st.integers(1, 200), st.sampled_from([1, 2, 4, 8, 64, 128])))
    return T, L, p


@settings(max_examples=300, deadline=None)
@given(_orbit_tables())
def test_orbit_sum_matches_linear_reference(case):
    T, L, p = case
    before = T.copy()
    assert np.array_equal(radius2._orbit_sum(T, L, p), _orbit_sum_linear(T, L, p))
    assert np.array_equal(T, before)


def test_field_check_n14_excludes():
    out = radius2.field_check(14, 421, 7)
    assert out.status is Status.EXCLUDED and out.tier is Tier.UNCONDITIONAL
    cands = out.certificate["candidates"]
    assert len(cands) == 3  # lambda = 3 unity candidates
    assert all(c["admissible"] for c in cands)
    assert all(not c["passes"] for c in cands)
    # the exact-count form applies because v equals the whole order
    assert out.certificate["m"] == 1


def test_field_check_open_cases_stay_undecided():
    # dimensions the published table leaves open must not be excluded here
    assert radius2.field_check(55, 61, 11).status is Status.UNDECIDED
    assert radius2.field_check(66, 29, 11).status is Status.UNDECIDED
    # externally-settled n=10 is not excluded by the field conditions either
    assert radius2.field_check(10, 13, 5).status is Status.UNDECIDED


def _cert_sha256(out):
    return hashlib.sha256(json.dumps(out.certificate, sort_keys=True).encode()).hexdigest()


def test_field_check_n305_unity_order_38355():
    # v = 2557, p = 61, f = 71, lambda = N = 38355, v | lambda: the largest
    # theta table of scan 101..500.  The mode, order and passing count are
    # what the linear-sum table gave (57.5 s for this one check), the digest
    # what the loop over the lambda candidates gave (2.5 s); with the column
    # statistics of _field_candidates the check takes about 0.7 s.
    out = radius2.field_check(305, 2557, 61)
    assert out.status is Status.UNDECIDED
    cert = out.certificate
    assert (cert["mode"], cert["f"], cert["unity_order"]) == ("power_sum", 71, 38355)
    assert cert["passing"] == 38355
    assert _cert_sha256(out) == (
        "a5476aab6872b785a53d8f832aa64c0ecfcddc1b163e1579817477453ea0f483")


# sha256 of the sorted certificate JSON, as the loop over the lambda
# candidates computed it
_FIELD_CERT_SHA256 = {
    (14, 421, 7):  # m = 1
        "b0ce40b5687b0db037d0d4e5718e567041cbfe9911616838c321cb8ddf95407e",
    (687, 881, 229):  # trace mode, gcd(lambda, v) = 1
        "bf6a603cc5630906d23df22eb4221f5c7d5fba2f43d2b5839e3dcd7a70c5c321",
    (856, 421, 107):  # v | lambda = 38311
        "7626266c2061921619965db88db69df47e8cdc38ac83220a60771e4b2950c055",
}


@pytest.mark.parametrize("n, v, p", sorted(_FIELD_CERT_SHA256))
def test_field_check_certificate_pinned(n, v, p):
    assert _cert_sha256(radius2.field_check(n, v, p)) == _FIELD_CERT_SHA256[n, v, p]


def _field_candidates_reference(residues, in_fp, n, v, p, lam, m):
    """Reference for radius2._field_candidates: the loop over the lambda
    candidates that field_check ran before the column statistics, with one
    gather and one dict per candidate.  Returns (per_x, some_pass)."""
    N = residues.shape[0]
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
    return per_x, some_pass


def _candidate_table(p, m, n, v, lam, seed, planted, holes):
    """Synthetic (residues, in_fp) for N = lcm(lam, v): random residues,
    passing columns planted at `planted` (m = 1: 2n^2 ones and 2n+1 zeros
    when v has room; m > 1: all zeros), in_fp False at `holes`."""
    N = lam * v // math.gcd(lam, v)
    rng = np.random.default_rng(seed)
    table = rng.integers(0, p, size=(v, N // v))  # column c: the coset of c
    for c in planted:
        col = np.zeros(v, dtype=np.int64)
        if m == 1:
            col[:] = 2 % p
            col[:2 * n * n] = 1
            col[2 * n * n : 2 * n * n + 2 * n + 1] = 0
        table[:, c] = rng.permutation(col)
    in_fp = np.ones(N, dtype=bool)
    in_fp[holes] = False
    return table.reshape(N), in_fp


@st.composite
def _candidate_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 61]))
    m = draw(st.one_of(st.just(1), st.integers(2, 3 * p + 2)))
    n = draw(st.integers(1, 3))
    v = draw(st.sampled_from([2, 3, 5, 7, 13, 25]))  # 5, 13, 25: 2n^2 + 2n + 1
    if draw(st.booleans()):
        lam = v * draw(st.integers(1, 12))
    else:
        lam = draw(st.integers(2, 150).filter(lambda l: math.gcd(l, v) == 1))
    N = lam * v // math.gcd(lam, v)
    planted = draw(st.lists(st.integers(0, N // v - 1), max_size=3))
    holes = draw(st.lists(st.integers(0, N - 1), max_size=3))
    return p, m, n, v, lam, draw(st.integers(0, 2**32 - 1)), planted, holes


@settings(max_examples=300, deadline=None)
@given(_candidate_cases())
@example((7, 1, 1, 5, 3, 0, [0, 2], [4]))  # m = 1, gcd(lambda, v) = 1, lambda <= 64
@example((3, 1, 2, 13, 130, 1, [3], [20]))  # m = 1, v | lambda > 64
@example((5, 12, 2, 13, 91, 2, [1], [7, 50]))  # m >= p, v | lambda > 64
@example((61, 2, 1, 7, 100, 3, [5], [9]))  # 1 < m < p, gcd 1, lambda > 64
def test_field_candidates_match_per_x_reference(case):
    p, m, n, v, lam = case[:5]
    residues, in_fp = _candidate_table(*case)
    before = residues.copy(), in_fp.copy()

    def reference(m):
        per_x, some_pass = _field_candidates_reference(residues, in_fp, n, v, p, lam, m)
        return json.dumps(per_x[:64]), sum(1 for c in per_x if c.get("passes")), some_pass

    def fast(m):
        candidates, passing = radius2._field_candidates(residues, in_fp, n, v, p, lam, m)
        # json.dumps keeps the key order and refuses numpy ints and bools
        return json.dumps(candidates), passing, passing > 0

    assert fast(m) == reference(m)
    if m > 1:  # m is reduced mod p first: a multiplier past int64 gives the same
        assert fast(m % p + p * 2**64) == reference(m % p + p)
    assert np.array_equal(residues, before[0]) and np.array_equal(in_fp, before[1])


def test_field_check_caps():
    caps = dataclasses.replace(Caps(), max_field_degree=10)
    out = radius2.field_check(14, 421, 7, caps)
    assert out.status is Status.SKIPPED
    # N = lcm(lambda, v) bounds both lambda and v, so N alone decides the gate
    out = radius2.field_check(14, 421, 7, Caps(max_unity_enum=1000))
    assert out.status is Status.SKIPPED
    assert out.reason == "unity enumeration 1263 exceeds max_unity_enum 1000"
    with pytest.raises(ValueError):
        radius2.field_check(102, 21013, 3)  # lambda = 1 is degenerate


def test_orbit_not_applicable_on_witness_dimension():
    # n=2: 8n-3 = 13 is 13 * 1^2, so the quadratic preconditions fail and the
    # orbit reproduction never runs where a code actually exists
    out = radius2.orbit_check(2, 13)
    assert out.status is Status.NOT_APPLICABLE
    out = radius2.orbit_check(3, 13)  # 13 does not divide 25
    assert out.status is Status.NOT_APPLICABLE
    out = radius2.orbit_check(6, 17)  # 8n+1 = 49 square
    assert out.status is Status.NOT_APPLICABLE


def test_orbit_17_3_all_classes_excluded():
    def first_qualifying(cls):
        n = 3
        while True:
            if (2 * n * n + 2 * n + 1) % 17 == 0 and n % 3 == cls:
                if nt.is_perfect_square(8 * n + 1) is None:
                    return n
            n += 1

    for cls in range(3):
        n = first_qualifying(cls)
        out = radius2.orbit_check(n, 17)
        assert out.status is Status.EXCLUDED, (cls, n)
        assert not out.certificate["unexplained"]


def test_orbit_13_11_quadratic_survivors_never_unconditional():
    # class 8 mod 11 keeps two quadratic-factor survivors: exclusion must be
    # the cited tier, never unconditional
    out = radius2.orbit_check(140, 13)
    assert out.status is Status.EXCLUDED and out.tier is Tier.CITED
    kinds = {s["class"] for s in out.certificate["survivors"]}
    assert kinds == {"quadratic_factor_1"}


def test_orbit_13_11_empty_classes_unconditional():
    out = radius2.orbit_check(62, 13)  # class 7 mod 11: no survivors at all
    assert out.status is Status.EXCLUDED and out.tier is Tier.UNCONDITIONAL
    assert out.certificate["survivor_count"] == 0


def test_orbit_generic_instances_gated():
    with pytest.raises(ValueError):
        radius2.orbit_check(23, 13, p=7)  # non-default companion needs the flag


def test_orbit_certificate_cannot_change_the_cached_class():
    first = radius2.orbit_check(23, 17)
    snapshot = copy.deepcopy(first.certificate)
    with pytest.raises(TypeError):
        first.certificate["survivors"].append({"tau": "tampered"})
    with pytest.raises(TypeError):
        first.certificate["survivors"][0]["class"] = "tampered"
    first.certificate["survivor_count"] = -1  # the top level is the caller's own
    again = radius2.orbit_check(23, 17).certificate
    assert again == snapshot and type(snapshot["survivors"]) is list


def _orbit_r2_reference(v, p, n_mod_p):
    """All-edges reference: every candidate tau = V(1), the value at the class
    of p^(e+1) the p-th power of the one at p^e (by repeated multiplication),
    kept iff V(2c) = 2n - V(c)^2 and V(pc) = V(c)^p hold at every class c."""
    F = CosineField(p, v)
    tau = F.enumerate(0, F.size)

    def pth_power(A):
        out = A
        for _ in range(p - 1):
            out = F.mul(out, A)
        return out

    values, c, vc = {}, 1, tau
    for _ in range(F.deg):
        values[c] = vc
        c, vc = F.pm_class(p * c), pth_power(vc)
    assert sorted(values) == list(range(1, F.deg + 1))
    two_n = F.scalar_vec(2 * n_mod_p)[None, :]
    ok = np.ones(F.size, dtype=bool)
    for c, vc in values.items():
        ok &= (values[F.pm_class(2 * c)] == (two_n - F.square(vc)) % p).all(axis=1)
        ok &= (values[F.pm_class(p * c)] == pth_power(vc)).all(axis=1)
    return tau[ok].tolist()


@pytest.mark.parametrize("n_mod_p", range(3))
def test_orbit_17_3_survivors_match_all_edges_reference(n_mod_p):
    cls = radius2._orbit_r2_class(17, 3, n_mod_p)
    assert cls["candidates_scanned"] == 3**8 == 6561
    assert [r["tau"] for r in cls["survivors"]] == _orbit_r2_reference(17, 3, n_mod_p)


def test_orbit_13_11_survivor_counts_per_class():
    counts = [radius2._orbit_r2_class(13, 11, c)["survivor_count"] for c in range(11)]
    assert counts == [10, 11, 11, 4, 6, 3, 2, 0, 2, 0, 2]


# sha256 of json.dumps(class dict, sort_keys=True), computed before the two
# orbit criteria shared their survey and verdict code in orbitfield
_ORBIT_R2_CLASS_SHA256 = {
    (17, 3, 0): "61da2e6b35ef951af97cce3a388163f775b7d933cd3067d30c241e25cba493ba",
    (17, 3, 1): "0d305d498a3010eab6b26e2b2f048c51fad9027a848f76702442a93988c48a4d",
    (17, 3, 2): "c6fdd050b097eabad874296daced6b1180affd036a8bc2bca6eef40fa7a395e9",
    (13, 11, 0): "a36b7857c052b30a07407302720b584e0c2ce82af3167253fa6fbb094efc7f00",
    (13, 11, 1): "8bde8e2694e67bf6528ec882ac80d411feac5f534e4b36787f9623b43bd2a582",
    (13, 11, 2): "fd1bb5d1adb27084a1ba8ff6d2403bacc7e2bc5617832498a6256ec331efd795",
    (13, 11, 3): "f3fb7f79a7daf245d42aa2e27c354c0b1a060d9f99ac41e37b8e602fa0c45b37",
    (13, 11, 4): "c05f228264263ece0995566cb99bbf125c6423281ce992c7ad535419f2e66d84",
    (13, 11, 5): "265d5f3623ae5ba83d508dcf2aacb948c3bbd24c182b43f5f89388b44118e266",
    (13, 11, 6): "c5a7803668502494d0dc8b2a22f88d34e023fc0610ad52e8fed76625c25d079d",
    (13, 11, 7): "b1fe6e49bc63e19c3e3de5d3f1fde67bbb9e0d928126282d08c5ddfcb2eea4c5",
    (13, 11, 8): "d219a8514586ec663dfda34c14f5cd12f907e9793ede80274a25e748a5cd9753",
    (13, 11, 9): "0a466579b833b1e7a6e35f479c0c40995fbd6f1e401b7318c20f2261aad87c3c",
    (13, 11, 10): "7a1f6592dbcdb9c92af5d5f7e1fefed99e8a25e4b356c03939a2df9d02c15ed7",
}


@pytest.mark.parametrize("v, p, n_mod_p", sorted(_ORBIT_R2_CLASS_SHA256))
def test_orbit_r2_class_dict_pinned(v, p, n_mod_p):
    cls = radius2._orbit_r2_class(v, p, n_mod_p)
    digest = hashlib.sha256(json.dumps(cls, sort_keys=True).encode()).hexdigest()
    assert digest == _ORBIT_R2_CLASS_SHA256[v, p, n_mod_p]


def _r2_residual(F, n_mod_p):
    """The class residual Frob^e2(tau) - (2n - tau^2) of _orbit_r2_class."""
    two_n, e2 = 2 * n_mod_p % F.p, F.frob_exponent[F.pm_class(2)]

    def residual(tau):
        g = -F.square(tau) % F.p
        g[:, 0] = (g[:, 0] + two_n) % F.p
        return (F.frob(tau, e2) - g) % F.p

    return residual


def _order_of_2(F):
    return F.deg // math.gcd(F.frob_exponent[F.pm_class(2)], F.deg)


@pytest.mark.slow
@pytest.mark.parametrize("v, p, n_mod_p", sorted(_ORBIT_R2_CLASS_SHA256))
def test_orbit_r2_root_finder_matches_the_scan(v, p, n_mod_p):
    # the chunked scan of all p^((v-1)/2) candidates is the root-finder's oracle
    F = CosineField(p, v)
    assert radius2._roots_cheaper(F, _order_of_2(F))
    scan = F.roots(_r2_residual(F, n_mod_p))
    cls = radius2._orbit_r2_class(v, p, n_mod_p)
    assert [r["tau"] for r in cls["survivors"]] == scan.tolist()


@pytest.mark.parametrize("v, p, roots_cheaper", [(5, 7, True), (5, 3, False)])
def test_orbit_r2_candidate_sources_agree_on_generic_instances(v, p, roots_cheaper, monkeypatch):
    # k = 2 at v = 5: (2^k)^2 = 16 against 7^2 = 49 candidates (root-finding)
    # and against 3^2 = 9 (scan); the other source must give the same verdicts
    F = CosineField(p, v)
    assert radius2._roots_cheaper(F, _order_of_2(F)) is roots_cheaper
    dims = [n for n in range(2, 60) if group_order_r2(n) % v == 0]  # orbit_check needs n >= 2

    def verdicts():
        outs = [radius2.orbit_check(n, v, p=p, allow_generic=True) for n in dims]
        return [(o.status, o.tier, o.reason, o.certificate) for o in outs]

    chosen = verdicts()
    assert {n % p for n, o in zip(dims, chosen) if o[0] is not Status.NOT_APPLICABLE} == set(range(p))
    cheaper = radius2._roots_cheaper
    monkeypatch.setattr(radius2, "_roots_cheaper", lambda F, k: not cheaper(F, k))
    radius2._orbit_r2_class.cache_clear()
    try:
        assert verdicts() == chosen
    finally:
        radius2._orbit_r2_class.cache_clear()


def test_orbit_tests_divisibility_before_primality():
    out = radius2.orbit_check(5, 9, p=2, allow_generic=True)
    assert out.status is Status.NOT_APPLICABLE
    assert out.reason == "9 does not divide the order"


def test_orbit_budget_skip():
    out = radius2.orbit_check(49, 13, Caps(search_node_budget=100))
    assert out.status is Status.SKIPPED and out.tier is None
    assert out.reason == "candidate space 11^6 exceeds the search budget"
    assert out.params == {"n": 49, "v": 13, "p": 11} and out.certificate == {}
