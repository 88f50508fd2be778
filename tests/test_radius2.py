import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from leeperfect import nt, radius2
from leeperfect.fields import exact_order_element
from leeperfect.orbitfield import CosineField
from leeperfect.outcomes import Caps, DEFAULT_CAPS, Status, Tier


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


def test_lambda_formula_matches_bruteforce_sample():
    checked = 0
    for v in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        vfac = nt.factorize(v - 1)
        for p in (3, 5, 7, 11, 13):
            if p == v or not radius2._generates_full_unit_group([2, p % v], v, vfac):
                continue
            M = radius2.lambda_chain(v, p, vfac)[-1]
            assert M == radius2.lambda_bruteforce(v, p), (v, p)
            checked += 1
    assert checked >= 20


def test_theta_trivial_values():
    from leeperfect.fields import build_field

    ctx = build_field(3, 16)  # ord_17(3) = 16
    one = ctx.one()
    # power-sum mode at x = y = 1 sums v-1 copies of 1
    assert radius2.theta(one, one, 17, 1, "power_sum") == (17 - 1) % 3
    # trace mode sums d traces of 1, each f mod p
    d = 1
    assert radius2.theta(one, one, 17, d, "trace") == d * 16 % 3


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
    ctx = radius2._field_ctx(p, f, caps.seed, caps.max_field_degree)
    w = exact_order_element(ctx, N, nt.seeded_rng(caps.seed, "unity-gen", p, f, N))
    residues, in_fp = radius2._theta_tables(ctx, w, N, v, d, mode)
    one = x = ctx.one()
    for k in range(N):  # x = w^k
        expect = radius2.theta(x, one, v, d, mode)
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


def test_field_check_n305_unity_order_38355():
    # v = 2557, p = 61, f = 71, lambda = N = 38355: the largest theta table of
    # scan 101..500.  The pinned values are what the linear-sum table gave
    # (about 60 s for this one check); binary splitting takes a few seconds.
    out = radius2.field_check(305, 2557, 61)
    assert out.status is Status.UNDECIDED
    cert = out.certificate
    assert (cert["mode"], cert["f"], cert["unity_order"]) == ("power_sum", 71, 38355)
    assert cert["passing"] == 38355


def test_field_check_caps():
    caps = dataclasses.replace(Caps(), max_field_degree=10)
    out = radius2.field_check(14, 421, 7, caps)
    assert out.status is Status.SKIPPED
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
