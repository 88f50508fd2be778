import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leeperfect import nt, radius2
from leeperfect.fields import (
    FieldCtx,
    PolyModRing,
    _has_root,
    build_field,
    exact_order_element,
    frobenius,
    poly_divmod,
    poly_gcd,
    prime_field,
)
from leeperfect.orbitfield import CosineField
from leeperfect.outcomes import Caps, Status
from theta_reference import in_prime_subfield, trace_to_prime


def test_build_field_sizes():
    assert build_field(5, 3).size == 125
    assert build_field(11, 6).size == 1771561
    ctx = build_field(7, 1)
    assert ctx.size == 7 and ctx.deg == 1


def test_build_field_deterministic():
    a = build_field(5, 3, seed=4)
    b = build_field(5, 3, seed=4)
    assert a.modulus == b.modulus
    c = build_field(5, 3, seed=5)
    # different seed may coincide by luck, but the search must be seed-driven;
    # compare the full deterministic construction instead
    assert c.modulus == build_field(5, 3, seed=5).modulus


def test_degree_cap(monkeypatch):
    # the degree cap is Caps.max_field_degree, which field_check applies
    # before it asks for a field; build_field has none of its own
    def no_field(*args):
        raise AssertionError("a field was asked for past the degree cap")

    monkeypatch.setattr(radius2, "_field_ctx", no_field)
    out = radius2.field_check(14, 421, 7, Caps(max_field_degree=69))  # f = 70
    assert out.status is Status.SKIPPED
    assert out.reason == "extension degree 70 exceeds max_field_degree 69"


def _unfiltered_modulus(p, f, seed):
    """build_field's search as it is without the root scan: every candidate
    with a nonzero constant term goes to Rabin's test."""
    rng = nt.seeded_rng(seed, "field-modulus", p, f)
    while True:
        coeffs = [rng.randrange(p) for _ in range(f)] + [1]
        if coeffs[0] == 0:
            continue
        try:
            return FieldCtx(p, coeffs).modulus
        except ValueError:
            continue


# fields of the field check (seed 2024 is the default Caps.seed), tiny ones,
# and (3001, 40), a prime well above the degree
@pytest.mark.parametrize("p, f, seed", [
    (7, 70, 2024), (229, 80, 2024), (631, 67, 2024), (61, 71, 2024),
    (2, 5, 0), (2, 5, 3), (5, 3, 4), (3001, 40, 1),
])
def test_build_field_root_scan_keeps_the_modulus(p, f, seed):
    assert build_field(p, f, seed=seed).modulus == _unfiltered_modulus(p, f, seed)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
def test_root_scan_rejects_only_reducible_moduli(p, data):
    f = data.draw(st.integers(2, 8))
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)) + [1]
    has_root = any(sum(c * x**i for i, c in enumerate(coeffs)) % p == 0 for x in range(p))
    assert _has_root(coeffs, p) == has_root
    if has_root:
        with pytest.raises(ValueError):
            FieldCtx(p, coeffs)


@pytest.fixture(scope="module")
def f125():
    return build_field(5, 3, seed=1)


def test_field_axioms_random(f125):
    rng = nt.seeded_rng(9, "axioms")
    for _ in range(50):
        a, b, c = (f125.random_element(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_inverse_and_lagrange(f125):
    rng = nt.seeded_rng(10, "inv")
    one = f125.one()
    for _ in range(100):
        x = f125.random_element(rng)
        if not x:
            continue
        assert x * x.inv() == one
        assert x ** (f125.size - 1) == one
    with pytest.raises(ZeroDivisionError):
        f125.zero().inv()


def test_pow_matches_frobenius(f125):
    rng = nt.seeded_rng(11, "frobpow")
    for _ in range(30):
        e = f125.random_element(rng)
        assert e**5 == frobenius(e, 1)


def test_frobenius_orbit_and_additivity(f125):
    rng = nt.seeded_rng(12, "frob")
    for _ in range(30):
        e = f125.random_element(rng)
        f = f125.random_element(rng)
        assert frobenius(e, f125.deg) == e
        assert frobenius(e, 0) == e
        assert frobenius(e + f, 1) == frobenius(e, 1) + frobenius(f, 1)


@pytest.mark.parametrize("modulus", [(0, 0, 1), (-1, 0, 0, 1)], ids=["x^2", "x^3-1"])
def test_frob_is_the_p_power_on_rings_that_are_not_fields(modulus):
    # z^(p^deg) = z only when the modulus is irreducible: over F_3, x^9 is 0
    # mod x^2 and x^27 is 1 mod x^3 - 1, so frob must not reduce e mod deg
    ring = PolyModRing(3, modulus)
    elements = np.array(list(itertools.product(range(3), repeat=ring.deg)), dtype=np.int64)
    for e in range(2 * ring.deg + 1):
        want = np.array([ring.pow(a, 3**e) for a in elements])
        assert np.array_equal(ring.frob(elements, e), want), e


def test_trace_values_and_linearity(f125):
    assert trace_to_prime(f125.one()) == f125.deg % 5
    assert trace_to_prime(f125.zero()) == 0
    rng = nt.seeded_rng(13, "trace")
    for _ in range(30):
        e = f125.random_element(rng)
        f = f125.random_element(rng)
        assert trace_to_prime(e + f) == (trace_to_prime(e) + trace_to_prime(f)) % 5
        c = rng.randrange(5)
        assert trace_to_prime(f125.scalar(c) * e) == c * trace_to_prime(e) % 5


def test_in_prime_subfield(f125):
    assert in_prime_subfield(f125.scalar(4)) == 4
    assert in_prime_subfield(f125.gen()) is None
    rng = nt.seeded_rng(14, "subfield")
    for _ in range(40):
        e = f125.random_element(rng)
        fixed = frobenius(e, 1) == e
        assert (in_prime_subfield(e) is not None) == fixed


def test_roots_of_unity_f27():
    # the powers of one order-13 element are all 13 roots of unity (13 | 3^3 - 1)
    ctx = build_field(3, 3)
    z = exact_order_element(ctx, 13, nt.seeded_rng(0, "unity", 3, 3, 13))
    roots = [z**k for k in range(13)]
    assert len(set(roots)) == 13
    one = ctx.one()
    for r in roots:
        assert r**13 == one
    # closed under products
    rng = nt.seeded_rng(15, "unitygrp")
    for _ in range(20):
        a, b = rng.choice(roots), rng.choice(roots)
        assert a * b in set(roots)


def test_lambda_roots_in_fixed_subfield_f7_35():
    # unity subgroup of size 3 inside F_{7^35}; each member fixed by Frobenius^35
    ctx = build_field(7, 35)
    z = exact_order_element(ctx, 3, nt.seeded_rng(0, "unity", 7, 35, 3))
    assert z != ctx.one() and z**3 == ctx.one()
    roots = [ctx.one(), z, z * z]
    assert len(set(roots)) == 3
    for r in roots:
        assert frobenius(r, 35) == r


def test_cross_context_is_error():
    # contexts are compared by identity: equal moduli still refuse to mix
    a = build_field(5, 3, seed=1)
    b = build_field(5, 3, seed=1)
    with pytest.raises(ValueError):
        _ = a.one() + b.one()
    with pytest.raises(ValueError):
        _ = a.one() * b.gen()


# -- the shared F_p[x]/(m) kernel ------------------------------------------------

# degree 1 twice (f = 1, and v = 3 where y = -1), two extension fields, and
# the cosine fields of the (13, 11), (17, 3) and (7, 5) orbit searches
_RINGS = [build_field(7, 1), CosineField(5, 3), build_field(5, 3, seed=1),
          build_field(3, 8, seed=2)] + [CosineField(p, v) for v, p in ((13, 11), (17, 3), (7, 5))]


def _as_field(ring) -> FieldCtx:
    """FieldElements over the same modulus (Psi_v stays irreducible mod p)."""
    return ring if isinstance(ring, FieldCtx) else FieldCtx(ring.p, ring.modulus)


_FIELDS = [_as_field(ring) for ring in _RINGS]


def _schoolbook(a, b, modulus, p):
    """Product mod (modulus, p) by plain convolution and long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    d = len(modulus) - 1
    for top in range(len(prod) - 1, d - 1, -1):
        lead = prod[top]
        for k in range(d + 1):
            prod[top - d + k] -= lead * modulus[k]
    return [c % p for c in prod[:d]]


@st.composite
def _operands(draw):
    i = draw(st.integers(0, len(_RINGS) - 1))
    ring = _RINGS[i]
    rows = draw(st.integers(2, 5))
    elt = st.lists(st.integers(0, ring.p - 1), min_size=ring.deg, max_size=ring.deg)
    A, B = (np.array(draw(st.lists(elt, min_size=rows, max_size=rows)), dtype=np.int64)
            for _ in range(2))
    return ring, _FIELDS[i], A, B


@settings(max_examples=80, deadline=None)
@given(_operands())
def test_kernel_batched_mul_matches_single_row_and_field_elements(ops):
    ring, F, A, B = ops
    batched = ring.mul(A, B)
    for a, b, c in zip(A, B, batched):
        assert np.array_equal(ring.mul(a[None, :], b[None, :])[0], c)
        assert (F.element(a) * F.element(b)).coeffs == tuple(c.tolist())
        assert _schoolbook(a.tolist(), b.tolist(), ring.modulus, ring.p) == c.tolist()
    # a one-row operand broadcasts against the batch
    assert np.array_equal(ring.mul(A[:1], B), ring.mul(np.repeat(A[:1], len(B), axis=0), B))


@settings(max_examples=40, deadline=None)
@given(_operands(), st.integers(0, 9))
def test_kernel_frobenius_is_the_p_power(ops, e):
    ring, F, A, _ = ops
    for a, fa in zip(A, ring.frob(A, e)):
        assert (F.element(a) ** ring.p**e).coeffs == tuple(fa.tolist())
        assert np.array_equal(ring.pow(a, ring.p**e), fa)


@pytest.mark.parametrize("i", range(len(_RINGS)))
def test_kernel_trace_is_the_frobenius_sum(i):
    ring = _RINGS[i]
    total = sum(ring.frob_matrix(k) for k in range(ring.deg)) % ring.p
    assert np.array_equal(ring.trace_matrix(), total)
    assert np.array_equal(ring.frob_matrix(ring.deg), np.eye(ring.deg, dtype=np.int64))


def _int64_edge_primes(d):
    """The largest prime p with d(p - 1)^2 + (d - 1)^2 (p - 1)^3 < 2^63, and the next prime.

    That sum is the largest an unreduced shift-add product with the reduction
    rows can reach in int64.
    """
    def fits(p):
        return d * (p - 1) ** 2 + (d - 1) ** 2 * (p - 1) ** 3 < 2**63

    lo, hi = 2, 2**32  # fits(lo), not fits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    under = next(q for q in range(lo, 0, -1) if nt.is_prime(q))
    over = next(q for q in range(lo + 1, 2 * lo) if nt.is_prime(q))
    return under, over


@pytest.mark.parametrize("d", [1, 2, 40])
def test_kernel_int64_bound(d):
    under, over = _int64_edge_primes(d)
    with pytest.raises(ValueError):
        PolyModRing(over, [1] * (d + 1))
    with pytest.raises(nt.BudgetExceeded):
        build_field(over, d)  # a skip, not an endless modulus search
    rng = np.random.default_rng(d)
    modulus = [int(c) for c in rng.integers(0, under, d)] + [1]
    ring = PolyModRing(under, modulus)
    A = np.vstack([np.full(d, under - 1), rng.integers(0, under, (3, d))]).astype(np.int64)
    B = np.vstack([np.full(d, under - 1), rng.integers(0, under, (3, d))]).astype(np.int64)
    for a, b, c in zip(A, B, ring.mul(A, B)):
        assert _schoolbook(a.tolist(), b.tolist(), ring.modulus, under) == c.tolist()
        assert np.array_equal(ring.mul(a[None, :], b[None, :])[0], c)


def test_kernel_refuses_the_ring_that_wrapped():
    # at p = 1000003, deg 40, the int64 product once differed silently from a
    # schoolbook product mod p
    with pytest.raises(ValueError):
        PolyModRing(1_000_003, [3] * 40 + [1])


# -- polynomials over F_p: the helpers against schoolbook lists ------------------


def _sb_trim(a):
    a = [c for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _sb_divmod(a, b, p):
    """Long division on coefficient lists, constant term first."""
    r, b = _sb_trim([c % p for c in a]), _sb_trim([c % p for c in b])
    q = [0] * max(len(r) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        c, shift = r[-1] * inv % p, len(r) - len(b)
        q[shift] = c
        for k, bk in enumerate(b):
            r[shift + k] = (r[shift + k] - c * bk) % p
        r = _sb_trim(r)
    return q, r


def _sb_gcd(a, b, p):
    a, b = _sb_trim([c % p for c in a]), _sb_trim([c % p for c in b])
    while b:
        a, b = b, _sb_divmod(a, b, p)[1]
    return [c * pow(a[-1], -1, p) % p for c in a] if a else []


def _column(a):
    return np.array(a, dtype=np.int64).reshape(-1, 1)


_poly = st.lists(st.integers(0, 200), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 101]), _poly, _poly, _poly)
def test_fp_poly_helpers_match_schoolbook(p, a, b, c):
    fp = prime_field(p)
    # shared factors make the gcd nontrivial
    a, b = (_sb_trim(np.convolve(c, x).tolist()) if c and x else x for x in (a, b))
    if _sb_trim([x % p for x in b]):
        q, r = poly_divmod(fp, _column(a), _column(b))
        assert (q[:, 0].tolist(), r[:, 0].tolist()) == _sb_divmod(a, b, p)
    assert poly_gcd(fp, _column(a), _column(b))[:, 0].tolist() == _sb_gcd(a, b, p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(0, 6), min_size=1, max_size=6),
       st.integers(0, 2))
def test_x_to_the_p_power_mod_m_matches_schoolbook(p, low, j):
    # x^(p^j) mod m, the step the orbit root-finder and Rabin's test share
    m = [c % p for c in low] + [1]
    ring = PolyModRing(p, m)
    want = [1] + [0] * (len(m) - 2)
    for _ in range(p**j):
        want = _schoolbook(want, [0, 1], m, p)
    assert ring.pow(ring.x_vec(), p**j).tolist() == want


def test_poly_roots_are_the_subfield_whatever_the_seed():
    # x^(3^2) - x splits into the 9 elements of F_9, the Frobenius^2 fixed
    # points of F_{3^8}; x^11 - x into the prime field F_11 inside F_{11^6}
    for (v, p), d in (((17, 3), 2), ((13, 11), 1)):
        F = CosineField(p, v)
        f = [0, -1 % p] + [0] * (p**d - 2) + [1]
        every = F.enumerate(0, F.size) if F.size < 10**4 else None
        for seed in (0, 1):
            rows = F.poly_roots(f, seed)
            if every is not None:
                want = every[(F.frob(every, d) == every).all(axis=1)]
            else:
                want = np.array([F.scalar_vec(a) for a in range(p)])
            assert np.array_equal(rows, want)
    F = CosineField(11, 13)
    assert F.poly_roots([1]).shape == (0, 6)
    assert F.poly_roots([4, 1]).tolist() == [[7, 0, 0, 0, 0, 0]]
