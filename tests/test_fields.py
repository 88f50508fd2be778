import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leeperfect import nt
from leeperfect.fields import (
    FieldCtx,
    _has_root,
    build_field,
    frobenius,
    in_prime_subfield,
    roots_of_unity,
    trace_to_prime,
)
from leeperfect.nt import BudgetExceeded
from leeperfect.orbitfield import CosineField


def test_build_field_sizes():
    assert build_field(5, 3).order == 125
    assert build_field(11, 6).order == 1771561
    ctx = build_field(7, 1)
    assert ctx.order == 7 and ctx.f == 1


def test_build_field_deterministic():
    a = build_field(5, 3, seed=4)
    b = build_field(5, 3, seed=4)
    assert a.modulus == b.modulus
    c = build_field(5, 3, seed=5)
    # different seed may coincide by luck, but the search must be seed-driven;
    # compare the full deterministic construction instead
    assert c.modulus == build_field(5, 3, seed=5).modulus


def test_degree_cap():
    with pytest.raises(BudgetExceeded):
        build_field(3, 90, max_degree=80)


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
        assert x ** (f125.order - 1) == one
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
        assert frobenius(e, f125.f) == e
        assert frobenius(e, 0) == e
        assert frobenius(e + f, 1) == frobenius(e, 1) + frobenius(f, 1)


def test_trace_values_and_linearity(f125):
    assert trace_to_prime(f125.one()) == f125.f % 5
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


def test_roots_of_unity_trivial(f125):
    assert roots_of_unity(f125, 1) == [f125.one()]


def test_roots_of_unity_f27():
    ctx = build_field(3, 3)
    roots = roots_of_unity(ctx, 13)  # 13 | 3^3 - 1 = 26
    assert len(set(roots)) == 13
    one = ctx.one()
    for z in roots:
        assert z**13 == one
    # closed under products
    rng = nt.seeded_rng(15, "unitygrp")
    rs = list(roots)
    for _ in range(20):
        a, b = rng.choice(rs), rng.choice(rs)
        assert a * b in set(rs)


def test_lambda_roots_in_fixed_subfield_f7_35():
    # unity subgroup of size 3 inside F_{7^35}; each member fixed by Frobenius^35
    ctx = build_field(7, 35)
    roots = roots_of_unity(ctx, 3)
    assert len(set(roots)) == 3
    for z in roots:
        assert z**3 == ctx.one()
        assert frobenius(z, 35) == z


def test_unity_cap():
    ctx = build_field(3, 3)
    with pytest.raises(BudgetExceeded):
        roots_of_unity(ctx, 13, cap=12)


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
