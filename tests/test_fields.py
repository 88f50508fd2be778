import functools
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leeperfect import nt, radius2, survey
from leeperfect.fields import (
    FieldCtx,
    PolyModRing,
    _ONE_THREAD,
    _RABIN_BUDGET,
    _frob_matrices,
    _matmul,
    _rabin,
    _reduction_rows,
    _root_free,
    build_field,
    exact_order_element,
    poly_divmod,
    poly_gcd,
    prime_field,
)
from leeperfect.orbitfield import CosineField
from leeperfect.outcomes import Caps, Status
from theta_reference import (
    element,
    frobenius,
    gen,
    in_prime_subfield,
    one,
    random_element,
    scalar,
    trace_to_prime,
)


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


def _irreducible_count(p, f):
    """Gauss: (1/f) sum over d | f of mu(d) p^(f/d) monic irreducibles of degree f."""
    total = 0
    for d in (d for d in range(1, f + 1) if f % d == 0):
        exps = nt.factorize(d).as_dict().values()
        if all(e == 1 for e in exps):
            total += (-1) ** len(exps) * p ** (f // d)
    return total // f


@pytest.mark.parametrize("p, f", [(2, f) for f in range(1, 9)] + [(3, f) for f in range(1, 6)]
                         + [(5, f) for f in range(1, 4)])
def test_rabin_accepts_gauss_count(p, f):
    accepted = 0
    for low in itertools.product(range(p), repeat=f):
        try:
            FieldCtx(p, list(low) + [1])
        except ValueError:
            continue
        accepted += 1
    assert accepted == _irreducible_count(p, f)


def _has_monic_factor(p, coeffs):
    """Whether some monic polynomial of degree 1..d/2 divides the monic coeffs
    (constant term first), by division; the irreducible ones suffice."""
    d = len(coeffs) - 1
    return any(not _sb_divmod(coeffs, g, p)[1] for k in range(1, d // 2 + 1) for g in _irreducibles(p, k))


@functools.lru_cache(maxsize=None)
def _irreducibles(p, d):
    """Every monic irreducible of degree d (enumeration, for small p^d)."""
    return [[*low, 1] for low in itertools.product(range(p), repeat=d)
            if not _has_monic_factor(p, [*low, 1])]


def _next_irreducible(p, low):
    """The first monic irreducible from low on, counting low in base p."""
    code = sum(c * p**i for i, c in enumerate(low))
    while True:
        coeffs = [code // p**i % p for i in range(len(low))] + [1]
        if not _has_monic_factor(p, coeffs):
            return coeffs
        code = (code + 1) % p ** len(low)


def _x_to_the_p_to_the_degree_is_x(p, coeffs):
    ring = PolyModRing(p, coeffs)
    # square-and-multiply: pow may step by frob, whose matrix is the code under test
    return np.array_equal(ring._square_multiply(ring.x_vec(), p ** ring.deg), ring.x_vec())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.data())
def test_rabin_matches_a_brute_force_factor_search(p, d, data):
    row = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    rows = data.draw(st.lists(row, max_size=6))
    planted = [_next_irreducible(p, data.draw(row))]
    if d % 2 == 0:
        # g h passes x^(p^d) = x and fails only the gcd; g^2 fails x^(p^d) = x
        g, *others = data.draw(st.permutations(_irreducibles(p, d // 2)))
        square = (np.convolve(g, g) % p).tolist()
        assert not _x_to_the_p_to_the_degree_is_x(p, square)
        planted.append(square)
        if others:  # over F_2 there is one irreducible quadratic
            product = (np.convolve(g, others[0]) % p).tolist()
            assert _x_to_the_p_to_the_degree_is_x(p, product)
            planted.append(product)
    if d == 6 and p >= 3:
        # three distinct irreducible quadratics: x^(p^6) = x holds, and of the
        # gcds only the one with x^(p^2) - x (q = 3) is not 1, so the product
        # of the x^(p^(d/q)) - x must keep that factor
        g, h, k = data.draw(st.permutations(_irreducibles(p, 2)))[:3]
        product = (np.convolve(np.convolve(g, h), k) % p).tolist()
        assert _x_to_the_p_to_the_degree_is_x(p, product)
        planted.append(product)
    for m in planted:  # at drawn positions of the batch
        rows.insert(data.draw(st.integers(0, len(rows))), m[:-1])
    low = np.array(rows, dtype=np.int64).reshape(-1, d)
    mask = _rabin(low, p)
    assert mask.dtype == bool
    assert mask.tolist() == [not _has_monic_factor(p, [*m, 1]) for m in rows]
    # gcd=False: the first condition alone, x^(p^d) = x
    assert _rabin(low, p, gcd=False).tolist() == [_x_to_the_p_to_the_degree_is_x(p, [*m, 1]) for m in rows]


def test_build_field_bounds_the_rabin_working_set():
    # _rabin keeps about 24 f^2 bytes per row; at degree 200 build_field
    # passes it at most _RABIN_BUDGET // f^2 = 3 rows, not a batch's 7
    # root-free candidates at once (6.8 MB traced)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert build_field(3, 200).deg == 200
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 32 * _RABIN_BUDGET, peak


@pytest.fixture(scope="module")
def field_check_rings():
    """Every (p, f) that field_check builds in the radius-2 scan of n = 3..1000,
    from the scan with the field construction recorded and skipped."""
    built = set()

    def record(p, f, seed):
        built.add((p, f))
        raise nt.BudgetExceeded("recorded")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radius2, "_field_ctx", record)
        survey.scan(2, 3, 1000, early_exit=False, criteria=("field",))
    return sorted(built)


_MODULI_SHA256 = {
    2024: "e2b46bd2d08a39a3a2fd333b7696d9bfa295577e460e2b1b27bcfb139ad5c4f2",
    7: "891e4ed080803dd9e897bf7ea99b1e668e0fb9e1ffd1c0062ec710066a8ac83d",
}


@pytest.mark.parametrize("seed", sorted(_MODULI_SHA256))
def test_field_check_moduli_pinned(field_check_rings, seed):
    # the seeded search keeps the first candidate that Rabin's test accepts;
    # the test is an exact predicate, so any faster form of it must keep
    # every modulus, at the default Caps.seed and at another seed
    assert len(field_check_rings) == 135
    moduli = [[p, f, list(build_field(p, f, seed).modulus)] for p, f in field_check_rings]
    assert hashlib.sha256(json.dumps(moduli).encode()).hexdigest() == _MODULI_SHA256[seed]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
def test_root_scan_rejects_only_reducible_moduli(p, data):
    # one batch of monic candidates, each row checked against brute force
    f = data.draw(st.integers(2, 8))
    low = st.lists(st.integers(0, p - 1), min_size=f, max_size=f)
    batch = data.draw(st.lists(low, min_size=1, max_size=6))
    free = _root_free(np.array(batch), p).tolist()
    for coeffs, root_free in zip((row + [1] for row in batch), free):
        has_root = any(sum(c * x**i for i, c in enumerate(coeffs)) % p == 0 for x in range(p))
        assert root_free == (not has_root)
        if has_root:
            with pytest.raises(ValueError):
                FieldCtx(p, coeffs)


def _horner_root_free(low, p):
    """The root scan's slow reference: Horner's rule over the (rows, p) grid."""
    x = np.arange(p, dtype=np.int64)
    val = np.ones((low.shape[0], p), dtype=np.int64)
    for c in low.T[::-1]:
        val = (val * x + c[:, None]) % p
    return val.all(axis=1)


_SMALL_PRIMES = [q for q in range(2, 400) if nt.is_prime(q)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SMALL_PRIMES + [65537]), st.integers(1, 8), st.data())
def test_root_scan_matches_horner(p, f, data):
    # 65537 spans two or more blocks of points at every f (one point in the
    # last block at f = 1); a planted root may sit in any block
    low = st.lists(st.integers(0, p - 1), min_size=f, max_size=f)
    batch = data.draw(st.lists(low, min_size=1, max_size=6))
    if data.draw(st.booleans()):  # (x - r) times a monic cofactor of degree f - 1
        r, cofactor = data.draw(st.integers(0, p - 1)), data.draw(st.lists(
            st.integers(0, p - 1), min_size=f - 1, max_size=f - 1)) + [1]
        batch.append((np.convolve(cofactor, [-r, 1])[:f] % p).tolist())
    rows = np.array(batch, dtype=np.int64)
    assert _root_free(rows, p).tolist() == _horner_root_free(rows, p).tolist()


@pytest.fixture(scope="module")
def f125():
    return build_field(5, 3, seed=1)


def test_field_axioms_random(f125):
    rng = nt.seeded_rng(9, "axioms")
    for _ in range(50):
        a, b, c = (random_element(f125, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_inverse_and_lagrange(f125):
    rng = nt.seeded_rng(10, "inv")
    unit = one(f125)
    for _ in range(100):
        x = random_element(f125, rng)
        if not x:
            continue
        assert x * x.inv() == unit
        assert x ** (f125.size - 1) == unit
    with pytest.raises(ZeroDivisionError):
        scalar(f125, 0).inv()


def test_pow_matches_frobenius(f125):
    rng = nt.seeded_rng(11, "frobpow")
    for _ in range(30):
        e = random_element(f125, rng)
        assert e**5 == frobenius(e, 1)


def test_frobenius_orbit_and_additivity(f125):
    rng = nt.seeded_rng(12, "frob")
    for _ in range(30):
        e = random_element(f125, rng)
        f = random_element(f125, rng)
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
        want = np.array([ring._square_multiply(a, 3**e) for a in elements])
        assert np.array_equal(ring.frob(elements, e), want), e


def test_trace_values_and_linearity(f125):
    assert trace_to_prime(one(f125)) == f125.deg % 5
    assert trace_to_prime(scalar(f125, 0)) == 0
    rng = nt.seeded_rng(13, "trace")
    for _ in range(30):
        e = random_element(f125, rng)
        f = random_element(f125, rng)
        assert trace_to_prime(e + f) == (trace_to_prime(e) + trace_to_prime(f)) % 5
        c = rng.randrange(5)
        assert trace_to_prime(scalar(f125, c) * e) == c * trace_to_prime(e) % 5


def test_in_prime_subfield(f125):
    assert in_prime_subfield(scalar(f125, 4)) == 4
    assert in_prime_subfield(gen(f125)) is None
    rng = nt.seeded_rng(14, "subfield")
    for _ in range(40):
        e = random_element(f125, rng)
        fixed = frobenius(e, 1) == e
        assert (in_prime_subfield(e) is not None) == fixed


def test_roots_of_unity_f27():
    # the powers of one order-13 element are all 13 roots of unity (13 | 3^3 - 1)
    ctx = build_field(3, 3)
    z = element(ctx, exact_order_element(ctx, 13, nt.seeded_rng(0, "unity", 3, 3, 13)))
    roots = [z**k for k in range(13)]
    assert len(set(roots)) == 13
    for r in roots:
        assert r**13 == one(ctx)
    # closed under products
    rng = nt.seeded_rng(15, "unitygrp")
    for _ in range(20):
        a, b = rng.choice(roots), rng.choice(roots)
        assert a * b in set(roots)


def test_lambda_roots_in_fixed_subfield_f7_35():
    # unity subgroup of size 3 inside F_{7^35}; each member fixed by Frobenius^35
    ctx = build_field(7, 35)
    z = element(ctx, exact_order_element(ctx, 3, nt.seeded_rng(0, "unity", 7, 35, 3)))
    assert z != one(ctx) and z**3 == one(ctx)
    roots = [one(ctx), z, z * z]
    assert len(set(roots)) == 3
    for r in roots:
        assert frobenius(r, 35) == r


def test_exact_order_element_has_exactly_that_order():
    ctx = build_field(5, 3, seed=1)
    for k in (k for k in range(1, ctx.size) if (ctx.size - 1) % k == 0):
        z = element(ctx, exact_order_element(ctx, k, nt.seeded_rng(0, "order", k)))
        assert z**k == one(ctx)
        assert all(z ** (k // q) != one(ctx) for q in nt.factorize(k).primes())
    # 7 does not divide 5^3 - 1 = 124, so F_125 has no element of order 7
    with pytest.raises(ValueError):
        exact_order_element(build_field(5, 3), 7, nt.seeded_rng(0, "x"))


def test_cached_maps_are_read_only():
    # field_check shares each cached ring: a write to one of its maps would
    # change every later Frobenius, trace and product
    ring = radius2._field_ctx(5, 3, 0)
    for a in (ring._red, ring.frob_matrix(0), ring.frob_matrix(1), ring.frob_matrix(2),
              ring.trace_matrix()):
        with pytest.raises(ValueError):
            a[0, 0] += 1


def test_cross_context_is_error():
    # contexts are compared by identity: equal moduli still refuse to mix
    a = build_field(5, 3, seed=1)
    b = build_field(5, 3, seed=1)
    with pytest.raises(ValueError):
        _ = one(a) + one(b)
    with pytest.raises(ValueError):
        _ = one(a) * gen(b)


# -- the shared F_p[x]/(m) kernel ------------------------------------------------

# degree 1 twice (f = 1, and v = 3 where y = -1), two extension fields, and
# the cosine fields of the (13, 11), (17, 3) and (7, 5) orbit searches
_RINGS = [build_field(7, 1), CosineField(5, 3), build_field(5, 3, seed=1),
          build_field(3, 8, seed=2)] + [CosineField(p, v) for v, p in ((13, 11), (17, 3), (7, 5))]


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
    ring = draw(st.sampled_from(_RINGS))
    rows = draw(st.integers(2, 5))
    elt = st.lists(st.integers(0, ring.p - 1), min_size=ring.deg, max_size=ring.deg)
    A, B = (np.array(draw(st.lists(elt, min_size=rows, max_size=rows)), dtype=np.int64)
            for _ in range(2))
    return ring, A, B


@settings(max_examples=80, deadline=None)
@given(_operands())
def test_kernel_batched_mul_matches_single_row_and_field_elements(ops):
    ring, A, B = ops
    batched = ring.mul(A, B)
    for a, b, c in zip(A, B, batched):
        assert np.array_equal(ring.mul(a[None, :], b[None, :])[0], c)
        assert (element(ring, a) * element(ring, b)).coeffs == tuple(c.tolist())
        assert _schoolbook(a.tolist(), b.tolist(), ring.modulus, ring.p) == c.tolist()
    # a one-row operand broadcasts against the batch
    assert np.array_equal(ring.mul(A[:1], B), ring.mul(np.repeat(A[:1], len(B), axis=0), B))


@settings(max_examples=40, deadline=None)
@given(_operands(), st.integers(0, 9))
def test_kernel_frobenius_is_the_p_power(ops, e):
    ring, A, _ = ops
    for a, fa in zip(A, ring.frob(A, e)):
        assert (element(ring, a) ** ring.p**e).coeffs == tuple(fa.tolist())
        assert np.array_equal(ring._square_multiply(a, ring.p**e), fa)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 7, 229, 631, 3001]), st.sampled_from([1, 2, 3, 80]), st.data())
def test_reduction_rows_are_the_high_powers_of_x(p, d, data):
    # the rows built by doubling: row k is x^(d+k), by pow and by long division
    low = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    ring = PolyModRing(p, low + [1])
    assert ring._red.shape == (d - 1, d)
    for k, row in enumerate(ring._red):
        assert np.array_equal(row, ring.pow(ring.x_vec(), d + k))
        assert row.tolist() == _schoolbook([0] * (d - 1) + [1], [0] * (k + 1) + [1], low + [1], p)


# x^p by each branch of _frob_matrices: a unit row (p < d), a reduction row
# (d <= p <= 2d - 2, with d = 2 at p = 2), square-and-multiply (p > 2d - 2)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 5), (3, 7), (2, 2), (5, 4), (7, 5), (3, 2), (13, 4), (229, 6)]),
       st.integers(2, 4), st.data())
def test_stacked_frobenius_matrices_are_each_rings(pd, k, data):
    p, d = pd
    low = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=d, max_size=d),
                             min_size=k, max_size=k))
    red = _reduction_rows(np.array(low, dtype=np.int64), p)
    Q = _frob_matrices(red, p)
    assert Q.shape == (k, d, d)
    for m, Q_m in zip(low, Q):
        ring = PolyModRing(p, m + [1])
        assert np.array_equal(Q_m, ring.frob_matrix(1))
        for i, row in enumerate(Q_m):  # row i is (x^p)^i
            assert np.array_equal(row, ring._square_multiply(ring.x_vec(), p * i))


# p = 2, degree 1, p > f, a ring that is not a field, and (631, 67) of field_check
_POW_RINGS = [build_field(2, 7), build_field(7, 1), build_field(5, 3, seed=1), build_field(13, 2),
              PolyModRing(3, (1, 0, 2, 1, 1)), build_field(631, 67)]


@pytest.mark.parametrize("i", range(len(_POW_RINGS)))
def test_base_p_power_is_square_and_multiply(i):
    # both of pow's paths, whichever pow picks, against square-and-multiply
    ring = _POW_RINGS[i]
    p, size = ring.p, ring.size
    rng = nt.seeded_rng(0, "frob-pow", i)
    a = np.array([rng.randrange(p) for _ in range(ring.deg)], dtype=np.int64)
    divisors = [k for k in (3, 5, 7, 13, 67, 127) if (size - 1) % k == 0]
    for e in [0, 1, p, 2 * p, rng.randrange(p) * p, size - 1] + [(size - 1) // k for k in divisors]:
        want = ring._square_multiply(a, e)
        assert np.array_equal(ring._pow_digits(a, e), want), e
        assert np.array_equal(ring.pow(a, e), want), e


@pytest.mark.parametrize("p, f", [(2**31 - 1, 1), (1000003, 2), (9973, 3)])
def test_pow_builds_no_p_row_table_at_large_p(monkeypatch, p, f):
    # a unity element at a large prime: a table of p rows would need up to
    # 16 GB here, so powers() may build only small tables
    ctx = build_field(p, f)
    small_powers = PolyModRing.powers
    def powers(self, a, n):
        assert n <= 1000, n
        return small_powers(self, a, n)
    monkeypatch.setattr(PolyModRing, "powers", powers)
    z = exact_order_element(ctx, 3, nt.seeded_rng(0, "large-p"))
    assert np.array_equal(ctx._square_multiply(z, 3), ctx.scalar_vec(1))
    assert not np.array_equal(z, ctx.scalar_vec(1))
    assert np.array_equal(ctx.pow(z, ctx.size), z)  # an exponent past p, at every degree
    rng = nt.seeded_rng(0, "large-p")
    z0 = ctx._square_multiply(np.array([rng.randrange(p) for _ in range(f)]), (ctx.size - 1) // 3)
    if z0.any() and not np.array_equal(z0, ctx.scalar_vec(1)):  # the first draw is kept
        assert np.array_equal(z, z0)


# the _POW_RINGS reach every branch of the binary splitting: degrees 7
# (0b111) and 67 (0b1000011), and one ring that is not a field
@pytest.mark.parametrize("i", range(len(_RINGS) + len(_POW_RINGS)))
def test_kernel_trace_is_the_frobenius_sum(i):
    ring = (_RINGS + _POW_RINGS)[i]
    total = sum(ring.frob_matrix(k) for k in range(ring.deg)) % ring.p
    assert np.array_equal(ring.trace_matrix(), total)
    if type(ring) is not PolyModRing:  # a field: z^(p^deg) = z
        assert np.array_equal(ring.frob_matrix(ring.deg), np.eye(ring.deg, dtype=np.int64))
    # the sum runs over powers it does not keep: no Frobenius power past the first stays cached
    fresh = PolyModRing(ring.p, ring.modulus)
    assert np.array_equal(fresh.trace_matrix(), total)
    assert set(fresh._frob) <= {0, 1}


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


def _sb_pow(a, e, modulus, p):
    """a^e mod (modulus, p) by square-and-multiply over _schoolbook."""
    r = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            r = _schoolbook(r, a, modulus, p)
        a = _schoolbook(a, a, modulus, p)
        e >>= 1
    return r


def _sb_power_rows(a, n, modulus, p):
    """[a^0, ..., a^(n-1)] mod (modulus, p), one _schoolbook product per row."""
    rows = [[1] + [0] * (len(modulus) - 2)]
    for _ in range(n - 1):
        rows.append(_schoolbook(rows[-1], a, modulus, p))
    return rows


@pytest.mark.parametrize("d", [1, 2, 40])
def test_kernel_linear_maps_at_the_int64_bound(d):
    # the F_p-linear maps (float64 products) against Python integers, at the
    # largest prime the ring admits; at d = 1 that prime is past the float
    # bound, and the products stay on int64
    p = _int64_edge_primes(d)[0]
    rng = np.random.default_rng(d)
    ring = PolyModRing(p, [int(c) for c in rng.integers(0, p, d)] + [1])
    m = ring.modulus
    a = [int(c) for c in rng.integers(p // 2, p, d)]
    x_rows = _sb_power_rows(ring.x_vec().tolist(), d, m, p)
    assert ring.mul_matrix(np.array(a)).tolist() == [_schoolbook(r, a, m, p) for r in x_rows]
    # 2d + 3 rows: doubling blocks up to one that stops short
    assert ring.powers(np.array(a), 2 * d + 3).tolist() == _sb_power_rows(a, 2 * d + 3, m, p)
    F = _sb_power_rows(_sb_pow(ring.x_vec().tolist(), p, m, p), d, m, p)
    assert ring.frob_matrix(1).tolist() == F
    assert ring.frob(np.array([a]))[0].tolist() == _sb_pow(a, p, m, p)
    F = np.array(F, dtype=object)  # Python integers from here on
    assert ring.frob_matrix(3).tolist() == ((F.dot(F) % p).dot(F) % p).tolist()
    power = trace = np.eye(d, dtype=int).astype(object)
    for _ in range(d - 1):
        power = power.dot(F) % p
        trace = trace + power
    assert ring.trace_matrix().tolist() == (trace % p).tolist()


@st.composite
def _powers_dot_cases(draw):
    d = draw(st.one_of(st.integers(1, 12), st.integers(40, 80)))
    p = draw(st.sampled_from([2, 3, 229, _int64_edge_primes(d)[0]]))
    # any modulus and any row: the ring need not be a field, nor a unit
    coeffs = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    ring = PolyModRing(p, draw(coeffs) + [1])
    a, t = (np.array(draw(coeffs), dtype=np.int64) for _ in range(2))
    # perfect squares and their neighbours split into whole blocks and not
    square = st.integers(1, 44).flatmap(lambda r: st.sampled_from([r * r - 1, r * r, r * r + 1]))
    n = draw(st.one_of(st.integers(1, 2000), square.filter(lambda n: n >= 1)))
    return ring, a, n, t


@settings(max_examples=100, deadline=None)
@given(_powers_dot_cases())
def test_powers_dot_is_the_power_table_times_the_column(case):
    ring, a, n, t = case
    got = ring.powers_dot(a, n, t)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert np.array_equal(got, _matmul(ring.powers(a, n), t[:, None], ring.p)[:, 0])


def _matmul_reference(A, B, p):
    """(A @ B) mod p on Python integers."""
    return np.array((A.astype(object) @ B.astype(object)) % p, dtype=np.int64)


def _float_edge_prime(k):
    """The largest prime p with k (p - 1)^2 <= 2^53: _matmul's last float64 product."""
    return next(q for q in range(math.isqrt(2**53 // k) + 1, 1, -1) if nt.is_prime(q))


@pytest.mark.parametrize("k, m", [(40, 40), (5, 3)])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 5)])
def test_matmul_row_blocks_match_integer_products(k, m, blocks, extra):
    # blocks * step + extra rows: around one row block of _ONE_THREAD
    # multiply-adds, and over several, at the largest prime whose products
    # stay float64
    rows = blocks * (_ONE_THREAD // (k * m)) + extra
    p = _float_edge_prime(k)
    rng = np.random.default_rng(rows)
    A, B = rng.integers(0, p, (rows, k)), rng.integers(0, p, (k, m))
    A[0], B[:, 0] = p - 1, p - 1  # the largest entry: k (p - 1)^2
    want = _matmul_reference(A, B, p)
    got = _matmul(A, B, p)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(_matmul(A.astype(np.float64), B.astype(np.float64), p), want)
    out = np.full((rows + 2, m), -1, dtype=np.int64)
    assert _matmul(A, B, p, out=out[1:-1]).base is out
    assert np.array_equal(out[1:-1], want) and (out[[0, -1]] == -1).all()


@pytest.mark.parametrize("stacked_B", [False, True])
def test_matmul_stacks_and_vectors_match_integer_products(stacked_B):
    k = m = 24
    step = _ONE_THREAD // (k * m)
    p = _float_edge_prime(k)
    rng = np.random.default_rng(k)
    A = rng.integers(0, p, (3, 2 * step + 7, k))  # a stack of matrices over several blocks
    B = rng.integers(0, p, (3, k, m) if stacked_B else (k, m))
    assert np.array_equal(_matmul(A, B, p), _matmul_reference(A, B, p))
    out = np.empty((3, 2 * step + 7, m), dtype=np.int64)
    assert _matmul(A, B, p, out=out) is out
    assert np.array_equal(out, _matmul_reference(A, B, p))
    a = A[0, 0]  # a vector, and a stack of 1-row matrices (_rabin's steps)
    assert np.array_equal(_matmul(a, B, p), _matmul_reference(a, B, p))
    assert np.array_equal(_matmul(A[:, :1], B, p), _matmul_reference(A[:, :1], B, p))


def test_matmul_int64_products_past_the_float_bound():
    # degree 1 at a prime above 9.5e7: (p - 1)^2 passes 2^53, so the
    # products stay int64, in row blocks as the float64 ones
    p = _int64_edge_primes(1)[0]
    assert (p - 1) ** 2 > 2**53
    m = 64
    step = _ONE_THREAD // m
    rng = np.random.default_rng(p)
    for rows in (step - 1, step + 1, 2 * step + 3):
        A, B = rng.integers(0, p, (rows, 1)), rng.integers(0, p, (1, m))
        A[0], B[0, 0] = p - 1, p - 1
        got = _matmul(A, B, p)
        assert got.dtype == np.int64 and np.array_equal(got, _matmul_reference(A, B, p))
    a = A[0]
    assert np.array_equal(_matmul(a, B, p), _matmul_reference(a, B, p))


@pytest.mark.parametrize("d, p", [(40, 229), (7, _int64_edge_primes(7)[0])])
def test_powers_over_several_row_blocks(d, p):
    # the last doubling blocks of powers() hold more rows than one _matmul
    # block, and are written into the table block by block
    n = 5 * (_ONE_THREAD // (d * d)) + 3
    rng = np.random.default_rng(d)
    ring = PolyModRing(p, [int(c) for c in rng.integers(0, p, d)] + [1])
    a = rng.integers(0, p, d)
    rows = [ring.scalar_vec(1)]
    for _ in range(n - 1):
        rows.append(ring.mul(rows[-1][None], a[None])[0])
    assert np.array_equal(ring.powers(a, n), np.array(rows))


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
