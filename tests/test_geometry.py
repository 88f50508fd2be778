import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from leeperfect import geometry, nt, selftest
from leeperfect.geometry import (
    CodeWitness,
    enumerate_sphere,
    group_order_r2,
    group_order_r3,
    lee_distance,
    render_tiling,
    sphere_size,
    verify_witness,
)
from leeperfect.groupring import AbelianGroup
from leeperfect.nt import BudgetExceeded
from leeperfect.outcomes import DEFAULT_CAPS


def test_sphere_size_examples():
    assert sphere_size(2, 2) == 13
    assert sphere_size(2, 3) == 25
    for n in range(10):
        assert sphere_size(n, 1) == 2 * n + 1


def test_group_order_polynomials():
    assert group_order_r2(6) == 85
    assert group_order_r2(102) == 21013
    assert group_order_r3(3) == 63
    for n in range(10_001):
        assert group_order_r2(n) == sphere_size(n, 2)
    for n in range(2_001):
        assert group_order_r3(n) == sphere_size(n, 3)


@pytest.mark.parametrize("name", ["group_order_r2", "group_order_r3"])
def test_selftest_sphere_suite_checks_the_engine_orders(monkeypatch, name):
    real = getattr(geometry, name)
    monkeypatch.setattr(geometry, name, lambda n: real(n) + 1)
    assert not selftest._sphere_suite(lambda line: None, DEFAULT_CAPS)


def _factor_reference(r, n, budget=None, seed=0):
    """nt.factorize of the order (radius 2), or of the pieces 2n + 1 and
    2n^2 + 2n + 3 merged with one 3 taken away (radius 3); the message of
    BudgetExceeded when rho runs out."""
    try:
        if r == 2:
            return nt.factorize(group_order_r2(n), budget, seed)
        a, b = (nt.factorize(m, budget, seed) for m in (2 * n + 1, 2 * n * n + 2 * n + 3))
    except BudgetExceeded as e:
        return str(e)
    merged = Counter(a.as_dict()) + Counter(b.as_dict())
    merged[3] -= 1
    return nt.Factorization(group_order_r3(n), tuple(sorted((+merged).items())),
                            a.deterministic and b.deterministic)


def _factor_orders(r, lo, hi, budget=None):
    return [str(x) if isinstance(x, BudgetExceeded) else x
            for x in geometry.factor_orders(r, lo, hi, budget)]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.one_of(st.integers(0, 2000), st.integers(0, 10**7)),
    st.integers(1, 60),
    st.sampled_from([None, 0, 1]),
)
@example(3, 7010, 120, 0)  # the piece 2n^2 + 2n + 3 crosses 10^8 at n = 7071
@example(2, 7010, 120, 1)
def test_factor_orders_matches_factorize(r, lo, length, budget):
    hi = lo + length - 1
    assert _factor_orders(r, lo, hi, budget) == [
        _factor_reference(r, n, budget) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("r, lo, hi", [
    (2, 2, 2), (3, 3, 3),  # n = r
    (2, 1000, 1000), (3, 1001, 1001), (2, 0, 0), (3, 0, 2),  # one-element ranges and n < r
    (3, 3, 5), (3, 300, 302),  # every residue of n mod 3
    (2, 7000, 7150), (3, 7000, 7150),  # pieces and orders cross the 10^8 cofactor bound
])
def test_factor_orders_equal_factorize_of_the_order(r, lo, hi):
    order = group_order_r2 if r == 2 else group_order_r3
    assert geometry.factor_orders(r, lo, hi) == [
        nt.factorize(order(n)) for n in range(lo, hi + 1)]


def test_factor_orders_where_five_divides_both_pieces():
    # n = 2 (mod 5): 5 | 2n + 1 and 5 | 2n^2 + 2n + 3, so the fives add up
    for n in range(2, 400, 5):
        a, b = 2 * n + 1, 2 * n * n + 2 * n + 3
        assert a % 5 == 0 and b % 5 == 0
        fac = geometry.factor_orders(3, n, n)[0]
        assert fac == nt.factorize(group_order_r3(n))
        assert fac.as_dict()[5] == (nt.factorize(a).as_dict()[5]
                                    + nt.factorize(b).as_dict()[5])


def test_factor_orders_past_int64():
    # at n = 2^32 the radius-2 orders exceed 2^63; no order or n enters numpy
    lo = 2**32
    assert group_order_r2(lo) > 2**63
    assert geometry.factor_orders(2, lo, lo + 50) == [
        nt.factorize(group_order_r2(n)) for n in range(lo, lo + 51)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**300))
@example(2**64 - 1)
def test_sieve_residues_of_large_n(x):
    qs = geometry._sieve_roots(1)[0]
    assert geometry._residues(x, qs).tolist() == [x % q for q in qs.tolist()]


@pytest.mark.parametrize("r", [2, 3])
def test_selftest_factor_suite_checks_the_sieve(monkeypatch, r):
    # a sieve that loses a prime at one radius fails the suite
    real = geometry.factor_orders

    def broken(rr, lo, hi, *args):
        facs = real(rr, lo, hi, *args)
        return [nt.factorize(f.n + 1) if rr == r and f.n % 13 == 0 else f for f in facs]

    monkeypatch.setattr(geometry, "factor_orders", broken)
    assert not selftest._factor_suite(lambda line: None, DEFAULT_CAPS)


def test_factor_orders_refuses_bad_input():
    with pytest.raises(ValueError, match="radius"):
        geometry.factor_orders(4, 2, 3)
    with pytest.raises(ValueError, match="n >= 0"):
        geometry.factor_orders(2, -1, 3)
    assert geometry.factor_orders(2, 5, 4) == []


def test_enumerate_sphere():
    assert enumerate_sphere(1, 2) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(enumerate_sphere(2, 2)) == 13
    for n in range(7):
        for r in range(7):
            vecs = enumerate_sphere(n, r)
            assert len(vecs) == sphere_size(n, r)
            assert vecs == sorted(vecs)
            assert all(sum(abs(x) for x in v) <= r for v in vecs)
    with pytest.raises(BudgetExceeded):
        enumerate_sphere(6, 6, cap=100)


def test_lee_distance():
    assert lee_distance((0, 0), (6, 8), modulus=13) == 11
    assert lee_distance((3, -2, 5), (3, -2, 5)) == 0
    rng = nt.seeded_rng(1, "lee")
    for _ in range(50):
        x = tuple(rng.randrange(-9, 10) for _ in range(4))
        y = tuple(rng.randrange(-9, 10) for _ in range(4))
        assert lee_distance(x, y) == lee_distance(y, x)
        assert lee_distance(x, y, modulus=13) == lee_distance(y, x, modulus=13)
    with pytest.raises(ValueError):
        lee_distance((1,), (1, 2))


def test_verify_witness_examples():
    c13 = AbelianGroup.cyclic(13)
    good = CodeWitness(c13, ((1,), (5,)), 2, 2)
    assert verify_witness(good).ok
    bad = verify_witness(CodeWitness(c13, ((1,), (2,)), 2, 2))
    assert not bad.ok and bad.collision is not None
    c25 = AbelianGroup.cyclic(25)
    assert verify_witness(CodeWitness(c25, ((1,), (7,)), 2, 3)).ok
    with pytest.raises(ValueError):
        verify_witness(CodeWitness(c25, ((1,), (7,)), 2, 2))


def test_witness_invariant_under_group_automorphism():
    c13 = AbelianGroup.cyclic(13)
    for u in range(1, 13):
        if math.gcd(u, 13) != 1:
            continue
        w = CodeWitness(c13, ((u % 13,), (5 * u % 13,)), 2, 2)
        assert verify_witness(w).ok
    # negating a generator also preserves the witness
    assert verify_witness(CodeWitness(c13, ((12,), (5,)), 2, 2)).ok


def test_witness_bridges_to_group_ring_identity():
    from leeperfect.groupring import build_T, verify_r2_identity

    c13 = AbelianGroup.cyclic(13)
    w = CodeWitness(c13, ((1,), (5,)), 2, 2)
    assert verify_witness(w).ok
    assert verify_r2_identity(build_T(c13, w.generators), 2).holds


def test_moore_bound():
    # sphere_size(d, k) is also the Moore bound of an abelian Cayley graph of
    # degree 2d and diameter k, symmetric in d and k
    for d in range(8):
        for k in range(8):
            assert sphere_size(d, k) == sphere_size(k, d)


def test_render_tiling_stable():
    c13 = AbelianGroup.cyclic(13)
    w = CodeWitness(c13, ((1,), (5,)), 2, 2)
    pic = render_tiling(w, width=13, height=13)
    assert pic == render_tiling(w, width=13, height=13)
    rows = pic.splitlines()
    assert len(rows) == 13
    assert rows[-1].split()[0] == "*"  # origin is a codeword
    assert sum(row.count("*") for row in rows) == 13  # one codeword per row at period 13
    with pytest.raises(ValueError):
        render_tiling(CodeWitness(AbelianGroup.cyclic(7), ((1,), (2,), (3,)), 3, 1))
