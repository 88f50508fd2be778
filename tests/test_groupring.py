import math

import pytest

from leeperfect import nt
from leeperfect.groupring import (
    AbelianGroup,
    GroupRingElement,
    all_ones,
    build_T,
    identity_element,
    power_map,
    verify_r2_identity,
    verify_r3_identity,
)


def test_invariant_factor_normalization():
    assert AbelianGroup.of([6, 4]).cyclic_orders == (2, 12)
    assert AbelianGroup.of([5, 5]).cyclic_orders == (5, 5)
    assert AbelianGroup.of([1]).cyclic_orders == ()
    assert AbelianGroup.cyclic(63).order == 63
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))  # not a divisibility chain


def _random_element(G, rng, lo=-3, hi=4):
    return GroupRingElement(G, [rng.randrange(lo, hi) for _ in range(G.order)])


def test_ring_identity_element():
    G = AbelianGroup.cyclic(13)
    rng = nt.seeded_rng(1, "gr")
    A = _random_element(G, rng)
    assert A * identity_element(G) == A


def test_symmetric_pair_square():
    G = AbelianGroup.cyclic(13)
    A = GroupRingElement(G)
    A[(1,)] = 1
    A[(12,)] = 1
    sq = A * A
    expect = GroupRingElement(G)
    expect[(2,)] = 1
    expect[(11,)] = 1
    expect[(0,)] = 2
    assert sq == expect


def test_all_ones_absorbs():
    G = AbelianGroup.cyclic(13)
    assert all_ones(G) * all_ones(G) == 13 * all_ones(G)


def test_power_map_examples():
    G = AbelianGroup.cyclic(13)
    rng = nt.seeded_rng(2, "pm")
    A = _random_element(G, rng)
    assert power_map(A, 1) == A
    T = build_T(G, [(1,), (5,)])
    assert power_map(T, -1) == T
    assert power_map(all_ones(G), 2) == all_ones(G)
    for t in (2, 3, 5):  # the coefficient of g moves to t*g
        B = power_map(A, t)
        assert all(B[(t * g % 13,)] == A[(g,)] for g in range(13))


def test_power_map_ring_homomorphism():
    rng = nt.seeded_rng(3, "pmh")
    for G in (AbelianGroup.cyclic(13), AbelianGroup.cyclic(25), AbelianGroup.of([5, 5])):
        for t in range(1, G.exponent):
            if math.gcd(t, G.exponent) != 1:
                continue
            A = _random_element(G, rng)
            B = _random_element(G, rng)
            assert power_map(A * B, t) == power_map(A, t) * power_map(B, t)


def test_build_T_examples():
    G = AbelianGroup.cyclic(13)
    T = build_T(G, [(1,), (5,)])
    coeffs = {g[0]: c for g, c in zip(G.elements(), T.coeffs) if c}
    assert coeffs == {0: 1, 1: 1, 12: 1, 5: 1, 8: 1}
    assert build_T(G, []) == identity_element(G)
    dup = build_T(G, [(1,), (1,)])
    assert dup[(1,)] == 2 and dup[(12,)] == 2 and dup[(0,)] == 1
    assert T.coefficient_sum() == 2 * 2 + 1


def test_coefficient_sum_is_2n_plus_1():
    G = AbelianGroup.of([5, 5])
    T = build_T(G, [(0, 1), (1, 0), (1, 1)])
    assert T.coefficient_sum() == 7


def test_verify_r2_identity():
    G = AbelianGroup.cyclic(13)
    assert verify_r2_identity(build_T(G, [(1,), (5,)]), 2).holds
    rep = verify_r2_identity(identity_element(G), 2)
    assert not rep.holds and rep.first_failure is not None
    assert not verify_r2_identity(build_T(G, [(1,), (2,)]), 2).holds
    with pytest.raises(ValueError):
        verify_r2_identity(build_T(G, [(1,), (5,)]), 3)


def test_verify_r3_identity():
    G = AbelianGroup.cyclic(25)
    assert verify_r3_identity(build_T(G, [(1,), (7,)]), 2).holds
    assert not verify_r3_identity(identity_element(G), 2).holds


def test_group_mismatch_errors():
    A = GroupRingElement(AbelianGroup.cyclic(13))
    B = GroupRingElement(AbelianGroup.cyclic(25))
    with pytest.raises(ValueError):
        _ = A * B
