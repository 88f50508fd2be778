import math

import pytest

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
