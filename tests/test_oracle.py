import dataclasses

import pytest

from leeperfect.geometry import sphere_size, verify_witness
from leeperfect.groupring import build_T, verify_r2_identity, verify_r3_identity
from leeperfect.nt import BudgetExceeded
from leeperfect.oracle import enumerate_abelian_groups, oracle_verdict, search_code
from leeperfect.outcomes import Caps
from witness_classes import cyclic_witness_equivalent


def test_enumerate_abelian_groups():
    menu = enumerate_abelian_groups(25)
    assert {g.cyclic_orders for g in menu.groups} == {(25,), (5, 5)}
    menu = enumerate_abelian_groups(13)
    assert [g.cyclic_orders for g in menu.groups] == [(13,)]
    menu = enumerate_abelian_groups(63)
    assert {g.cyclic_orders for g in menu.groups} == {(63,), (3, 21)}
    menu = enumerate_abelian_groups(8)
    assert {g.cyclic_orders for g in menu.groups} == {(8,), (2, 4), (2, 2, 2)}


def test_witness_2_2():
    res = oracle_verdict(2, 2)
    assert res.exists
    w = res.witness
    assert w.group.cyclic_orders == (13,)
    assert verify_witness(w).ok
    assert cyclic_witness_equivalent(13, [g[0] for g in w.generators], [1, 5])
    assert verify_r2_identity(build_T(w.group, w.generators), 2).holds


def test_witness_1_2():
    res = oracle_verdict(1, 2)
    assert res.exists and res.witness.group.cyclic_orders == (5,)


def test_exhaustive_3_2():
    res = oracle_verdict(3, 2)
    assert res.kind == "not_exists"
    assert set(res.searched) == {(25,), (5, 5)}


def test_witness_2_3():
    res = oracle_verdict(2, 3)
    assert res.exists
    w = res.witness
    assert w.group.cyclic_orders == (25,)
    assert cyclic_witness_equivalent(25, [g[0] for g in w.generators], [1, 7])
    assert verify_r3_identity(build_T(w.group, w.generators), 2).holds


def test_not_exists_order_independent():
    for seed in (1, 2):
        assert oracle_verdict(3, 2, order_seed=seed).kind == "not_exists"


def test_every_witness_passes_both_checks():
    for n, r, verify in ((2, 2, verify_r2_identity), (2, 3, verify_r3_identity)):
        res = oracle_verdict(n, r)
        w = res.witness
        assert verify_witness(w).ok
        assert verify(build_T(w.group, w.generators), n).holds


def test_search_requires_matching_order():
    menu = enumerate_abelian_groups(25)
    with pytest.raises(ValueError):
        search_code(2, 2, menu.groups[0])


def test_node_budget():
    caps = dataclasses.replace(Caps(), search_node_budget=1)
    menu = enumerate_abelian_groups(sphere_size(3, 2))
    with pytest.raises(BudgetExceeded):
        search_code(3, 2, menu.groups[0], caps)
    assert oracle_verdict(3, 2, caps).kind == "skipped"


def test_first_witness_deterministic():
    a = oracle_verdict(2, 2).witness
    b = oracle_verdict(2, 2).witness
    assert a.generators == b.generators and a.group == b.group
