"""Independent ground truth at tiny scale: exhaustive witness search.

For a given (n, r) the sphere size fixes the group order; every abelian
group of that order is enumerated (one representative per isomorphism
class) and searched depth-first for generator images whose signed sums over
the Lee sphere are pairwise distinct.  Pruning uses only guaranteed
symmetries - generator order, per-generator negation, and (for cyclic
groups) the unit-multiplication orbit of the first generator - so an
exhausted search really is a nonexistence proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

from . import nt
from .geometry import CodeWitness, enumerate_sphere, sphere_size, verify_witness
from .groupring import AbelianGroup
from .nt import BudgetExceeded
from .outcomes import Caps, DEFAULT_CAPS


def _partitions(k: int):
    """All integer partitions of k, largest part first."""
    if k == 0:
        yield ()
        return
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail
    yield from rec(k, k)


@dataclass(frozen=True)
class GroupMenu:
    order: int
    groups: tuple[AbelianGroup, ...]


def enumerate_abelian_groups(order: int, caps: Caps = DEFAULT_CAPS) -> GroupMenu:
    """All isomorphism classes of abelian groups of the given order."""
    fac = nt.factorize(order, budget=caps.factor_budget, seed=caps.seed)
    per_prime = []
    for p, e in fac.factors:
        per_prime.append([tuple(p**part for part in parts) for parts in _partitions(e)])
    groups = []
    for combo in product(*per_prime) if per_prime else [()]:
        orders = [m for chunk in combo for m in chunk]
        groups.append(AbelianGroup.of(orders))
    groups.sort(key=lambda g: g.cyclic_orders)
    return GroupMenu(order, tuple(groups))


def _pm_representative(group: AbelianGroup, g: tuple[int, ...]) -> tuple[int, ...]:
    return min(g, group.neg(g))


def _first_generator_reps(group: AbelianGroup, classes: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """One representative per unit-multiplication orbit (cyclic groups only);
    for non-cyclic groups every class is kept."""
    if len(group.cyclic_orders) != 1:
        return set(classes)
    m = group.cyclic_orders[0]
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    seen: set[tuple[int, ...]] = set()
    reps: set[tuple[int, ...]] = set()
    for cls in classes:
        if cls in seen:
            continue
        reps.add(cls)
        for u in units:
            img = _pm_representative(group, group.scale(u, cls))
            seen.add(img)
    return reps


def search_code(
    n: int, r: int, group: AbelianGroup, caps: Caps = DEFAULT_CAPS, order_seed: int = 0
) -> Optional[CodeWitness]:
    """First witness under the canonical candidate order, or None if the
    search space is exhausted.  Raises BudgetExceeded when the node budget
    runs out (never silently)."""
    if group.order != sphere_size(n, r):
        raise ValueError("group order must equal the sphere size")
    sphere = enumerate_sphere(n, r)
    # vectors grouped by the largest coordinate index they touch
    by_level: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for vec in sphere:
        level = max((i + 1 for i, x in enumerate(vec) if x), default=0)
        by_level[level].append(vec)
    identity = group.identity()
    classes = sorted(
        {_pm_representative(group, g) for g in group.elements() if g != identity}
    )
    if order_seed:
        # permuted candidate order for the order-independence property; the
        # unit-orbit shortcut is dropped, the increasing-rank canonicalization
        # (valid for any fixed total order) keeps the search complete
        rng = nt.seeded_rng(order_seed, "search-order", n, r, group.cyclic_orders)
        rng.shuffle(classes)
        first_pool = list(classes)
    else:
        reps = _first_generator_reps(group, classes)
        first_pool = [c for c in classes if c in reps]
    rank = {c: i for i, c in enumerate(classes)}
    budget = [caps.search_node_budget]

    def extend(gens: list[tuple[int, ...]], images: dict) -> Optional[CodeWitness]:
        k = len(gens)
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("witness search node budget exhausted")
        new_images = {}
        for vec in by_level[k]:
            img = group.image(vec, gens)
            if img in images or img in new_images:
                return None
            new_images[img] = vec
        if k == n:
            return CodeWitness(group, tuple(gens), n, r)
        merged = {**images, **new_images}
        pool = classes[rank[gens[-1]] + 1 :] if gens else first_pool
        for cand in pool:
            gens.append(cand)
            found = extend(gens, merged)
            gens.pop()
            if found is not None:
                return found
        return None

    return extend([], {})


@dataclass
class OracleResult:
    kind: str  # "exists" | "not_exists" | "skipped"
    witness: Optional[CodeWitness] = None
    searched: tuple[tuple[int, ...], ...] = ()

    @property
    def exists(self) -> bool:
        return self.kind == "exists"


def oracle_verdict(n: int, r: int, caps: Caps = DEFAULT_CAPS, order_seed: int = 0) -> OracleResult:
    """Exists on the first witness over any group of the right order;
    NotExists only when every group's search exhausted; Skipped on caps."""
    menu = enumerate_abelian_groups(sphere_size(n, r), caps)
    searched = []
    skipped = False
    for group in menu.groups:
        try:
            witness = search_code(n, r, group, caps, order_seed)
        except BudgetExceeded:
            skipped = True
            continue
        searched.append(group.cyclic_orders)
        if witness is not None:
            chk = verify_witness(witness)
            if not chk.ok:
                raise AssertionError(f"search returned a non-witness: {chk.collision}")
            return OracleResult("exists", witness, tuple(searched))
    if skipped:
        return OracleResult("skipped", None, tuple(searched))
    return OracleResult("not_exists", None, tuple(searched))
