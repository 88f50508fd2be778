"""Equivalence of cyclic-group witnesses, for comparing a witness the
oracle finds with a published one."""

import math


def cyclic_witness_equivalent(m: int, gens_a, gens_b) -> bool:
    """Are two cyclic-group witnesses related by a unit multiplication
    combined with per-generator negation and permutation?"""

    def classes(gens):
        return sorted(min(g % m, -g % m) for g in gens)

    target = classes(gens_b)
    for u in range(1, m):
        if math.gcd(u, m) != 1:
            continue
        if classes([u * g for g in gens_a]) == target:
            return True
    return False
