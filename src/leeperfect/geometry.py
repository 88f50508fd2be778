"""Lee spheres, Lee distance, the associated group orders, and witness checks.

A CodeWitness packages an abelian group with n generator images; it certifies
a linear perfect Lee code exactly when the signed sums over the radius-r Lee
sphere hit every group element once.  Bijectivity is checked as "all images
distinct" plus the order precondition, so no membership set over a large
group is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Optional, Sequence

from .nt import BudgetExceeded

if TYPE_CHECKING:  # groupring imports this module for the orders
    from .groupring import AbelianGroup

LeeVector = tuple[int, ...]


def sphere_size(n: int, r: int) -> int:
    """Number of integer vectors of l1-norm <= r in dimension n."""
    if n < 0 or r < 0:
        raise ValueError("n and r must be nonnegative")
    return sum(2**i * comb(n, i) * comb(r, i) for i in range(min(n, r) + 1))


def group_order_r2(n: int) -> int:
    """sphere_size(n, 2), the order of a radius-2 tiling group."""
    return 2 * n * n + 2 * n + 1


def group_order_r3(n: int) -> int:
    """sphere_size(n, 3), the order of a radius-3 tiling group."""
    return 1 + 6 * n * n + 4 * n * (n - 1) * (n - 2) // 3


def enumerate_sphere(n: int, r: int, cap: Optional[int] = None) -> list[LeeVector]:
    """All vectors with l1-norm <= r, in lexicographic order."""
    count = sphere_size(n, r)
    if cap is not None and count > cap:
        raise BudgetExceeded(f"sphere of size {count} exceeds the enumeration cap {cap}")
    out: list[LeeVector] = []

    def rec(prefix: list[int], budget: int):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for x in range(-budget, budget + 1):
            prefix.append(x)
            rec(prefix, budget - abs(x))
            prefix.pop()

    rec([], r)
    out.sort()
    return out


def lee_distance(x: Sequence[int], y: Sequence[int], modulus: Optional[int] = None) -> int:
    """l1 distance on Z^n, or the wraparound version on Z_m^n."""
    if len(x) != len(y):
        raise ValueError("vectors live in different ambient spaces")
    total = 0
    for a, b in zip(x, y):
        d = abs(a - b)
        if modulus is not None:
            d = min(d % modulus, (modulus - d) % modulus)
        total += d
    return total


@dataclass(frozen=True)
class CodeWitness:
    """Group plus generator images realizing a linear perfect Lee code."""

    group: AbelianGroup
    generators: tuple[tuple[int, ...], ...]
    n: int
    r: int

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise ValueError("witness needs exactly n generators")


@dataclass
class WitnessCheck:
    ok: bool
    collision: Optional[tuple[LeeVector, LeeVector]] = None


def verify_witness(w: CodeWitness) -> WitnessCheck:
    """All sphere images distinct (hence bijective by the order count)."""
    if w.group.order != sphere_size(w.n, w.r):
        raise ValueError("group order does not equal the sphere size")
    seen: dict[tuple[int, ...], LeeVector] = {}
    for vec in enumerate_sphere(w.n, w.r):
        img = w.group.image(vec, w.generators)
        if img in seen:
            return WitnessCheck(False, (seen[img], vec))
        seen[img] = vec
    return WitnessCheck(True)


_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_tiling(w: CodeWitness, width: int = 26, height: int = 13) -> str:
    """Text picture of the periodic plane tiling induced by a 2-D witness.

    Each cell shows the group value of its lattice point; codeword cells
    (value 0) print '*'.  Debugging aid only; output is bit-stable.
    """
    if w.n != 2:
        raise ValueError("rendering is available for 2-D witnesses only")
    G = w.group
    rows = []
    for y in range(height - 1, -1, -1):
        row = []
        for x in range(width):
            idx = G.index(G.image((x, y), w.generators))
            row.append("*" if idx == 0 else _GLYPHS[idx % len(_GLYPHS)])
        rows.append(" ".join(row))
    return "\n".join(rows)
