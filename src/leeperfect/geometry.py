"""Lee spheres, Lee distance, the associated group orders, and witness checks.

factor_orders factors the orders of a whole range of dimensions at once.
With t = 2n + 1 they are (t^2 + 1)/2 at radius 2 and t (t^2 + 5)/6 at
radius 3, so an odd prime q divides a piece exactly when t is 0 or a square
root of -1 or -5 mod q (nt.sqrt_mod).  A sieve over those roots finds every
prime below 10^4 of every order without trial-dividing any n, and the
cofactors end in nt.complete_factorization, the tail nt.factorize uses.

A CodeWitness packages an abelian group with n generator images; it certifies
a linear perfect Lee code exactly when the signed sums over the radius-r Lee
sphere hit every group element once.  Bijectivity is checked as "all images
distinct" plus the order precondition, so no membership set over a large
group is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import nt
from .nt import BudgetExceeded, Factorization

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


@lru_cache(maxsize=None)
def _sieve_roots(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, n mod q) for every odd prime q < 10^4 and class of n with
    q | t^2 + c, t = 2n + 1: t = +-sqrt(-c) mod q, n = (t - 1)/2 mod q.
    c = 0 gives t = 0 mod q, the primes of the piece t.  The arrays are
    shared by the cache, so they are read-only."""
    qs, ns = [], []
    for q in nt.TRIAL_PRIMES[1:]:
        s = nt.sqrt_mod(-c, q)
        if s is not None:
            for t in sorted({s, -s % q}):
                qs.append(q)
                ns.append((t - 1) * (q + 1) // 2 % q)
    out = np.array(qs, dtype=np.int64), np.array(ns, dtype=np.int64)
    for a in out:
        a.flags.writeable = False
    return out


def _residues(x: int, qs: np.ndarray) -> np.ndarray:
    """x mod each q of qs, folded in from 20-bit limbs of x, so that x
    itself (which may pass 2^63) never enters numpy."""
    res = np.zeros_like(qs)
    for shift in range(x.bit_length() // 20 * 20, -1, -20):
        res = ((res << 20) | ((x >> shift) & 0xFFFFF)) % qs
    return res


def _sieve(c: int, lo: int, values: list[int]) -> tuple[list[dict[int, int]], list[int]]:
    """Divide each values[k], the piece at n = lo + k whose odd primes are
    those of t^2 + c, by its primes below 10^4 with multiplicity; returns
    the primes found per n and the cofactors."""
    qs, ns = _sieve_roots(c)
    offsets = (ns - _residues(lo, qs)) % qs
    hit = offsets < len(values)
    rest = list(values)
    small: list[dict[int, int]] = [{} for _ in rest]
    for q, first in zip(qs[hit].tolist(), offsets[hit].tolist()):
        for k in range(first, len(rest), q):
            e = 0
            while rest[k] % q == 0:
                rest[k] //= q
                e += 1
            small[k][q] = e
    return small, rest


def factor_orders(
    r: int, lo: int, hi: int, budget: Optional[int] = None, seed: int = 0,
) -> list[Factorization | BudgetExceeded]:
    """The factorization of the radius-r order of each n in lo..hi, or the
    BudgetExceeded its rho raised.

    Radius 2 factors (t^2 + 1)/2 and equals nt.factorize(order) at every
    budget.  Radius 3 factors the pieces t and (t^2 + 5)/2 (their gcd
    divides 5), each with its own budget and rho tag, merges them and takes
    away the one 3 that divides exactly one of them.
    """
    if r not in (2, 3):
        raise ValueError("radius must be 2 or 3")
    if lo < 0:
        raise ValueError("factor_orders needs n >= 0")
    ts = [2 * n + 1 for n in range(lo, hi + 1)]
    cs = (1,) if r == 2 else (0, 5)
    pieces = [[t if c == 0 else (t * t + c) // 2 for t in ts] for c in cs]
    sieved = [_sieve(c, lo, values) for c, values in zip(cs, pieces)]
    out: list[Factorization | BudgetExceeded] = []
    for k, n in enumerate(range(lo, hi + 1)):
        try:
            facs = [nt.complete_factorization(values[k], small[k], rest[k], budget, seed)
                    for values, (small, rest) in zip(pieces, sieved)]
        except BudgetExceeded as e:
            out.append(e)
            continue
        if r == 2:
            out.append(facs[0])
            continue
        merged = dict(facs[0].factors)
        for p, e in facs[1].factors:
            merged[p] = merged.get(p, 0) + e
        merged[3] -= 1
        out.append(Factorization(
            group_order_r3(n), tuple(sorted((p, e) for p, e in merged.items() if e)),
            facs[0].deterministic and facs[1].deterministic,
        ))
    return out


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
