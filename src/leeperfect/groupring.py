"""Exact arithmetic in integral group rings of finite abelian groups.

Groups are kept in invariant-factor form m_1 | m_2 | ... | m_k and written
additively (elements are tuples of residues).  Ring elements store a dense
list of arbitrary-size integer coefficients indexed by a mixed-radix
encoding of the group, so the convolution product is exact and cache
friendly at the orders used here (a few hundred at most).

No characters are evaluated here: the orbit searches take the character
values of T mod p in orbitfield.CosineField, and rebuild its coefficients
from them with CosineField.coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import nt
from .geometry import group_order_r2, group_order_r3


def _invariant_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """Normalize a list of cyclic orders to the invariant-factor chain."""
    primes: dict[int, list[int]] = {}
    for m in orders:
        if m < 1:
            raise ValueError("cyclic orders must be >= 1")
        if m == 1:
            continue
        for p, e in nt.factorize(m).factors:
            primes.setdefault(p, []).append(e)
    if not primes:
        return ()
    depth = max(len(v) for v in primes.values())
    factors = []
    for i in range(depth):
        f = 1
        for p, exps in primes.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                f *= p ** exps_sorted[i]
        factors.append(f)
    factors.reverse()  # smallest first so the chain divides left to right
    return tuple(factors)


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group in invariant-factor form (written additively)."""

    cyclic_orders: tuple[int, ...]

    @staticmethod
    def of(orders: Iterable[int]) -> "AbelianGroup":
        return AbelianGroup(_invariant_factors(list(orders)))

    @staticmethod
    def cyclic(m: int) -> "AbelianGroup":
        return AbelianGroup.of([m])

    def __post_init__(self):
        for a, b in zip(self.cyclic_orders, self.cyclic_orders[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        n = 1
        for m in self.cyclic_orders:
            n *= m
        return n

    @property
    def exponent(self) -> int:
        return self.cyclic_orders[-1] if self.cyclic_orders else 1

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.cyclic_orders)

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.cyclic_orders))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple(-x % m for x, m in zip(a, self.cyclic_orders))

    def scale(self, t: int, a: Sequence[int]) -> tuple[int, ...]:
        return tuple(t * x % m for x, m in zip(a, self.cyclic_orders))

    def image(self, coords: Sequence[int], gens: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """sum of c_i g_i, the image of the Lee vector c under the generator
        images g_i; coordinates past len(gens) are ignored."""
        img = self.identity()
        for c, g in zip(coords, gens):
            if c:
                img = self.add(img, self.scale(c, g))
        return img

    def index(self, a: Sequence[int]) -> int:
        i = 0
        for x, m in zip(a, self.cyclic_orders):
            i = i * m + (x % m)
        return i

    def unindex(self, i: int) -> tuple[int, ...]:
        out = []
        for m in reversed(self.cyclic_orders):
            out.append(i % m)
            i //= m
        return tuple(reversed(out))

    def elements(self):
        for i in range(self.order):
            yield self.unindex(i)

    def describe(self) -> str:
        return " x ".join(f"C{m}" for m in self.cyclic_orders) or "C1"


class GroupRingElement:
    """Integer formal sum over an AbelianGroup, dense coefficient storage."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: AbelianGroup, coeffs: Optional[list[int]] = None):
        self.group = group
        self.coeffs = coeffs if coeffs is not None else [0] * group.order

    def copy(self) -> "GroupRingElement":
        return GroupRingElement(self.group, list(self.coeffs))

    def _check(self, other: "GroupRingElement"):
        if self.group != other.group:
            raise ValueError("group ring elements live over different groups")

    def __getitem__(self, g) -> int:
        return self.coeffs[self.group.index(g)]

    def __setitem__(self, g, v: int):
        self.coeffs[self.group.index(g)] = v

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(self.group, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rmul__(self, c: int) -> "GroupRingElement":
        if not isinstance(c, int):
            return NotImplemented
        return GroupRingElement(self.group, [c * a for a in self.coeffs])

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return self.__rmul__(other)
        self._check(other)
        G = self.group
        out = [0] * G.order
        elems = [G.unindex(i) for i in range(G.order)]
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            gi = elems[i]
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                out[G.index(G.add(gi, elems[j]))] += a * b
        return GroupRingElement(G, out)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group, tuple(self.coeffs)))

    def coefficient_sum(self) -> int:
        return sum(self.coeffs)

    def __repr__(self):
        terms = [
            f"{c}*{g}" for g, c in zip(self.group.elements(), self.coeffs) if c
        ]
        return " + ".join(terms) or "0"


def identity_element(group: AbelianGroup) -> GroupRingElement:
    e = GroupRingElement(group)
    e[group.identity()] = 1
    return e


def all_ones(group: AbelianGroup) -> GroupRingElement:
    return GroupRingElement(group, [1] * group.order)


def power_map(a: GroupRingElement, t: int) -> GroupRingElement:
    """Coefficient-preserving substitution g -> t*g (written additively)."""
    G = a.group
    out = GroupRingElement(G)
    for i, c in enumerate(a.coeffs):
        if c:
            out.coeffs[G.index(G.scale(t, G.unindex(i)))] += c
    return out


def build_T(group: AbelianGroup, generators: Sequence[Sequence[int]]) -> GroupRingElement:
    """1 + sum of (g_i + -g_i) as a multiset; duplicate generators stack."""
    T = identity_element(group)
    for g in generators:
        g = tuple(g)
        T[g] = T[g] + 1
        ng = group.neg(g)
        T[ng] = T[ng] + 1
    return T


@dataclass
class IdentityReport:
    holds: bool
    first_failure: Optional[tuple[tuple[int, ...], int, int]] = None  # (element, lhs, rhs)


def verify_r2_identity(T: GroupRingElement, n: int) -> IdentityReport:
    """Exact check of T^2 = 2*G - T^(2) + 2n over a group of order 2n^2+2n+1."""
    G = T.group
    if G.order != group_order_r2(n):
        raise ValueError(f"group order {G.order} does not match 2n^2+2n+1 for n={n}")
    lhs = T * T
    rhs = 2 * all_ones(G) - power_map(T, 2) + (2 * n) * identity_element(G)
    return _compare(lhs, rhs)


def verify_r3_identity(T: GroupRingElement, n: int) -> IdentityReport:
    """Exact check of T^3 = 6*G - 3*T^(2)*T - 2*T^(3) + 6n*T."""
    G = T.group
    expected = group_order_r3(n)
    if G.order != expected:
        raise ValueError(f"group order {G.order} does not match the radius-3 order {expected}")
    lhs = T * T * T
    rhs = (
        6 * all_ones(G)
        - 3 * (power_map(T, 2) * T)
        - 2 * power_map(T, 3)
        + (6 * n) * T
    )
    return _compare(lhs, rhs)


def _compare(lhs: GroupRingElement, rhs: GroupRingElement) -> IdentityReport:
    for i, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return IdentityReport(False, (lhs.group.unindex(i), a, b))
    return IdentityReport(True)
