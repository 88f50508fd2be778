"""Arbitrary-precision integer number theory.

Primality, factorization, multiplicative orders, square roots mod a prime,
perfect squares and discrete logarithms.  Factorization trial-divides by the
primes below 10^4 (sieved once at import) and hands the cofactor to
complete_factorization, the one tail of every factorization: a cofactor
below 10^8 is prime, and only a larger one runs Miller-Rabin and Pollard
rho.  geometry.factor_orders finds the small primes of the tiling orders by
a sieve over square roots mod q (sqrt_mod) instead of trial division, and
ends in the same tail.  Everything here is exact; the only randomness
(Pollard rho, extra Miller-Rabin rounds above the deterministic range) is
drawn from generators seeded deterministically per call site, so runs are
reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Optional

# Witnesses proving primality for every n < 3.317e24 (Sorenson-Webster).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PROBABILISTIC_ROUNDS = 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_TRIAL_DIVISION_BOUND = 10_000


def _primes_below(bound: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return tuple(p for p in range(bound) if sieve[p])


TRIAL_PRIMES = _primes_below(_TRIAL_DIVISION_BOUND)


class BudgetExceeded(Exception):
    """A configured resource budget ran out before the answer was certain."""


def seeded_rng(seed: int, *tags) -> random.Random:
    """Deterministic per-purpose RNG: independent of call order across sites."""
    h = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return random.Random(int.from_bytes(h[:16], "big"))


def _mr_witness_composite(n: int, a: int) -> bool:
    """True if a witnesses the compositeness of odd n > 2."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a % n, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, seed: int = 0) -> bool:
    """Primality: deterministic below 3.3e24, 64 seeded MR rounds above."""
    ok, _ = is_prime_certified(n, seed)
    return ok


def is_prime_certified(n: int, seed: int = 0) -> tuple[bool, bool]:
    """(is_prime, deterministic).  deterministic=False only above 3.3e24."""
    if n < 2:
        return False, True
    for p in _SMALL_PRIMES:
        if n == p:
            return True, True
        if n % p == 0:
            return False, True
    if n < _MR_DETERMINISTIC_BOUND:
        for a in _MR_WITNESSES:
            if _mr_witness_composite(n, a):
                return False, True
        return True, True
    rng = seeded_rng(seed, "miller-rabin", n)
    for _ in range(_PROBABILISTIC_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _mr_witness_composite(n, a):
            return False, True
    return True, False


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of n into strictly increasing prime powers."""

    n: int
    factors: tuple[tuple[int, int], ...]
    deterministic: bool = True

    def __post_init__(self):
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factorization of {self.n} does not recompose")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def _pollard_brent(n: int, rng: random.Random, budget: list[int]) -> int:
    """One nontrivial factor of composite non-prime-power n, or raises."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] < 0:
                    raise BudgetExceeded(f"factor budget exhausted on {n}")
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceeded(f"factor budget exhausted on {n}")
        if g != n:
            return g


def factorize(n: int, budget: Optional[int] = None, seed: int = 0) -> Factorization:
    """Complete factorization; raises BudgetExceeded rather than guessing.

    Trial division by the primes below 10^4, then complete_factorization
    of the cofactor.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors: dict[int, int] = {}
    m = n
    for p in TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    return complete_factorization(n, factors, m, budget, seed)


def complete_factorization(
    n: int, small: dict[int, int], m: int, budget: Optional[int] = None, seed: int = 0,
) -> Factorization:
    """The factorization of n = m * prod(p^e for p, e in small), where small
    holds primes below 10^4 and m is 1, a prime, or free of primes below 10^4.

    A cofactor m below 10^8 is 1 or prime (the least composite without a
    factor below 10^4 is 10007^2).  A larger one goes to Miller-Rabin, the
    perfect-power check and Pollard-Brent rho with seeded restarts, tagged
    with n; the rho rng is built only then.  The budget counts rho
    iterations across the call.
    """
    factors = dict(small)
    deterministic = True
    if m < _TRIAL_DIVISION_BOUND * _TRIAL_DIVISION_BOUND:
        if m > 1:
            factors[m] = 1
        return Factorization(n, tuple(sorted(factors.items())), deterministic)
    budget_box = [budget if budget is not None else 10**7]
    stack = [m]
    rng = None
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        prime, det = is_prime_certified(m, seed)
        deterministic = deterministic and det
        if prime:
            factors[m] = factors.get(m, 0) + 1
            continue
        # perfect power check keeps rho away from p^k inputs it handles badly
        for k in range(2, m.bit_length() + 1):
            r = _iroot(m, k)
            if r**k == m:
                stack.extend([r] * k)
                break
        else:
            if rng is None:
                rng = seeded_rng(seed, "pollard", n)
            d = _pollard_brent(m, rng, budget_box)
            stack.extend([d, m // d])
    return Factorization(n, tuple(sorted(factors.items())), deterministic)


def sqrt_mod(a: int, q: int) -> Optional[int]:
    """A square root of a modulo the odd prime q (Tonelli-Shanks), or None
    when a is not a square mod q."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    s, d = 0, q - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    z = 2
    while pow(z, (q - 1) // 2, q) == 1:
        z += 1
    c, t, root = pow(z, d, q), pow(a, d, q), pow(a, (d + 1) // 2, q)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % q
        b = pow(c, 1 << (s - i - 1), q)
        s, c, t, root = i, b * b % q, t * b * b % q, root * b % q
    return root


def _iroot(n: int, k: int) -> int:
    if k == 1:
        return n
    if n < (1 << 52):
        return round(n ** (1.0 / k))
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def is_perfect_square(n: int) -> Optional[int]:
    """The integer square root c with c*c == n, or None."""
    if n < 0:
        return None
    c = math.isqrt(n)
    return c if c * c == n else None


def mult_order(a: int, modulus: int, group_order: Optional[Factorization] = None) -> int:
    """Least k >= 1 with a^k = 1 (mod modulus).

    The group order is factored (modulus-1 for prime modulus, Euler phi
    otherwise) and primes are divided out of the exponent one at a time.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible mod {modulus}")
    if group_order is None:
        if is_prime(modulus):
            group_order = factorize(modulus - 1)
        else:
            phi = 1
            for p, e in factorize(modulus).factors:
                phi *= (p - 1) * p ** (e - 1)
            group_order = factorize(phi)
    order = group_order.n
    for q, _ in group_order.factors:
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order


def discrete_log(base: int, target: int, modulus: int, order: int) -> Optional[int]:
    """Least j in [0, order) with base^j = target (mod modulus), via BSGS.

    O(sqrt(order)) time and space.  None if target is outside <base>.
    """
    base %= modulus
    target %= modulus
    if target == 1:
        return 0
    m = math.isqrt(order) + 1
    table: dict[int, int] = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * base % modulus
    # giant steps raise j = i*m + table[cur], and the table keeps the least
    # baby step of each value, so the first hit is the least exponent
    giant = pow(base, -m, modulus)
    cur = target
    for i in range(m + 1):
        if cur in table:
            j = i * m + table[cur]
            return j if j < order else None
        cur = cur * giant % modulus
    return None


def discrete_log_factored(
    base: int, target: int, modulus: int, order_fac: Factorization
) -> Optional[int]:
    """discrete_log with the order's factorization known: Pohlig-Hellman
    reduction to prime-order subgroups, each solved by BSGS.  Much faster
    than plain BSGS when the order has several prime factors."""
    order = order_fac.n
    base %= modulus
    target %= modulus
    if pow(target, order, modulus) != 1:
        return None  # outside <base>
    residues: list[int] = []
    mods: list[int] = []
    for q, e in order_fac.factors:
        qe = q**e
        b_i = pow(base, order // qe, modulus)
        t_i = pow(target, order // qe, modulus)
        gamma = pow(b_i, qe // q, modulus)  # exact order q
        x_i = 0
        for k in range(e):
            h = pow(t_i * pow(b_i, -x_i, modulus) % modulus, qe // q ** (k + 1), modulus)
            d = discrete_log(gamma, h, modulus, q)
            if d is None:
                return None
            x_i += d * q**k
        residues.append(x_i)
        mods.append(qe)
    x, m = 0, 1
    for r, qe in zip(residues, mods):
        # coprime CRT combine
        diff = (r - x) % qe
        x += m * (diff * pow(m, -1, qe) % qe)
        m *= qe
    return x % order
