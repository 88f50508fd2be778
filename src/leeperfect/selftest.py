"""Property suites wired behind the `selftest` command.

Each suite checks a piece of the engine against an independent method
(brute-force gcd over exponent pairs, class values of known elements fed
to the orbit search's own Fourier inversion, CosineField.coefficients,
direct sphere enumeration, trial division against the order sieve,
exhaustive witness search).  A failure of
the criterion-vs-oracle coupling raises InternalInconsistencyError, which
the command line maps to its dedicated exit code.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from . import geometry, nt, radius2, radius3, survey
from .geometry import enumerate_sphere, sphere_size
from .groupring import AbelianGroup, GroupRingElement, power_map
from .oracle import oracle_verdict
from .orbitfield import CosineField
from .outcomes import Caps, DEFAULT_CAPS, InternalInconsistencyError


def _lambda_suite(log: Callable[[str], None], caps: Caps) -> bool:
    """radius2.lambda_chain, the reduced-basis lambda that lambda_check and
    field_check run, equals the brute-force pair gcd for every prime v < 500
    and prime p < 50 for which 2 and p generate the units mod v."""
    checked = 0
    for v in range(5, 500):
        if not nt.is_prime(v):
            continue
        vfac = nt.factorize(v - 1)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if p == v:
                continue
            h2, hp, *_, lam = radius2.lambda_chain(v, p, vfac)
            if math.lcm(h2, hp) != v - 1:  # 2 and p do not generate the units
                continue
            brute = radius2.lambda_bruteforce(v, p)
            if lam != brute:
                log(f"  mismatch at (v={v}, p={p}): reduced basis {lam} vs brute {brute}")
                return False
            checked += 1
    log(f"  {checked} (v, p) pairs agree with the brute-force gcd")
    return True


def _inversion_suite(log, caps) -> bool:
    """orbitfield.CosineField.coefficients, the inversion behind every orbit
    survivor's principal-point value, rebuilds random symmetric elements A of
    Z[C_v] mod p from their class values chi_j(A) = a_0 + sum_g a_g c_(jg)
    on the three validated instances; the all-ones element has class
    values 0 and is rebuilt as all ones."""
    rng = nt.seeded_rng(7, "selftest-inversion")
    instances = (*radius2.ORBIT_INSTANCES.items(), radius3.ORBIT_INSTANCE)
    for v, p in instances:
        F = CosineField(p, v)
        half = F.deg

        def class_values(a):
            # of the symmetric A with a_g = a_(v-g), from a_0..a_half
            return {
                j: (F.scalar_vec(a[0])
                    + sum(a[g] * F.cosines[j * g % v] for g in range(1, half + 1)))[None, :] % p
                for j in range(1, half + 1)
            }

        for _ in range(5):
            a = [rng.randrange(-9, 10) for _ in range(half + 1)]
            coeffs = a + a[:0:-1]
            if F.coefficients(class_values(a), sum(coeffs)) != [c % p for c in coeffs]:
                log(f"  inversion failed at (v={v}, p={p})")
                return False
        values = class_values([1] * (half + 1))
        if any(x.any() for x in values.values()) or F.coefficients(values, v) != [1] * v:
            log(f"  all-ones element not inverted to all ones at (v={v}, p={p})")
            return False
    log(f"  CosineField.coefficients inverts class values at {', '.join(map(str, instances))}")
    return True


def _power_map_suite(log, caps) -> bool:
    rng = nt.seeded_rng(11, "selftest-powermap")
    for G in (AbelianGroup.cyclic(13), AbelianGroup.cyclic(25), AbelianGroup.of([5, 5])):
        for t in range(1, G.exponent):
            if math.gcd(t, G.exponent) != 1:
                continue
            for _ in range(3):
                a = GroupRingElement(G, [rng.randrange(-3, 4) for _ in range(G.order)])
                b = GroupRingElement(G, [rng.randrange(-3, 4) for _ in range(G.order)])
                if power_map(a * b, t) != power_map(a, t) * power_map(b, t):
                    log(f"  power map not multiplicative for t={t} over {G.describe()}")
                    return False
    log("  power maps are ring homomorphisms for t coprime to the exponent")
    return True


def _sphere_suite(log, caps) -> bool:
    """Sphere sizes against direct enumeration, and the engine's group
    orders (geometry.group_order_r2/r3) against the sphere sizes."""
    for n in range(7):
        for r in range(7):
            if len(enumerate_sphere(n, r)) != sphere_size(n, r):
                log(f"  sphere count mismatch at (n={n}, r={r})")
                return False
    for n in range(10_001):
        orders = geometry.group_order_r2(n), geometry.group_order_r3(n)
        if orders != (sphere_size(n, 2), sphere_size(n, 3)):
            log(f"  group order mismatch at n={n}")
            return False
    log("  sphere sizes match enumeration (n, r <= 6) and the order polynomials (n <= 10^4)")
    return True


def _factor_suite(log, caps) -> bool:
    """geometry.factor_orders, the root sieve scan and check factor the
    orders with, equals nt.factorize of each order, trial division and all."""
    for r, order in ((2, geometry.group_order_r2), (3, geometry.group_order_r3)):
        for lo, hi in ((2, 2000), (90_000, 90_200)):
            for n, fac in zip(range(lo, hi + 1), geometry.factor_orders(r, lo, hi)):
                if fac != nt.factorize(order(n)):
                    log(f"  factor_orders differs from factorize at (n={n}, r={r})")
                    return False
    log("  factor_orders equals factorize on 2..2000 and 90000..90200 at radii 2 and 3")
    return True


def _coupling_suite(log, caps: Caps) -> bool:
    """Known-witness dimensions must never be excluded by any criterion."""
    for n, r in ((1, 2), (2, 2), (2, 3)):
        res = oracle_verdict(n, r, caps)
        if not res.exists:
            log(f"  expected a witness at (n={n}, r={r})")
            return False
        if r == 2 and n >= 2:
            verdict = survey.check(n, r, caps, early_exit=False)
            survey.assert_oracle_coupling(verdict, res.exists)
    exhausted = oracle_verdict(3, 2, caps)
    if exhausted.kind != "not_exists":
        log("  exhaustive (3, 2) search did not report nonexistence")
        return False
    log("  witnesses found at (1,2), (2,2), (2,3); no criterion excludes them; (3,2) exhausts")
    return True


# every suite is called as suite(log, caps), in this order
SUITES = {
    "lambda": _lambda_suite,
    "inversion": _inversion_suite,
    "power_map": _power_map_suite,
    "sphere": _sphere_suite,
    "factor": _factor_suite,
    "coupling": _coupling_suite,
}


def run_selftest(caps: Caps = DEFAULT_CAPS, log: Callable[[str], None] = print) -> bool:
    """Run every property suite; prints one pass/fail line per suite."""
    ok_all = True
    for name, suite in SUITES.items():
        t0 = time.perf_counter()
        ok = suite(log, caps)
        dt = time.perf_counter() - t0
        log(f"{'PASS' if ok else 'FAIL'} selftest:{name} ({dt:.1f}s)")
        ok_all = ok_all and ok
    return ok_all
