#!/usr/bin/env python3
"""The character-orbit searches behind the small-divisor theorems.

For a divisor v of the group order and a prime p primitive mod v, every
candidate value tau = chi(T) mod p lives in F_p[y]/Psi_v(y) (y plays the
role of zeta + zeta^{-1}).  The search keeps the candidates consistent
with the projected group-ring equation and the Frobenius action,
reconstructs the 0/1 coefficients through the inversion formula, and
classifies what survives.  At radius 2 those candidates are the roots of
one polynomial over F_p, found by root-finding instead of enumerating all
p^((v-1)/2) of them (the candidate counts printed below are the size of
the space the search covers):

  quadratic_factor_1/2 - roots of tau^2 -+ tau - (2n -+ 1); these are real
      possibilities mod p, disposed by the published square preconditions
      on 8n+1 and 8n-3 (the "cited" exclusion tier);
  other - shadows of the higher-degree resultant factors; the published
      computation kills them through the reconstruction value at the
      principal point.

The radius-3 analogue scans all 125 candidates of F_{5^3} for the v=7
quotient against the cubic system.
"""
from leeperfect import radius2, radius3

print("radius 2, (v, p) = (17, 3): candidates = F_3[y]/Psi_17, 3^8 = 6561")
for n in (27, 40, 23):  # one per residue class mod 3 (299 behaves like 23)
    out = radius2.orbit_check(n, 17)
    print(f"  n={n} (class {n % 3} mod 3): {out.status.value}"
          + (f" [{out.tier.value}]" if out.tier else ""))
    for s in out.certificate["survivors"]:
        print(f"      survivor {s['tau']}: {s['class']}, principal point "
              f"{s['principal_point_value']} (needs {out.certificate['expected_coefficient_sum']})")

print("\nradius 2, (v, p) = (13, 11): 11^6 = 1771561 candidates per class")
out = radius2.orbit_check(49, 13)
print(f"  n=49: {out.status.value} [{out.tier.value}] - "
      f"{out.certificate['survivor_count']} survivors, "
      f"{len(out.certificate['unexplained'])} unexplained")

print("  n=101 (class 2 mod 11): the one class the mod-11 data cannot empty -")
print("  it also contains n=2, where a perfect code exists:")
out = radius2.orbit_check(101, 13)
print(f"    {out.status.value}: {out.reason}")

print("\nradius 3, (v, p) = (7, 5): 125 candidates against the cubic system")
for n in (50, 36, 8):
    out = radius3.orbit_check_r3(n)
    c = out.certificate
    print(f"  n={n} (class {n % 5} mod 5): {out.status.value} [{out.tier.value}] - "
          f"{c['nontrivial_count']} nontrivial candidates, principal values "
          f"{c['nontrivial_point_values']} vs required {c['expected_coefficient_sum']}")
