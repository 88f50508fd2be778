"""Acceptance gate: one test per numbered criterion, exact tolerances.

Each test prints a PASS line on success (run with -s or -rA to see them).
Three assertions are expected to fail and are documented where they fail:

* criterion 6, N = 500: our criteria soundly exclude three dimensions the
  published combined column does not count (borderline unit-group-invariant
  instances), so the exact published value 462 is not reproducible without
  suppressing sound exclusions; every directly-pinned component (N = 100
  value, per-criterion tables, attribution) matches exactly.
* criterion 7, optional 10^5 long run: the published 28267 matches no
  reconstructable convention (required scales 10..10^4 match exactly).
* criterion 9, (v, p) = (13, 11): the residue class n = 2 (mod 11) provably
  cannot be emptied - it contains n = 2, where a perfect code exists, so
  the witness shadow survives every sound projected condition.
"""

import time

import pytest

from leeperfect import nt, radius2, radius3, survey
from leeperfect.geometry import group_order_r2, group_order_r3, verify_witness
from leeperfect.groupring import build_T, verify_r2_identity, verify_r3_identity
from leeperfect.oracle import oracle_verdict
from leeperfect.outcomes import Caps, Status
from leeperfect.reference import OPEN_SET_R2_100
from witness_classes import cyclic_witness_equivalent

CAPS = Caps()


@pytest.fixture(scope="module")
def audit_3_100():
    return survey.scan(2, 3, 100, CAPS, early_exit=False)


@pytest.fixture(scope="module")
def audit_101_500():
    return survey.scan(2, 101, 500, CAPS, early_exit=False)


def test_criterion_1_witness_2_2():
    t0 = time.perf_counter()
    res = oracle_verdict(2, 2, CAPS)
    dt = time.perf_counter() - t0
    assert res.exists
    w = res.witness
    assert w.group.cyclic_orders == (13,)
    assert verify_witness(w).ok
    assert verify_r2_identity(build_T(w.group, w.generators), 2).holds
    assert cyclic_witness_equivalent(13, [g[0] for g in w.generators], [1, 5])
    assert dt < 1.0, f"witness search took {dt:.2f}s (budget 1s)"
    print(f"\nPASS criterion 1: C13 witness {w.generators} found and verified in {dt:.3f}s")


def test_criterion_2_exhaustive_3_2():
    t0 = time.perf_counter()
    res = oracle_verdict(3, 2, CAPS)
    dt = time.perf_counter() - t0
    assert res.kind == "not_exists"
    assert set(res.searched) == {(25,), (5, 5)}
    assert dt < 60.0
    print(f"\nPASS criterion 2: (3,2) exhausted over C25 and C5xC5 in {dt:.3f}s")


def test_criterion_3_witness_2_3():
    t0 = time.perf_counter()
    res = oracle_verdict(2, 3, CAPS)
    dt = time.perf_counter() - t0
    assert res.exists
    w = res.witness
    assert verify_witness(w).ok
    assert verify_r3_identity(build_T(w.group, w.generators), 2).holds
    assert cyclic_witness_equivalent(25, [g[0] for g in w.generators], [1, 7])
    assert dt < 60.0
    print(f"\nPASS criterion 3: C25 witness {w.generators} found and verified in {dt:.3f}s")


def test_criterion_4_appendix_table(audit_3_100):
    t0 = time.perf_counter()
    cmp = survey.reproduce_table(CAPS, verdicts=audit_3_100)
    dt = time.perf_counter() - t0
    assert not cmp.disagreements, cmp.disagreements
    assert cmp.open_set == set(OPEN_SET_R2_100)
    assert not cmp.attribution_mismatches, cmp.attribution_mismatches
    ext = {v.n: v.citation for v in cmp.verdicts if v.overall == "externally_known"}
    assert ext == {3: "H09E", 10: "HG14"}
    print(f"\nPASS criterion 4: all 98 rows match; open set {sorted(cmp.open_set)}; "
          f"attribution exact for kim and small_v ({dt:.1f}s on precomputed audit)")


@pytest.mark.parametrize(
    "upto,expected",
    [(10, 5), (100, 68), (1000, 713), (10_000, 7147)],
)
def test_criterion_5_power_sum_table(upto, expected):
    ct = survey.counts(2, upto, ["kim"], CAPS)
    assert ct.total == expected
    print(f"\nPASS criterion 5 (kim): N={upto} -> {ct.total}")


@pytest.mark.parametrize(
    "upto,union,per_v",
    [
        (10, 1, (1, 0, 0)),
        (100, 38, (27, 8, 8)),
        (1000, 499, (356, 129, 108)),
        (10_000, 5332, (3857, 1458, 1142)),
    ],
)
def test_criterion_5_small_divisor_table(upto, union, per_v):
    ct = survey.counts(2, upto, ["small_v"], CAPS)
    assert ct.total == union
    assert (ct.per_small_divisor[5], ct.per_small_divisor[13], ct.per_small_divisor[17]) == per_v
    print(f"\nPASS criterion 5 (small_v): N={upto} -> {ct.total} {ct.per_small_divisor}")


@pytest.mark.slow
def test_criterion_5_long_run_100k():
    assert survey.counts(2, 100_000, ["kim"], CAPS).total == 71254
    ct = survey.counts(2, 100_000, ["small_v"], CAPS)
    assert ct.total == 54606
    assert (ct.per_small_divisor[5], ct.per_small_divisor[13], ct.per_small_divisor[17]) == (
        39537, 15126, 11659)
    print("\nPASS criterion 5 (optional long run): N=10^5 tables exact")


def test_criterion_6_combined_100(audit_3_100):
    ct = survey.counts(2, 100, None, CAPS, include_external=True, verdicts=audit_3_100)
    assert ct.total == 90
    print(f"\nPASS criterion 6 (N=100): combined criteria + external registry -> {ct.total}")


def test_criterion_6_combined_500(audit_3_100, audit_101_500):
    verdicts = list(audit_3_100) + list(audit_101_500)
    ct = survey.counts(2, 500, None, CAPS, include_external=True, verdicts=verdicts)
    # Our engine soundly excludes three dimensions beyond the published
    # combined column (borderline lambda instances with p = 1 mod v and
    # two further set-membership differences above n = 100); the published
    # exact value is asserted here per the acceptance statement and the
    # discrepancy analysis lives in the decisions ledger and README.
    print(f"\ncriterion 6 (N=500): combined criteria + external registry -> {ct.total} "
          f"(published: 462)")
    assert ct.total == 462, (
        f"combined count {ct.total} != published 462: this engine also excludes "
        "dimensions the published tally leaves open (sound lambda instances; "
        "see the known-limitation notes)"
    )


@pytest.mark.parametrize(
    "upto,expected",
    [(10, 1), (100, 20), (1000, 256), (10_000, 2763)],
)
def test_criterion_7_radius3_table(upto, expected):
    ct = survey.counts(3, upto, ["square24"], CAPS)
    assert ct.total == expected
    print(f"\nPASS criterion 7: radius-3 N={upto} -> {ct.total}")


@pytest.mark.slow
def test_criterion_7_long_run_100k():
    """Expected failure: the published 10^5 value is 28267, but no
    reconstructable convention yields it.  The derivation-consistent square
    test (the one validated against every required scale 10..10^4) gives
    28276; evaluating the square branch on the literal published display
    (squaring 24n+1) gives 28571 and already breaks the small scales.  The
    nine-dimension residual is documented as a published-tally artifact."""
    total = survey.counts(3, 100_000, ["square24"], CAPS).total

    # independent recount, straight from the criterion's arithmetic
    def direct_count(upto):
        k = 0
        for n in range(3, upto + 1):
            if n % 7 not in (1, 5):
                continue
            c = nt.is_perfect_square(24 * n + 1)
            if c is None:
                k += 1
            elif (c * c + 6 * c + 29) % 84 and (c * c - 6 * c + 29) % 84:
                k += 1
        return k

    assert total == direct_count(100_000)
    print(f"\ncriterion 7 (optional long run): N=10^5 -> {total} (published: 28267)")
    assert total == 28267, (
        f"radius-3 count at 10^5 is {total}, published value 28267 is not "
        "reproducible under any reconstructable convention (see ledger); the "
        "required scales 10..10^4 all match exactly"
    )


def test_criterion_8_worked_example_102():
    t0 = time.perf_counter()
    out = radius2.lambda_check(102, 21013, 3, CAPS)
    dt = time.perf_counter() - t0
    assert out.status is Status.EXCLUDED
    assert out.params["lambda"] == 1
    assert dt < 300
    print(f"\nPASS criterion 8a: n=102 -> lambda=1 exclusion at (21013, 3) in {dt:.2f}s")


def test_criterion_8_worked_example_14():
    t0 = time.perf_counter()
    cert = radius2.lambda_value(14, 421, 7, CAPS)
    assert cert.lam == 3
    out = radius2.field_check(14, 421, 7, CAPS, cert)
    dt = time.perf_counter() - t0
    assert out.status is Status.EXCLUDED
    assert all(not c["passes"] for c in out.certificate["candidates"])
    assert dt < 300
    print(f"\nPASS criterion 8b: n=14 -> lambda=3, no admissible x in F_7^35 "
          f"({out.certificate['f']}-degree field) in {dt:.2f}s")


def _first_qualifying_r2(v, p, cls):
    n = 3
    while True:
        if group_order_r2(n) % v == 0 and n % p == cls:
            sq, vk2 = radius2.quadratic_preconditions(n, v)
            if sq is None and not (v == 13 and vk2):
                return n
        n += 1


def test_criterion_9_orbit_17_3():
    for cls in range(3):
        n = _first_qualifying_r2(17, 3, cls)
        t0 = time.perf_counter()
        out = radius2.orbit_check(n, 17, CAPS)
        dt = time.perf_counter() - t0
        assert out.status is Status.EXCLUDED, (cls, n, out.reason)
        assert not out.certificate["unexplained"], (cls, n)
        assert dt < 300
    print("\nPASS criterion 9 (17,3): zero unconditional survivors in all 3 classes")


def test_criterion_9_orbit_13_11():
    """Expected failure at class 2 (mod 11): that class contains n=2, where a
    perfect code exists, so its witness shadow provably survives every sound
    projected condition; see the ledger and README."""
    failures = []
    for cls in range(11):
        n = _first_qualifying_r2(13, 11, cls)
        t0 = time.perf_counter()
        out = radius2.orbit_check(n, 13, CAPS)
        dt = time.perf_counter() - t0
        assert dt < 300
        if out.certificate.get("unexplained"):
            failures.append((cls, n, len(out.certificate["unexplained"])))
    print(f"\ncriterion 9 (13,11): unexplained survivors per class: {failures or 'none'}")
    assert not failures, (
        f"classes with unconditional survivors: {failures} - class 2 cannot be "
        "emptied (contains the n=2 witness shadow); documented known limitation"
    )


def test_criterion_9_orbit_13_11_attainable_classes():
    """Regression guard for the ten classes that do reproduce."""
    for cls in range(11):
        if cls == 2:
            continue
        n = _first_qualifying_r2(13, 11, cls)
        out = radius2.orbit_check(n, 13, CAPS)
        assert out.status is Status.EXCLUDED, (cls, n, out.reason)
        assert not out.certificate["unexplained"], (cls, n)
    print("\nPASS criterion 9 (13,11): zero unconditional survivors in the 10 attainable classes")


def test_criterion_9_orbit_r3():
    expected = {0: [4], 1: [1, 4], 2: [], 3: [3], 4: []}
    for cls, values in expected.items():
        n = 3
        while True:
            if n % 7 in (1, 5) and n % 5 == cls and group_order_r3(n) % 7 == 0 \
                    and radius3.trivial_solution_gate(n, 7).passed:
                break
            n += 1
        t0 = time.perf_counter()
        out = radius3.orbit_check_r3(n, CAPS)
        dt = time.perf_counter() - t0
        assert out.status is Status.EXCLUDED, (cls, n)
        assert not out.certificate["unexplained"]
        assert out.certificate["nontrivial_point_values"] == values, (cls, n)
        assert dt < 300
    # the class-0 behavior: reconstruction value 4 against required 1
    n0 = 50
    out = radius3.orbit_check_r3(n0, CAPS)
    assert out.certificate["nontrivial_point_values"] == [4]
    assert out.certificate["expected_coefficient_sum"] == 1
    print("\nPASS criterion 9 (7,5): per-class survivor counts and failing values "
          "reproduce (class 0: value 4 != 1)")


def test_criterion_10_selftest():
    from leeperfect.selftest import run_selftest

    lines = []
    t0 = time.perf_counter()
    ok = run_selftest(CAPS, log=lines.append)
    dt = time.perf_counter() - t0
    assert ok, "\n".join(lines)
    assert dt < 600, f"selftest took {dt:.0f}s (budget 600s)"
    print("\n".join(lines))
    print(f"PASS criterion 10: property suites green in {dt:.0f}s")


def test_criterion_10_inconsistency_exit_code(monkeypatch):
    import leeperfect.cli as cli
    import leeperfect.selftest as st

    monkeypatch.setattr(st, "run_selftest", lambda caps, log=print: False)
    assert cli.main(["selftest"]) == cli.EXIT_INCONSISTENT

    # the coupling guard raises, and the CLI maps it to the same exit code
    v = survey.check(4, 2, CAPS)
    with pytest.raises(survey.InternalInconsistencyError):
        survey.assert_oracle_coupling(v, oracle_exists=True)
    print("\nPASS criterion 10 (exit wiring): inconsistency maps to exit code 2")
