"""Verdict aggregation, range scans, count tables, and report files.

check() runs every applicable criterion for one (n, r) and folds the
outcomes into a Verdict; scan() maps it over a range (optionally across a
process pool, whose map keeps job order whatever the scheduling);
counts() tallies exclusions for chosen criterion subsets; and
reproduce_table() compares a full radius-2 sweep against the published
attribution table.  Reports serialize to JSON (full certificates) or CSV
(one row per dimension) and parse back losslessly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import nt, radius2, radius3
from .geometry import factor_orders, group_order_r2, group_order_r3
from .outcomes import (
    Caps,
    CriterionOutcome,
    DEFAULT_CAPS,
    InternalInconsistencyError,
    Status,
    Tier,
)
from .reference import ATTRIBUTION, EXTERNAL_REGISTRY

VERSION = "0.1.0"

R2_CRITERIA = ("kim", "small_v", "lambda", "field", "orbit")
R3_CRITERIA = ("square24", "orbit_r3")
# the order function and the criteria of each radius; radius r starts at n = r
_RADII = {2: (group_order_r2, R2_CRITERIA), 3: (group_order_r3, R3_CRITERIA)}


@dataclass
class Verdict:
    """Full decision record for one (n, r)."""

    n: int
    r: int
    order: int
    factorization: dict[int, int]
    outcomes: list[CriterionOutcome]
    overall: str  # "excluded" | "open" | "externally_known"
    tier: Optional[Tier] = None
    excluded_by: Optional[str] = None
    citation: Optional[str] = None

    @property
    def excluded(self) -> bool:
        return self.overall == "excluded"

    def fired(self) -> list[str]:
        return [o.criterion for o in self.outcomes if o.excluded]

    def skips(self) -> list[str]:
        return [o.criterion for o in self.outcomes if o.status is Status.SKIPPED]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "order": self.order,
            "factorization": {str(k): v for k, v in self.factorization.items()},
            "outcomes": [o.to_json() for o in self.outcomes],
            "overall": self.overall,
            "tier": self.tier.value if self.tier else None,
            "excluded_by": self.excluded_by,
            "citation": self.citation,
        }

    @staticmethod
    def from_json(d: dict) -> "Verdict":
        return Verdict(
            n=d["n"],
            r=d["r"],
            order=d["order"],
            factorization={int(k): v for k, v in d["factorization"].items()},
            outcomes=[CriterionOutcome.from_json(o) for o in d["outcomes"]],
            overall=d["overall"],
            tier=Tier(d["tier"]) if d.get("tier") else None,
            excluded_by=d.get("excluded_by"),
            citation=d.get("citation"),
        )


def _aggregate(n: int, r: int, order: int, fac: dict[int, int],
               outcomes: list[CriterionOutcome]) -> Verdict:
    """The first exclusion of the strongest tier decides: the first
    unconditional one, else the first cited one; none leaves n open."""
    by = min((o for o in outcomes if o.excluded), key=lambda o: o.tier is not Tier.UNCONDITIONAL,
             default=None)
    if by is None:
        return Verdict(n, r, order, fac, outcomes, "open")
    return Verdict(n, r, order, fac, outcomes, "excluded", by.tier, by.criterion)


def _selected_criteria(r: int, criteria: Optional[Iterable[str]]) -> tuple[str, ...]:
    """The criteria to run at radius r, all of them by default.  A name that
    is unknown or belongs to the other radius is a ValueError."""
    if r not in _RADII:
        raise ValueError("radius must be 2 or 3")
    allowed = _RADII[r][1]
    sel = allowed if criteria is None else tuple(criteria)
    wrong = [c for c in sel if c not in allowed]
    if wrong:
        raise ValueError(f"no radius-{r} criterion named {', '.join(wrong)} "
                         f"(choose from {', '.join(allowed)})")
    return sel


class _EarlyExit(Exception):
    """check's run() found the first selected exclusion under early_exit."""


def check(
    n: int, r: int, caps: Caps = DEFAULT_CAPS, early_exit: bool = False,
    criteria: Optional[Iterable[str]] = None,
    *, _factored: nt.Factorization | nt.BudgetExceeded | None = None,
) -> Verdict:
    """Run the criterion chain for one dimension.

    Radius 2: kim, small_v, then per (v, p) lambda and field, then the orbit
    instances for v in {13, 17}.  Radius 3: square24 then the v=7 orbit.  A
    criteria subset restricts which outcomes are recorded (count tables use
    this); lambda still runs to gate field when only field is selected.  A
    criterion that runs out of budget is recorded as skipped.  With
    early_exit the chain stops at the first recorded exclusion (scans
    default to that; single checks keep the full audit trail).  The verdict
    goes to the first exclusion of the strongest tier (_aggregate).  The
    order is factored by factor_orders(r, n, n); scan passes in `_factored`,
    the entry for n of its own factor_orders call over the range.
    """
    selected = set(_selected_criteria(r, criteria))
    if n < r:
        raise ValueError(f"radius {r} needs n >= {r}")
    order = _RADII[r][0](n)
    fac = _factored
    if fac is None:
        fac = factor_orders(r, n, n, caps.factor_budget, caps.seed)[0]
    if isinstance(fac, nt.BudgetExceeded):
        out = CriterionOutcome("factorization", Status.SKIPPED, reason=str(fac))
        return _aggregate(n, r, order, {}, [out])
    outcomes: list[CriterionOutcome] = []

    def run(name, fn, *args) -> CriterionOutcome:
        try:
            out = fn(*args)
        except nt.BudgetExceeded as e:
            out = CriterionOutcome(name, Status.SKIPPED, reason=str(e))
        if name in selected:
            outcomes.append(out)
            if out.excluded and early_exit:
                raise _EarlyExit
        return out

    # each criterion is looked up in its module at call time, so that a
    # wrapper patched onto the module attribute (bench/spans.py) sees it
    with contextlib.suppress(_EarlyExit):
        if r == 2:
            if "kim" in selected:
                run("kim", radius2.kim_check, n, caps, fac)
            if "small_v" in selected:
                run("small_v", radius2.small_v_check, n)
            if "lambda" in selected or "field" in selected:
                p_divs = nt.factorize(2 * n, budget=caps.factor_budget, seed=caps.seed).primes()
                for v in fac.primes():
                    for p in p_divs:
                        lam_out = run("lambda", radius2.lambda_check, n, v, p, caps)
                        if "field" in selected and lam_out.status is Status.UNDECIDED:
                            cert = radius2.LambdaCertificate(**lam_out.certificate)
                            run("field", radius2.field_check, n, v, p, caps, cert)
            if "orbit" in selected:
                for v in radius2.ORBIT_INSTANCES:
                    if order % v == 0:
                        run("orbit", radius2.orbit_check, n, v, caps)
        else:
            if "square24" in selected:
                run("square24", radius3.square24_check, n)
            if "orbit_r3" in selected and order % radius3.ORBIT_INSTANCE[0] == 0:
                run("orbit_r3", radius3.orbit_check_r3, n, caps)
    return _aggregate(n, r, order, fac.as_dict(), outcomes)


def _scan_one(args) -> Verdict:
    n, r, caps, early_exit, criteria, fac = args
    return check(n, r, caps, early_exit, criteria, _factored=fac)


def scan(
    r: int, frm: int, to: int, caps: Caps = DEFAULT_CAPS, early_exit: bool = True,
    criteria: Optional[Iterable[str]] = None,
) -> list[Verdict]:
    """Verdicts for frm <= n <= to, ordered by n regardless of scheduling.
    The orders of the whole range are factored by one factor_orders call."""
    if frm > to:
        raise ValueError("empty range")
    lo = max(frm, r)
    sel = _selected_criteria(r, criteria)
    facs = factor_orders(r, lo, to, caps.factor_budget, caps.seed)
    jobs = [(n, r, caps, early_exit, sel, fac) for n, fac in zip(range(lo, to + 1), facs)]
    if caps.thread_count > 1:
        with ProcessPoolExecutor(max_workers=caps.thread_count) as pool:
            return list(pool.map(_scan_one, jobs, chunksize=16))
    return [_scan_one(j) for j in jobs]


@dataclass
class CountTable:
    """Exclusion tallies for a scan with a chosen criterion subset."""

    r: int
    upto: int
    criteria: tuple[str, ...]
    total: int
    per_criterion: dict[str, int]
    per_small_divisor: dict[int, int]
    include_external: bool
    capped: list[int]  # dimensions with a skipped selected criterion or factorization


def counts(
    r: int,
    upto: int,
    criteria: Optional[Iterable[str]] = None,
    caps: Caps = DEFAULT_CAPS,
    include_external: bool = False,
    verdicts: Optional[Sequence[Verdict]] = None,
) -> CountTable:
    """Count dimensions up to `upto` with at least one exclusion among the
    selected criteria.  Small-divisor counts are also broken down per v."""
    sel = _selected_criteria(r, criteria or None)
    if verdicts is None:
        verdicts = scan(r, r, upto, caps, early_exit=False, criteria=sel)
    total = 0
    per_criterion = {c: 0 for c in sel}
    per_v = dict.fromkeys(radius2.SMALL_DIVISORS, 0)
    capped = []
    # an order that could not be factored leaves every selected criterion unrun
    skippers = {*sel, "factorization"}
    for v in verdicts:
        fired = set()
        for o in v.outcomes:
            if o.status is Status.SKIPPED and o.criterion in skippers:
                capped.append(v.n)
            if o.excluded and o.criterion in sel:
                fired.add(o.criterion)
                if o.criterion == "small_v":
                    for sv in o.certificate.get("fired", ()):
                        per_v[sv] += 1
        external = include_external and (v.n, r) in EXTERNAL_REGISTRY
        if fired or external:
            total += 1
        for c in fired:
            per_criterion[c] += 1
    return CountTable(r, upto, sel, total, per_criterion, per_v, include_external, sorted(set(capped)))


@dataclass
class TableComparison:
    """Row-by-row comparison of a radius-2 sweep against the published table."""

    agreements: list[int]
    disagreements: list[dict]
    cap_skips: list[int]
    open_set: set[int]
    attribution_mismatches: list[dict]
    verdicts: list[Verdict]

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.attribution_mismatches


def reproduce_table(caps: Caps = DEFAULT_CAPS,
                    verdicts: Optional[Sequence[Verdict]] = None) -> TableComparison:
    """Compare verdicts for 3 <= n <= 100 against the published attribution.

    Rows 3 and 10 resolve through the external registry.  Attribution is
    checked for the kim and small_v families (the published table pins
    those); the character family is compared at whole-row granularity only.
    """
    if verdicts is None:
        verdicts = scan(2, 3, 100, caps, early_exit=False)
    agreements, disagreements, cap_skips = [], [], []
    attribution_mismatches = []
    open_set = set()
    compared = []
    for v in verdicts:
        if not 3 <= v.n <= 100:
            compared.append(v)
            continue
        expected = ATTRIBUTION[v.n]
        if v.skips():
            cap_skips.append(v.n)
        external = (v.n, 2) in EXTERNAL_REGISTRY
        if external:  # a relabelled copy; the caller's verdict stays as it was
            v = replace(v, overall="externally_known", citation=EXTERNAL_REGISTRY[(v.n, 2)])
        compared.append(v)
        expected_excluded = "open" not in expected and not external
        actually_excluded = bool(v.fired())
        row_ok = (actually_excluded == expected_excluded) if not external else not actually_excluded
        if not actually_excluded and not external:
            open_set.add(v.n)
        if row_ok:
            agreements.append(v.n)
        else:
            disagreements.append({
                "n": v.n, "expected": sorted(expected), "fired": v.fired(),
            })
        fired = set(v.fired())
        for family, ours in (("kim", "kim" in fired), ("small_v", "small_v" in fired)):
            published = family in expected
            if ours != published:
                attribution_mismatches.append({
                    "n": v.n, "family": family, "published": published, "computed": ours,
                })
    return TableComparison(
        agreements, disagreements, sorted(cap_skips), open_set,
        attribution_mismatches, compared,
    )


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def emit(verdicts: Sequence[Verdict], fmt: str, caps: Caps = DEFAULT_CAPS,
         path: Optional[str | Path] = None) -> str:
    """Serialize verdicts to 'json' or 'csv'; byte-identical for equal caps/seed."""
    if fmt == "json":
        doc = {
            "caps": caps.to_json(),
            "seed": caps.seed,
            "version": VERSION,
            "verdicts": [v.to_json() for v in verdicts],
        }
        with _unlimited_int_digits():
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "r", "order", "overall", "tier", "criteria_fired", "skips"])
        for v in verdicts:
            w.writerow([
                v.n, v.r, v.order, v.overall, v.tier.value if v.tier else "",
                "+".join(v.fired()), "+".join(v.skips()),
            ])
        text = buf.getvalue()
    else:
        raise ValueError("format must be 'json' or 'csv'")
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as e:
            raise OSError(f"could not write report to {path}: {e}") from e
    return text


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int/str digit limit (4300 by default): lambda
    certificates for p = 2 hold 2^l - 1, which passes it from n = 505 on."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def parse_report(text: str) -> tuple[Caps, list[Verdict]]:
    with _unlimited_int_digits():
        doc = json.loads(text)
    return Caps.from_json(doc["caps"]), [Verdict.from_json(d) for d in doc["verdicts"]]


# ---------------------------------------------------------------------------
# oracle coupling
# ---------------------------------------------------------------------------


def assert_oracle_coupling(verdict: Verdict, oracle_exists: bool):
    """A criterion exclusion for a dimension with a known witness is a bug."""
    if oracle_exists and verdict.fired():
        raise InternalInconsistencyError(
            f"criteria {verdict.fired()} exclude (n={verdict.n}, r={verdict.r}) "
            "although a code witness exists"
        )
