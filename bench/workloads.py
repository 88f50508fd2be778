"""The four benchmark workloads, as calls into the public leeperfect API.

Each workload is a list of steps.  A step is one call into the library for a
known list of dimensions; if it raises, every dimension of that step counts
as failed.  `finish` runs after the steps: for `audit_r2_100` it is the JSON
report (timed, as the CLI pays for it), for `counts_1e4` the count tables.

This module must not import leeperfect: run.py imports it to learn the
dimensions of each workload without paying the library's import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

R2_FIELD = ("kim", "small_v", "lambda", "field")
R2_COUNT = ("kim", "small_v")
R3_COUNT = ("square24", "orbit_r3")
FIELD_LIST = (14, 89, 101, 201, 215, 234, 406, 418, 444, 451, 507, 631, 687, 812, 856, 989)
COUNTS_UPTO = 10**4


@dataclass
class Step:
    r: int
    ns: tuple[int, ...]
    call: Callable  # (lp, caps) -> list[Verdict]


@dataclass
class Workload:
    name: str
    steps: list[Step]
    # (lp, caps, verdicts) -> report text or count tables; timed
    finish: Optional[Callable] = None
    # format of the report digested after timing, when `finish` makes none
    report: Optional[str] = None
    # layers that must show calls in a traced run, and layers that must not
    busy: tuple[str, ...] = ()
    idle: tuple[str, ...] = ()
    # how much the wall time follows the host's speed, as a power of the
    # kernel's (hostspeed.py); fitted over 20 runs on the reference machine
    host_sensitivity: float = field(kw_only=True)
    dims: list[tuple[int, int]] = field(init=False)

    def __post_init__(self):
        self.dims = [(s.r, n) for s in self.steps for n in s.ns]


def _scan_steps(r, frm, to, criteria=None, per_step=1):
    """scan(r, frm, to) as sub-range scans of `per_step` dimensions, so that
    the worker can time the host's speed between them."""
    def step(lo, hi):
        def call(lp, caps):
            return lp.scan(r, lo, hi, caps, early_exit=False, criteria=criteria)
        return Step(r, tuple(range(lo, hi + 1)), call)
    return [step(lo, min(lo + per_step - 1, to)) for lo in range(frm, to + 1, per_step)]


def _check_step(n):
    def call(lp, caps):
        return [lp.check(n, 2, caps, criteria=R2_FIELD)]
    return Step(2, (n,), call)


def _count_steps(r, criteria):
    # the same scan counts() runs internally; done here so that the
    # per-dimension rows can be checked, then handed to counts()
    return _scan_steps(r, 2 if r == 2 else 3, COUNTS_UPTO, criteria, per_step=100)


def _emit(lp, caps, verdicts):
    return lp.emit(verdicts, "json", caps)


def _count_tables(lp, caps, verdicts):
    r2 = [v for v in verdicts if v.r == 2]
    r3 = [v for v in verdicts if v.r == 3]
    return {
        "r2": lp.counts(2, COUNTS_UPTO, R2_COUNT, caps, verdicts=r2),
        "r3": lp.counts(3, COUNTS_UPTO, R3_COUNT, caps, verdicts=r3),
    }


_CHECK_LAYERS = ("survey.scan", "survey.check", "nt.factorize", "radius2.kim_check",
                 "radius2.small_v_check")

WORKLOADS = {
    w.name: w for w in (
        # 3..49 holds the cold (13, 11) classes 1 and 5 and the (17, 3)
        # instances 23, 27, 40, 44; 93 is a cached hit of class 5.  The full
        # 3..100 range (six cold classes, about 41 s) is too long to repeat
        # in a 30-second run.
        Workload(
            "audit_r2_100",
            _scan_steps(2, 3, 49) + _scan_steps(2, 93, 100),
            finish=_emit,
            host_sensitivity=0.27,
            busy=_CHECK_LAYERS + ("survey.emit", "radius2.lambda_check", "radius2.lambda_value",
                                  "radius2.field_check", "radius2.orbit_check"),
        ),
        # n = 305 (about 70 s alone) is left out until the theta table is faster
        Workload(
            "field_r2_list",
            [_check_step(n) for n in FIELD_LIST],
            report="json",
            host_sensitivity=0.36,
            busy=("survey.check", "radius2.lambda_check", "radius2.lambda_value",
                  "radius2.field_check", "fields.build_field"),
            idle=("radius2.orbit_check", "radius3.orbit_check_r3"),
        ),
        # 501..562 holds the costly lambda gcds of 505, 507, 514, 534, 547 and
        # 562 in about 11 s; the full 501..600 takes about 25 s.  The CSV
        # report is digested: emit(..., "json") raises ValueError here, as
        # some lambda certificates hold integers of more than 4300 digits.
        Workload(
            "lambda_r2_mid",
            _scan_steps(2, 501, 562, R2_FIELD),
            report="csv",
            host_sensitivity=0.43,
            busy=_CHECK_LAYERS + ("radius2.lambda_check", "radius2.lambda_value",
                                  "radius2.field_check"),
            idle=("radius2.orbit_check", "radius3.orbit_check_r3"),
        ),
        Workload(
            "counts_1e4",
            _count_steps(2, R2_COUNT) + _count_steps(3, R3_COUNT),
            finish=_count_tables,
            host_sensitivity=1.05,
            busy=_CHECK_LAYERS + ("survey.counts", "nt.mult_order", "nt.discrete_log_factored",
                                  "radius3.square24_check", "radius3.orbit_check_r3"),
            idle=("radius2.lambda_value", "radius2.field_check", "radius2.orbit_check",
                  "fields.build_field"),
        ),
    )
}
