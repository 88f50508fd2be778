"""Command-line interface.

Subcommands: check, scan, counts, oracle, orbit, reproduce-table, selftest.
Exit codes: 0 success, 1 usage error, 2 internal inconsistency (a criterion
contradicted the exhaustive oracle), 3 a cap-skip occurred under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

from . import oracle, radius2, radius3, survey
from .geometry import render_tiling
from .outcomes import Caps, InternalInconsistencyError, Status

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_STRICT_SKIP = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _caps_from_args(args) -> Caps:
    caps = Caps.from_file(args.caps) if args.caps else Caps()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["thread_count"] = args.threads
    return dataclasses.replace(caps, **overrides) if overrides else caps


def _emit_or_print(verdicts, args, caps):
    text = survey.emit(verdicts, args.format, caps, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")


def _strict_exit(verdicts, strict: bool) -> int:
    if strict and any(v.skips() for v in verdicts):
        skipped = sorted({v.n for v in verdicts if v.skips()})
        print(f"strict mode: cap skips at n = {skipped}", file=sys.stderr)
        return EXIT_STRICT_SKIP
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(prog="leeperfect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False, needs_range=False, writes_report=False):
        p.add_argument("--r", type=int, required=True, choices=(2, 3))
        if needs_n:
            p.add_argument("--n", type=int, required=True)
        if needs_range:
            p.add_argument("--from", dest="frm", type=int, required=True)
            p.add_argument("--to", type=int, required=True)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if writes_report:
            p.add_argument("--out", default=None)
        p.add_argument("--caps", default=None, help="caps file (key = value lines)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--no-early-exit", action="store_true")
        p.add_argument("--strict", action="store_true")

    common(sub.add_parser("check", help="full audit of a single dimension"),
           needs_n=True, writes_report=True)
    common(sub.add_parser("scan", help="verdicts over a dimension range"),
           needs_range=True, writes_report=True)

    p = sub.add_parser("counts", help="exclusion tallies for criterion subsets")
    common(p, needs_range=False)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--criteria", default=None,
                   help="comma-separated subset (default: all for the radius)")
    p.add_argument("--include-external", action="store_true")

    p = sub.add_parser("oracle", help="exhaustive witness search at tiny scale")
    common(p, needs_n=True)
    p.add_argument("--render", action="store_true", help="print the 2-D tiling when found")

    p = sub.add_parser("orbit", help="run one character-orbit search instance")
    common(p, needs_n=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--p", dest="companion", type=int, default=None)
    p.add_argument("--allow-generic", action="store_true")

    p = sub.add_parser("reproduce-table", help="compare 3 <= n <= 100 against the published table")
    common(p, writes_report=True)

    p = sub.add_parser("selftest", help="independent property suites")
    common(p)

    args = parser.parse_args(argv)
    try:
        caps = _caps_from_args(args)
    except (OSError, ValueError) as e:
        print(f"leeperfect: bad caps: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "check":
            # single checks keep the full audit trail regardless of flags
            v = survey.check(args.n, args.r, caps, early_exit=False)
            _emit_or_print([v], args, caps)
            return _strict_exit([v], args.strict)

        if args.command == "scan":
            verdicts = survey.scan(args.r, args.frm, args.to, caps,
                                   early_exit=not args.no_early_exit)
            _emit_or_print(verdicts, args, caps)
            return _strict_exit(verdicts, args.strict)

        if args.command == "counts":
            criteria = args.criteria.split(",") if args.criteria else None
            table = survey.counts(args.r, args.to, criteria, caps,
                                  include_external=args.include_external)
            print(f"r={table.r} N={table.upto} criteria={','.join(table.criteria)}")
            print(f"total excluded: {table.total}")
            for c, k in sorted(table.per_criterion.items()):
                print(f"  {c}: {k}")
            if "small_v" in table.criteria:
                for v, k in sorted(table.per_small_divisor.items()):
                    print(f"  small_v via {v}: {k}")
            if table.capped:
                print(f"  capped at n = {table.capped}")
            if args.strict and table.capped:
                return EXIT_STRICT_SKIP
            return EXIT_OK

        if args.command == "oracle":
            res = oracle.oracle_verdict(args.n, args.r, caps)
            print(f"oracle(n={args.n}, r={args.r}): {res.kind}")
            if res.witness:
                print(f"  group: {res.witness.group.describe()}")
                print(f"  generators: {[g for g in res.witness.generators]}")
                if args.render and args.n == 2:
                    print(render_tiling(res.witness))
            if res.kind == "skipped":
                return EXIT_STRICT_SKIP if args.strict else EXIT_OK
            return EXIT_OK

        if args.command == "orbit":
            if args.r == 2:
                out = radius2.orbit_check(args.n, args.v, caps, p=args.companion,
                                          allow_generic=args.allow_generic)
            else:
                out = radius3.orbit_check_r3(args.n, caps, v=args.v,
                                             p=args.companion or 5,
                                             allow_generic=args.allow_generic)
            print(f"{out.criterion}(n={args.n}, v={args.v}): {out.status.value}"
                  + (f" [{out.tier.value}]" if out.tier else ""))
            print(f"  {out.reason}")
            for s in out.certificate.get("survivors", []):
                print(f"  survivor {s['tau']}: {s['class']}, principal point "
                      f"{s['principal_point_value']} (ok={s['principal_point_ok']})")
            if args.strict and out.status is Status.SKIPPED:
                return EXIT_STRICT_SKIP
            return EXIT_OK

        if args.command == "reproduce-table":
            cmp = survey.reproduce_table(caps)
            print(f"agreements: {len(cmp.agreements)}")
            print(f"open set: {sorted(cmp.open_set)}")
            if cmp.disagreements:
                print(f"disagreements: {cmp.disagreements}")
            if cmp.attribution_mismatches:
                print(f"attribution mismatches: {cmp.attribution_mismatches}")
            if cmp.cap_skips:
                print(f"rows with cap skips: {cmp.cap_skips}")
            if args.out:
                survey.emit(cmp.verdicts, args.format, caps, path=args.out)
                print(f"wrote {args.out}")
            if args.strict and cmp.cap_skips:
                return EXIT_STRICT_SKIP
            return EXIT_OK if cmp.ok else EXIT_INCONSISTENT

        if args.command == "selftest":
            from .selftest import run_selftest

            ok = run_selftest(caps)
            return EXIT_OK if ok else EXIT_INCONSISTENT

    except InternalInconsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (OSError, ValueError) as e:  # out-of-range arguments, unwritable --out
        print(f"leeperfect: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
