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
    # orbit has no --seed, and only scan, counts and reproduce-table have --threads
    overrides = {"seed": getattr(args, "seed", None),
                 "thread_count": getattr(args, "threads", None)}
    return dataclasses.replace(caps, **{k: v for k, v in overrides.items() if v is not None})


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


# Every option a subcommand can take.  Each subcommand declares only the ones
# its code path reads, so argparse refuses the rest as a usage error.
_OPTIONS = {
    "--r": dict(type=int, required=True, choices=(2, 3)),
    "--n": dict(type=int, required=True),
    "--from": dict(dest="frm", type=int, required=True),
    "--to": dict(type=int, required=True),
    "--v": dict(type=int, required=True),
    "--p": dict(dest="companion", type=int),
    "--allow-generic": dict(action="store_true"),
    "--criteria": dict(help="comma-separated subset (default: all for the radius)"),
    "--include-external": dict(action="store_true"),
    "--render": dict(action="store_true", help="print the 2-D tiling when found"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(),
    "--caps": dict(help="caps file (key = value lines)"),
    "--seed": dict(type=int),
    "--threads": dict(type=int),
    "--no-early-exit": dict(action="store_true"),
    "--strict": dict(action="store_true"),
}

_SUBCOMMANDS = {
    "check": ("full audit of a single dimension",
              "--r --n --format --out --caps --seed --strict"),
    "scan": ("verdicts over a dimension range",
             "--r --from --to --format --out --caps --seed --threads --no-early-exit --strict"),
    "counts": ("exclusion tallies for criterion subsets",
               "--r --to --criteria --include-external --caps --seed --threads --strict"),
    "oracle": ("exhaustive witness search at tiny scale",
               "--r --n --render --caps --seed --strict"),
    "orbit": ("run one character-orbit search instance",
              "--r --n --v --p --allow-generic --caps --strict"),
    "reproduce-table": ("compare 3 <= n <= 100 against the published table",
                        "--format --out --caps --seed --threads --strict"),
    "selftest": ("independent property suites", "--caps --seed"),
}


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leeperfect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        caps = _caps_from_args(args)
    except (OSError, ValueError) as e:
        print(f"leeperfect: bad caps: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "check":
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
