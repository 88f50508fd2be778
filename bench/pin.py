"""Pin the correctness reference of every workload from the current code.

    python3 bench/pin.py

Runs each workload once at the default seed and writes bench/reference/:
the per-dimension verdict rows (r, n, overall, tier, fired, skips), the
sha256 of the default-seed report, and the count tables.  It runs each
workload again at Caps.seed = 7 and refuses to pin if any row differs, since
the runner compares rows at every seed.  Re-pin only when a change is meant
to alter verdicts; the reference is what makes a speed-up trustworthy.
"""

from __future__ import annotations

import json
import sys
import time

from run import BUDGET_S, CODES, DEFAULT_SEED, REFERENCE, spawn
from workloads import WORKLOADS

OTHER_SEED = 7


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        outs = [spawn(name, seed, "plain", time.monotonic() + BUDGET_S)
                for seed in (DEFAULT_SEED, OTHER_SEED)]
        if any(out["failed_dims"] for out in outs):
            print(f"{name}: a step raised; nothing pinned", file=sys.stderr)
            return 1
        rows = [{(r[0], r[1]): r[2:] for r in out["rows"]} for out in outs]
        if rows[0] != rows[1] or outs[0]["tables"] != outs[1]["tables"]:
            print(f"{name}: verdicts depend on the seed; nothing pinned", file=sys.stderr)
            return 1
        kinds = sorted({tuple(k) for k in rows[0].values()})
        if len(kinds) > len(CODES):
            print(f"{name}: too many distinct rows to encode", file=sys.stderr)
            return 1
        codes = "".join(CODES[kinds.index(tuple(rows[0][d]))] for d in workload.dims)
        ref = {
            "workload": name,
            "row_fields": ["overall", "tier", "fired", "skips"],
            "kinds": [list(k) for k in kinds],
            "codes": codes,
            "report_sha256": outs[0]["report_sha256"],
            "tables": outs[0]["tables"],
        }
        (REFERENCE / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: {len(codes)} rows, {len(kinds)} kinds, "
              f"{outs[0]['wall_s']:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
