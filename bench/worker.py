"""One repetition of a benchmark workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode {setup,plain,traced}

run.py starts this with `src` on PYTHONPATH and reads one JSON line from
its standard output: the CLOCK_MONOTONIC mark of the end of the import
(comparable across processes), the workload's wall and CPU time, the
host-speed slices, the verdict rows, the report digest or count tables, the
peak RSS and, in `traced` mode, the per-layer metrics.  `setup` mode only
imports the library.  --seed is the library's Caps.seed.  Exit code 3 means the benchmark itself is broken (a
traced layer was renamed); a workload step that raises is reported, not
fatal.
"""

import time

import leeperfect as lp

T_IMPORTED = time.monotonic()

import argparse  # noqa: E402  (stdlib imports stay out of the set-up time)
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEGMENT_S = 1.0  # workload seconds between two host-speed slices


def row(v) -> list:
    return [v.r, v.n, v.overall, v.tier.value if v.tier else "",
            "+".join(v.fired()), "+".join(v.skips())]


def run(workload, caps, tracer=None) -> dict:
    """Run the steps, with a host-speed slice (hostspeed.py) before them,
    after them and whenever SEGMENT_S of them have passed.  `wall_s` is
    the steps' own time, without the slices."""
    verdicts, failed, finished = [], [], None
    slices = [hostspeed.slice_s()]
    wall = cpu = since_slice = 0.0

    def timed(fn, *args):
        nonlocal wall, cpu, since_slice
        t, c = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t
            wall, since_slice = wall + dt, since_slice + dt
            cpu += time.process_time() - c
            if since_slice >= SEGMENT_S:
                slices.append(hostspeed.slice_s())
                since_slice = 0.0

    if tracer:
        tracer.install()
    for step in workload.steps:
        try:
            verdicts.extend(timed(step.call, lp, caps))
        except Exception:
            traceback.print_exc()
            failed.extend([step.r, n] for n in step.ns)
    if workload.finish and not failed:
        try:
            finished = timed(workload.finish, lp, caps, verdicts)
        except Exception:
            traceback.print_exc()
            failed = [list(d) for d in workload.dims]
    if tracer:
        tracer.uninstall()
    if since_slice:
        slices.append(hostspeed.slice_s())
    out = {"wall_s": wall, "cpu_s": cpu, "slices": slices,
           "rows": [row(v) for v in verdicts], "failed_dims": failed,
           "report_sha256": None, "tables": None}
    if isinstance(finished, dict):
        out["tables"] = {k: dataclasses.asdict(t) for k, t in finished.items()}
    elif not failed and (finished or workload.report):
        report = finished or lp.emit(verdicts, workload.report, caps)
        out["report_sha256"] = hashlib.sha256(report.encode()).hexdigest()
    if tracer:
        out["layers"] = spans.layer_metrics(tracer)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    args = ap.parse_args()
    result = {"t_imported": T_IMPORTED, "module": lp.__file__, "numpy": numpy.__version__}
    try:
        spans.resolve_layers()
    except spans.LayerMissing as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 3
    if args.mode != "setup":
        caps = lp.Caps(seed=args.seed, thread_count=1)
        tracer = spans.Tracer() if args.mode == "traced" else None
        result.update(run(WORKLOADS[args.workload], caps, tracer))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
