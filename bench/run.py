"""Benchmark runner for leeperfect.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's `src`.  Every timed repetition is a fresh interpreter
(bench/worker.py), because the CLI user pays for the cold `lru_cache`d
orbit classes and field contexts on every invocation.  The runner starts
repetitions one after another (a closed loop with one caller) while the
next round is expected to end within `--seconds`, at least two rounds of a
timed run, checks every verdict row against the rows pinned in
bench/reference, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The library runs with default `Caps` and `thread_count = 1`.  Timed runs
keep the default Caps.seed, the one CLI users run with, whatever --seed is:
the random field construction moves the cost of `field_r2_list` by about
10 % between seeds, so seeded timings would not be steady within the
bounds.  Traced runs use Caps.seed = 2024 + --seed, so that every traced run
also checks that the verdict rows do not depend on the seed.  Report bytes
embed the seed and are checked at the default seed only.
`attempted` counts dimensions over all repetitions, `failed` those whose row
was wrong, whose call raised, or whose report digest or count table
differed from the pinned one.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, measured without tracing; with
--trace 1 they are its per-layer ones, from traced repetitions alternated
with plain ones.  The line before it records the environment and sample
counts.  Exit code 1 means a wrong result, 2 a broken benchmark.

`wall_s` and `dims_per_s` are corrected for the host's speed during the run
(bench/hostspeed.py); the raw wall time is in the line before the result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import string
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 2024  # Caps().seed; reports embed the seed, so bytes are pinned at it only
SETUP_REPS = 2  # import-only repetitions per round
MIN_ROUNDS = 2
BUDGET_S = 170.0  # a run must end within 180 s
CODES = string.digits + string.ascii_letters


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} repetition of {workload} ran past the {BUDGET_S} s budget") from e
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not Path(out["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"leeperfect was imported from {out['module']}, not from {SRC}")
    out["setup_s"] = out["t_imported"] - t_spawn
    return out


def load_reference(name: str) -> dict:
    try:
        ref = json.loads((REFERENCE / f"{name}.json").read_text())
    except OSError as e:
        raise BenchError(f"no pinned reference for {name}: {e}") from e
    dims = WORKLOADS[name].dims
    if len(ref["codes"]) != len(dims):
        raise BenchError(f"pinned rows of {name} do not match its dimensions")
    ref["rows"] = {d: [*d, *ref["kinds"][CODES.index(c)]] for d, c in zip(dims, ref["codes"])}
    return ref


def count_failed(out: dict, dims, ref: dict, seed: int) -> int:
    """Dimensions of one repetition whose output differs from the pinned one."""
    if out["tables"] != ref["tables"]:
        return len(dims)
    if seed == DEFAULT_SEED and out["report_sha256"] != ref["report_sha256"]:
        return len(dims)
    got = {(r[0], r[1]): r for r in out["rows"]}
    return sum(got.get(d) != ref["rows"][d] for d in dims)


def check_layers(workload, traced: list[dict]):
    """A renamed or bypassed layer must fail the run, not report zeros."""
    for out in traced:
        calls = {k[:-len(".calls")]: v for k, v in out["layers"].items() if k.endswith(".calls")}
        silent = [layer for layer in workload.busy if calls[layer] == 0]
        if silent:
            raise BenchError(f"{workload.name}: no calls to {silent}, where work is predicted")
        active = [layer for layer in workload.idle if calls[layer] != 0]
        if active:
            raise BenchError(f"{workload.name}: calls to {active}, where none are predicted")


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    s = sorted(values)
    tail = None
    for q in (0.999, 0.99, 0.9, 0.75):
        if len(s) * (1 - q) >= 10:
            tail = {"percentile": 100 * q, "value": s[math.ceil(q * len(s)) - 1]}
            break
    return {"median": statistics.median(s), "samples": len(s), "tail": tail}


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(args) -> tuple[dict, dict]:
    if not (SRC / "leeperfect" / "__init__.py").is_file():
        raise BenchError(f"no leeperfect sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e
    workload = WORKLOADS[args.workload]
    ref = load_reference(args.workload)
    caps_seed = DEFAULT_SEED + args.seed if args.trace else DEFAULT_SEED
    env = {"nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": os.getloadavg(),
           "git_sha": git_sha(), "python": platform.python_version()}
    # an installed package is byte-compiled; keep compilation out of the timings
    compileall.compile_dir(SRC / "leeperfect", quiet=1)
    deadline = time.monotonic() + BUDGET_S
    setups, plain, traced = [], [], []

    def rep(mode):
        return spawn(args.workload, caps_seed, mode, deadline)

    # a round is a plain repetition and either a traced one or SETUP_REPS
    # import-only ones, so that set-up samples spread over the whole run;
    # rounds go on while the next is expected to end within --seconds
    min_rounds = 1 if args.trace else MIN_ROUNDS  # per-layer metrics have no bound
    t_begin = time.monotonic()
    while True:
        t_round = time.monotonic()
        plain.append(rep("plain"))
        if args.trace:
            traced.append(rep("traced"))
        else:
            setups.extend(rep("setup") for _ in range(SETUP_REPS))
        elapsed, round_s = time.monotonic() - t_begin, time.monotonic() - t_round
        if len(plain) >= min_rounds and elapsed + round_s > args.seconds:
            break
    reps = plain + traced
    attempted = len(workload.dims) * len(reps)
    failed = sum(count_failed(out, workload.dims, ref, caps_seed) for out in reps)
    raw_wall = statistics.median(out["wall_s"] for out in plain)
    slices = [x for out in plain for x in out["slices"]]
    if args.trace:
        if not failed:  # a step that raised leaves its layers without calls
            check_layers(workload, traced)
        metrics = {k: statistics.median(out["layers"][k] for out in traced)
                   for k in traced[0]["layers"]}
        metrics["trace_overhead_frac"] = statistics.median(
            out["wall_s"] for out in traced) / raw_wall - 1
        declared = spec["per_layer"]
    else:
        wall = raw_wall * hostspeed.correction(slices, workload.host_sensitivity)
        metrics = {
            "setup_s": statistics.median(out["setup_s"] for out in setups + plain),
            "wall_s": wall,
            "dims_per_s": len(workload.dims) / wall,
            "peak_rss_mb": statistics.median(out["rss_mb"] for out in plain),
        }
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError("measured metrics differ from those BENCHMARK.json declares")
    env["numpy"] = plain[0]["numpy"]
    info = {
        "workload": args.workload, "seed": args.seed, "caps_seed": caps_seed,
        "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "raw_wall_s": summary([out["wall_s"] for out in plain]),
        "cpu_s": summary([out["cpu_s"] for out in plain]),
        "setup_s": summary([out["setup_s"] for out in setups + plain]),
        "slice_s": summary(slices),
        "failed_frac": failed / attempted,
        "report_digest_checked": caps_seed == DEFAULT_SEED and ref["report_sha256"] is not None,
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    return info, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if DEFAULT_SEED + args.seed < 1:
        ap.error(f"--seed must be at least {1 - DEFAULT_SEED}")
    try:
        info, result = measure(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
