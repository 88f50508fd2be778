"""Span tracing for the traced benchmark run, from outside the library.

The tracer replaces each layer function with a wrapper in every leeperfect
namespace that holds it (`fields.build_field` is also `radius2.build_field`),
so calls made through any import path are recorded.  A span is
[name, start, end, parent index, request index]; the request is the
enclosing `survey.check` span.  Spans stay in memory; `layer_metrics` turns
them, and the certificates the wrapped calls returned, into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

LAYERS = (
    "survey.scan", "survey.counts", "survey.check", "survey.emit",
    "nt.factorize", "nt.mult_order", "nt.discrete_log", "nt.discrete_log_factored",
    "radius2.kim_check", "radius2.small_v_check", "radius2.lambda_check",
    "radius2.lambda_value", "radius2.field_check", "radius2.orbit_check",
    "radius3.square24_check", "radius3.orbit_check_r3",
    "fields.build_field",
)
# layers whose returned outcomes feed the derived counts
_KEEP = ("radius2.field_check", "radius2.orbit_check", "radius3.orbit_check_r3")
REQUEST = "survey.check"


class LayerMissing(Exception):
    """A layer the benchmark wraps no longer exists under its name."""


def resolve_layers() -> dict[str, object]:
    """Every traced function by layer name; raises LayerMissing on a rename."""
    found = {}
    for layer in LAYERS:
        module, func = layer.split(".")
        try:
            found[layer] = getattr(importlib.import_module(f"leeperfect.{module}"), func)
        except (ImportError, AttributeError) as e:
            raise LayerMissing(f"traced layer {layer} not found: {e}") from e
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[str, list] = {name: [] for name in _KEEP}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        namespaces = [m for name, m in sys.modules.items()
                      if name == "leeperfect" or name.startswith("leeperfect.")]
        for layer, fn in resolve_layers().items():
            traced = self._wrap(layer, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patched.append((ns, attr, fn))
                        setattr(ns, attr, traced)

    def uninstall(self):
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = self.results.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            request = idx if name == REQUEST else (spans[parent][4] if parent is not None else None)
            span = [name, 0.0, 0.0, parent, request]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                keep.append(out)
            return out

        return traced


def _percentile(sorted_values, q):
    """Nearest-rank percentile, 0 for no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, busy and self time, plus the derived work counts."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        st = stats[name]
        st[0] += 1
        st[2] += dur - child_time[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:  # busy time counts the outermost span of a recursion only
            st[1] += dur
    out: dict[str, float] = {}
    for layer, (calls, busy, self_s) in stats.items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.self_s"] = self_s

    def per_s(work, layer):
        busy = stats[layer][1]
        return work / busy if busy > 0 else 0.0

    table_work = cap_skipped = 0
    for o in tracer.results["radius2.field_check"]:
        if o.status.value == "skipped":
            cap_skipped += 1
        elif "unity_order" in o.certificate:
            c = o.certificate
            width = o.params["v"] - 1 if c["mode"] == "power_sum" else c["d"]
            table_work += c["unity_order"] * width
    out["radius2.field_check.table_work"] = table_work
    out["radius2.field_check.cap_skipped"] = cap_skipped
    out["radius2.field_check.work_per_s"] = per_s(table_work, "radius2.field_check")

    def classes(layer):
        seen, hits = {}, 0
        for o in tracer.results[layer]:
            c = o.certificate
            if "candidates_scanned" not in c:
                continue
            key = (c["v"], c["p"], c["n_mod_p"])
            if key in seen:
                hits += 1
            seen[key] = c
        return seen, hits

    cold, hits = classes("radius2.orbit_check")
    scanned = sum(c["candidates_scanned"] for c in cold.values())
    out["radius2.orbit_check.cold_classes"] = len(cold)
    out["radius2.orbit_check.cache_hits"] = hits
    out["radius2.orbit_check.candidates_scanned"] = scanned
    out["radius2.orbit_check.survivors"] = sum(c["survivor_count"] for c in cold.values())
    out["radius2.orbit_check.candidates_per_s"] = per_s(scanned, "radius2.orbit_check")
    out["radius3.orbit_check_r3.cold_classes"] = len(classes("radius3.orbit_check_r3")[0])

    checks = stats["radius2.lambda_check"][0]
    lam_calls = stats["radius2.lambda_value"][0]
    out["radius2.lambda_value.calls_per_check"] = lam_calls / checks if checks else 0.0

    durations = sorted(end - start for name, start, end, _, _ in spans if name == REQUEST)
    out["survey.check.p50_ms"] = 1000 * _percentile(durations, 0.50)
    out["survey.check.p99_ms"] = 1000 * _percentile(durations, 0.99)
    return out
