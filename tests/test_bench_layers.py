"""The benchmark's layer predictions hold on the library under test.

Each workload of bench/workloads.py names the traced layers (bench/spans.py)
that must show calls and those that must not.  A layer the library stops
reaching through its module attribute (a function captured at import, a
helper that went) leaves the traced benchmark run broken; this runs every
workload in-process under the same tracer, so such a change fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import leeperfect
from leeperfect import radius2, radius3

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reaches_its_busy_layers_only(name):
    workload = workloads.WORKLOADS[name]
    caps = leeperfect.Caps(thread_count=1)
    # each benchmark repetition is a fresh interpreter with cold caches
    for cached in (radius2._field_ctx, radius2._orbit_r2_class, radius3._orbit_r3_class):
        cached.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        verdicts = [v for step in workload.steps for v in step.call(leeperfect, caps)]
        if workload.finish:
            workload.finish(leeperfect, caps, verdicts)
    finally:
        tracer.uninstall()
    calls = {layer: 0 for layer in spans.LAYERS}
    for span in tracer.spans:
        calls[span[0]] += 1
    assert [layer for layer in workload.busy if not calls[layer]] == []
    assert [layer for layer in workload.idle if calls[layer]] == []
