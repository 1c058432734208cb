"""Smoke test of the benchmark's workloads: one set-up and one pass of each
workload, untraced and traced, so that a capsloc API change that breaks the
benchmark fails here."""

import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOAD_NAMES = ["mag-stream", "fusion-train-paper", "pipeline-desk"]
# The layers whose self time run.py reports for a traced run.
LAYERS = ("bench", "simkit", "magloc", "fusenet", "evalbench")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_one_pass_without_failures(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    wl.run_pass(wl.setup())
    assert wl.attempted > 0
    assert wl.failed == 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_pass_reports_every_per_layer_metric(name, tmp_path, monkeypatch):
    # As run.py --trace 1 does: set-up and pass in their episode spans, then
    # the workload's per-layer metrics and each layer's self time in the pass.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer("test")
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    wl.tracer = tracer
    with tracer.span("bench.setup"):
        state = wl.setup()
    with tracer.span("bench.pass"):
        wl.run_pass(state)
    assert wl.failed == 0
    values = {k: v for k, (v, _) in wl.per_layer(tracer).items()}
    self_s = tracer.self_times(tracer.episodes("pass")[0])
    values.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS})
    values["trace_overhead_s"] = 0.0  # run.py's needs untraced passes too
    values["failed_frac"] = wl.failed / wl.attempted
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(values) == sorted(m["name"] for m in declared)
    assert [k for k, v in values.items() if not math.isfinite(v)] == []
