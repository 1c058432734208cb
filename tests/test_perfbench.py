"""Smoke test of the benchmark's workloads: one set-up and one pass of each
workload, so that a capsloc API change that breaks the benchmark fails
here."""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["mag-stream", "fusion-train-paper", "pipeline-desk"])
def test_workload_runs_one_pass_without_failures(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    wl.run_pass(wl.setup())
    assert wl.attempted > 0
    assert wl.failed == 0
