"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from bench import tracing
from bench.clock import NOMINAL_PROBE_S, StepClock
from bench.run import END_TO_END, ROOT, Checker, tail_percentile, traced_run
from bench.workloads import WORKLOADS, machine_outcome


def test_fold_subtracts_child_spans_from_self_time():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    spans = {
        "entry": np.array([0, 1, 2, 3]),
        "parent": np.array([-1, 0, 0, 2]),
        "start": np.array([0.0, 1.0, 5.0, 6.0]),
        "end": np.array([10.0, 4.0, 9.0, 7.0]),
    }
    calls, inclusive, own = tracing.fold(spans, 5)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0, 0.0]
    assert inclusive.tolist() == [10.0, 3.0, 4.0, 1.0, 0.0]
    assert calls.tolist() == [1, 1, 1, 1, 0]


class Layer:
    """Two nested entry points for the patching test."""

    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_recorder_nests_spans_and_restores_patched_entries():
    table = (
        ("sim", __name__, "Layer.outer", False),
        ("kernel", __name__, "Layer.inner", False),
        ("kernel", __name__, "Layer.gone", False),
    )
    recorder = tracing.SpanRecorder()
    original = Layer.outer
    with tracing.patched(recorder, table=table) as installed:
        assert Layer().outer() == 2
    assert Layer.outer is original
    assert installed.missing == [f"{__name__}:Layer.gone"]
    spans = recorder.arrays()
    assert spans["parent"].tolist() == [-1, 0]
    times = tracing.entry_times(spans, installed)
    metrics = tracing.layer_metrics(times, installed, wall=1.0)
    assert metrics["sim.calls"] == 1.0 and metrics["kernel.calls"] == 1.0
    assert metrics["sim.self_s"] + metrics["kernel.self_s"] \
        == pytest.approx(spans["end"][0] - spans["start"][0])


def test_steps_are_divided_by_the_slowdown_at_their_ends():
    clock = StepClock()
    clock.steps = [1.0, 1.0]
    clock.probes = [NOMINAL_PROBE_S, 2 * NOMINAL_PROBE_S, 4 * NOMINAL_PROBE_S]
    assert clock.normalized_steps() == pytest.approx([1 / 1.5, 1 / 3.0])
    assert clock.slowdown() == pytest.approx(7 / 3)
    clock.tick()
    clock.tick()
    assert len(clock.steps) == 3 and len(clock.probes) == 5
    assert clock.probe_s > 0.0


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError):
        tail_percentile(range(1, 100), 90)


def test_stepped_run_matches_one_shot_run_workload():
    from repro.core import calibrate_machine
    from repro.hardware.specs import spec_by_name
    from repro.workloads import run_workload

    workload = replace(WORKLOADS["solr-pkgmeter"], steps=12)
    clock = StepClock()
    stepped = workload.run(workload.setup(workload.default_seed, 1), clock)
    assert len(clock.steps) == 12
    spec = spec_by_name(workload.spec)
    run = run_workload(
        workload.make_workload(), spec, calibrate_machine(spec),
        load_fraction=workload.load_fraction, duration=3.0, warmup=0.0,
        seed=workload.default_seed,
    )
    one_shot = machine_outcome(run, run.driver.snapshot_state())
    assert stepped.fingerprint == one_shot.fingerprint
    assert stepped.closure_error() is None and stepped.completed > 0


def test_traced_one_worker_cluster_matches_two_workers():
    workload = WORKLOADS["cluster-flash"].quick()
    untraced = workload.run(workload.setup(workload.default_seed, 2),
                            StepClock())
    checker = Checker({workload.default_seed: untraced.fingerprint})
    traced = traced_run(workload, workload.default_seed, 1, checker,
                        False, "traced")
    assert checker.failed == 0, checker.errors
    assert traced["outcome"].fingerprint == untraced.fingerprint
    assert traced["times"], "no entry point was traced"


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_prints_one_correct_json_line(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", "cluster-steady", "--seed", "42", "--seconds", "0",
         "--trace", trace, "--quick"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = {name for name, _unit in
             (tracing.PER_LAYER if trace == "1" else END_TO_END)}
    # A one-repeat quick run has too few steps for a p90.
    assert set(result["metrics"]) == names - {"step_ms_p90"}
