"""Tests for the deterministic process-pool map and its consumers."""

import dataclasses
import os
import pickle
import time

import pytest

from repro.analysis.parallel import (
    available_cores,
    derived_seeds,
    parallel_map,
    parallel_starmap,
    resolve_jobs,
)


def _square(x):
    return x * x


def _pid_of(_x):
    return os.getpid()


def _boom(x):
    raise RuntimeError(f"task {x} failed")


def _add(a, b):
    return a + b


# ---------------------------------------------------------------------------
# parallel_map mechanics
# ---------------------------------------------------------------------------
def test_results_in_input_order():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=4) == [x * x for x in items]


def test_serial_when_jobs_is_one():
    pids = set(parallel_map(_pid_of, range(5), jobs=1))
    assert pids == {os.getpid()}


def test_empty_items():
    assert parallel_map(_square, [], jobs=4) == []


def test_single_item_runs_serially():
    assert parallel_map(_pid_of, [0], jobs=8) == [os.getpid()]


def test_unpicklable_fn_falls_back_to_serial():
    results = parallel_map(lambda x: x + 1, range(5), jobs=4)
    assert results == [1, 2, 3, 4, 5]


def test_unpicklable_items_fall_back_to_serial():
    items = [lambda: 1, lambda: 2]
    results = parallel_map(lambda f: f(), items, jobs=4)
    assert results == [1, 2]


def test_task_exceptions_propagate():
    with pytest.raises(RuntimeError):
        parallel_map(_boom, range(4), jobs=2)
    with pytest.raises(RuntimeError):
        parallel_map(_boom, range(4), jobs=1)


def _die_in_worker(x):
    """SIGKILL-grade death inside a pool worker; a no-op in the parent."""
    if os.getpid() != int(os.environ["REPRO_TEST_PARENT_PID"]):
        os._exit(1)
    return x * 10


def test_crashed_worker_shard_retried_once(monkeypatch):
    from repro.analysis import parallel as parallel_module
    from repro.telemetry.metrics import MetricsRegistry

    monkeypatch.setenv("REPRO_TEST_PARENT_PID", str(os.getpid()))
    before = parallel_module.worker_retries_total()
    results = parallel_map(_die_in_worker, range(6), jobs=2)
    # Every shard's worker died, every shard was retried in the parent,
    # and the results are exactly what a serial run produces.
    assert results == [x * 10 for x in range(6)]
    retried = parallel_module.worker_retries_total() - before
    assert retried >= 1

    registry = MetricsRegistry()
    parallel_module.publish_metrics(registry)
    metric = registry.get("parallel_worker_retries_total")
    assert metric.value == float(parallel_module.worker_retries_total())


def test_parallel_starmap_unpacks_tuples():
    assert parallel_starmap(_add, [(1, 2), (3, 4)], jobs=2) == [3, 7]


def test_repro_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None) == 3
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert resolve_jobs(None) == available_cores()
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs(7) == 7
    assert resolve_jobs(0) == 1


def test_available_cores_positive():
    assert available_cores() >= 1


# ---------------------------------------------------------------------------
# derived_seeds
# ---------------------------------------------------------------------------
def test_derived_seeds_deterministic_and_distinct():
    a = derived_seeds(7, 16)
    b = derived_seeds(7, 16)
    assert a == b
    assert len(set(a)) == 16
    assert derived_seeds(8, 16) != a
    assert derived_seeds(7, 16, label="other") != a


def test_derived_seeds_rejects_negative_count():
    with pytest.raises(ValueError):
        derived_seeds(0, -1)


def test_derived_seeds_empty():
    assert derived_seeds(0, 0) == []


def test_derived_seeds_shard_domain_separation():
    # Two shards deriving under the same label must never collide, and
    # shard=None must keep the historical single-namespace bytes.
    base = derived_seeds(7, 16)
    shard0 = derived_seeds(7, 16, shard=0)
    shard1 = derived_seeds(7, 16, shard=1)
    assert base == derived_seeds(7, 16, shard=None)
    assert shard0 != base
    assert shard0 != shard1
    assert not set(shard0) & set(shard1)
    # Pinned bytes: the sha256("7/point/0") derivation must never drift,
    # or every historical sweep fingerprint silently changes.
    assert base[0] == 593393411
    assert derived_seeds(7, 16, shard=0) == shard0


# ---------------------------------------------------------------------------
# Parallel sweep == serial sweep (the determinism contract)
# ---------------------------------------------------------------------------
def _canonical(points) -> list[str]:
    """Each sweep point's field values as exact reprs."""
    return [repr(dataclasses.astuple(point)) for point in points]


@pytest.mark.slow
def test_parallel_sweep_byte_identical_to_serial(sb_cal):
    from repro.analysis.sweeps import load_sweep
    from repro.hardware import SANDYBRIDGE
    from repro.workloads import SolrWorkload

    loads = tuple((i + 1) / 8 for i in range(8))  # 8 points
    serial = load_sweep(
        SolrWorkload(), SANDYBRIDGE, sb_cal,
        loads=loads, duration=0.8, seed=3, jobs=1,
    )
    t0 = time.perf_counter()
    parallel = load_sweep(
        SolrWorkload(), SANDYBRIDGE, sb_cal,
        loads=loads, duration=0.8, seed=3, jobs=min(8, available_cores()),
    )
    parallel_seconds = time.perf_counter() - t0
    # Float-exact and NaN-safe; pickled bytes would also compare pickle's
    # memo layout, which differs between values built here and values
    # unpickled from a worker.
    assert _canonical(serial) == _canonical(parallel)

    if available_cores() >= 4:
        t0 = time.perf_counter()
        load_sweep(
            SolrWorkload(), SANDYBRIDGE, sb_cal,
            loads=loads, duration=0.8, seed=3, jobs=1,
        )
        serial_seconds = time.perf_counter() - t0
        assert serial_seconds / parallel_seconds >= 2.0


@pytest.mark.slow
def test_parallel_distribution_matches_serial(sb_cal, wc_cal):
    from repro.analysis.distribution_experiment import (
        run_all_distribution_policies,
    )

    cals = {"sandybridge": sb_cal, "woodcrest": wc_cal}
    serial = run_all_distribution_policies(
        cals, jobs=1, duration=1.5, warmup=0.3
    )
    parallel = run_all_distribution_policies(
        cals, jobs=3, duration=1.5, warmup=0.3
    )
    assert list(serial) == list(parallel)
    # Exact (bitwise float) equality per policy; comparing pickled bytes of
    # the whole mapping would trip over pickle's identity memo, not values.
    assert serial == parallel


@pytest.mark.slow
def test_parallel_calibration_matches_serial():
    from repro.core import calibrate_machine, calibrate_machines
    from repro.hardware import SANDYBRIDGE, WOODCREST

    serial = {
        spec.name: calibrate_machine(spec, duration=0.1)
        for spec in (SANDYBRIDGE, WOODCREST)
    }
    parallel = calibrate_machines((SANDYBRIDGE, WOODCREST), duration=0.1, jobs=2)
    assert list(parallel) == ["sandybridge", "woodcrest"]
    for name, result in serial.items():
        assert pickle.dumps(result.samples) == pickle.dumps(
            parallel[name].samples
        )
        assert result.idle_watts == parallel[name].idle_watts
        assert result.metric_max == parallel[name].metric_max
