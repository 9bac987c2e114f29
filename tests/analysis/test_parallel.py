"""Tests for the deterministic fork-and-pipe map and its consumers."""

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro.sim.parallel import (
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


def test_unpicklable_fn_runs_in_forked_children():
    # Children inherit fn by fork: a lambda needs no pickling.
    results = parallel_map(lambda x: (x + 1, os.getpid()), range(6), jobs=3)
    assert [value for value, _pid in results] == [1, 2, 3, 4, 5, 6]
    assert len({pid for _value, pid in results}) == 3


def test_unpicklable_items_run_in_forked_children():
    items = [lambda: 1, lambda: 2]
    results = parallel_map(lambda f: (f(), os.getpid()), items, jobs=2)
    assert [value for value, _pid in results] == [1, 2]
    assert results[1][1] != os.getpid()


def test_task_exceptions_propagate():
    with pytest.raises(RuntimeError):
        parallel_map(_boom, range(4), jobs=2)
    with pytest.raises(RuntimeError):
        parallel_map(_boom, range(4), jobs=1)


def _fail_at(failing):
    def task(x):
        if x in failing:
            raise ValueError(f"item {x}")
        return x
    return task


def test_chunks_are_dealt_in_snake_order():
    parent = os.getpid()
    pids = parallel_map(_pid_of, range(9), jobs=2)
    assert [pid == parent for pid in pids] == [
        True, False, False, True, True, False, False, True, True,
    ]
    pids = parallel_map(_pid_of, range(7), jobs=3)
    assert pids[0] == pids[5] == pids[6] == parent
    assert pids[1] == pids[4] != pids[2] == pids[3]
    assert parent not in (pids[1], pids[2])


@pytest.mark.parametrize("failing, raised", [
    ({1, 3}, "item 1"),  # child's chunk holds the lowest failure
    ({0, 2}, "item 0"),  # the parent's own chunk does
    ({5, 2}, "item 2"),  # both failures in the child's chunk
])
def test_lowest_index_exception_wins(failing, raised):
    # jobs=2: the parent runs items 0, 3, 4 and the child 1, 2, 5.
    with pytest.raises(ValueError, match=f"^{raised}$"):
        parallel_map(_fail_at(failing), range(6), jobs=2)


class _NeedsTwoArgs(Exception):
    """Pickles, but cannot unpickle (its args hold one string)."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_exception_that_cannot_unpickle_is_raised_by_the_parent():
    def task(x):
        if x == 1:
            raise _NeedsTwoArgs(x, os.getpid() == parent)
        return x

    parent = os.getpid()
    with pytest.raises(_NeedsTwoArgs, match="^1/True$"):
        parallel_map(task, range(4), jobs=2)


def test_unpicklable_result_is_recomputed_in_the_parent():
    parent = os.getpid()
    results = parallel_map(
        lambda x: (lambda: (x, os.getpid() == parent)), range(6), jobs=3
    )
    assert [f() for f in results] == [(x, True) for x in range(6)]


def test_nested_map_in_a_child_forks_no_grandchildren():
    def outer(_x):
        inner = set(parallel_map(_pid_of, range(4), jobs=2))
        return os.getpid(), inner

    results = parallel_map(outer, range(4), jobs=2)
    child = results[1][0]
    assert child != os.getpid()
    # Items 1 and 2 ran in the child, whose own maps stayed serial.
    assert results[1][1] == results[2][1] == {child}


def test_repro_jobs_one_forks_nothing(monkeypatch):
    from repro.core import calibrate_machine, calibration_microbenchmarks
    from repro.hardware import SANDYBRIDGE

    def no_fork():
        raise AssertionError("forked under REPRO_JOBS=1")

    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel_map(_square, range(8)) == [x * x for x in range(8)]
    result = calibrate_machine(
        SANDYBRIDGE, duration=0.01,
        benchmarks=calibration_microbenchmarks()[:2],
    )
    assert result.samples.shape == (8, 8)


def test_failed_fork_runs_the_chunk_in_the_parent(monkeypatch):
    from repro.sim import parallel as parallel_module

    def failing_fork():
        raise BlockingIOError("no process slots")

    monkeypatch.setattr(os, "fork", failing_fork)
    before = parallel_module.worker_retries_total()
    assert set(parallel_map(_pid_of, range(4), jobs=2)) == {os.getpid()}
    assert parallel_module.worker_retries_total() == before


def test_serial_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert set(parallel_map(_pid_of, range(4), jobs=2)) == {os.getpid()}
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _recording_fork(monkeypatch):
    """Patch ``os.fork`` to record every child pid it returns."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_no_child_left_after_a_task_exception(monkeypatch):
    pids = _recording_fork(monkeypatch)
    with pytest.raises(ValueError):
        parallel_map(_fail_at({1, 2}), range(9), jobs=3)
    assert len(pids) == 2
    _assert_reaped(pids)


def test_no_child_left_after_an_interrupt(monkeypatch):
    parent = os.getpid()

    def task(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # killed long before this ends
        return x

    pids = _recording_fork(monkeypatch)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        parallel_map(task, range(4), jobs=2)
    assert time.perf_counter() - started < 30
    assert len(pids) == 1
    _assert_reaped(pids)


def _die_in_worker(x):
    """SIGKILL-grade death inside a forked child; a no-op in the parent."""
    if os.getpid() != int(os.environ["REPRO_TEST_PARENT_PID"]):
        os._exit(1)
    return x * 10


def test_crashed_worker_shard_retried_once(monkeypatch):
    from repro.sim import parallel as parallel_module
    from repro.telemetry.metrics import MetricsRegistry

    monkeypatch.setenv("REPRO_TEST_PARENT_PID", str(os.getpid()))
    before = parallel_module.worker_retries_total()
    results = parallel_map(_die_in_worker, range(6), jobs=2)
    # The child died, its chunk was re-run once in the parent, and the
    # results are exactly what a serial run produces.
    assert results == [x * 10 for x in range(6)]
    retried = parallel_module.worker_retries_total() - before
    assert retried == 1

    registry = MetricsRegistry()
    parallel_module.publish_metrics(registry)
    metric = registry.get("parallel_worker_retries_total")
    assert metric.value == float(parallel_module.worker_retries_total())


def test_killed_children_chunks_rerun_once_each():
    from repro.sim import parallel as parallel_module

    parent = os.getpid()

    def task(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return x * 10

    before = parallel_module.worker_retries_total()
    assert parallel_map(task, range(9), jobs=3) == [x * 10 for x in range(9)]
    assert parallel_module.worker_retries_total() - before == 2


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
def test_parallel_calibration_matches_serial(monkeypatch):
    from repro.core import calibrate_machine, calibrate_machines
    from repro.hardware.specs import ALL_SPECS

    def fields(result):
        return (
            result.samples.shape, result.samples.tobytes(),
            result.active_watts.tobytes(), result.metric_max,
            result.package_idle_watts, result.idle_watts,
        )

    monkeypatch.setenv("REPRO_JOBS", "1")
    serial = {
        spec.name: fields(calibrate_machine(spec, duration=0.1))
        for spec in ALL_SPECS
    }
    for jobs in (1, 2, 3):  # an explicit count overrides REPRO_JOBS
        parallel = calibrate_machines(ALL_SPECS, duration=0.1, jobs=jobs)
        assert list(parallel) == list(serial)
        for name, result in parallel.items():
            assert fields(result) == serial[name], (name, jobs)
