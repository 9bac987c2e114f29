"""Tests for load and machine sweeps, timeout rates, power history."""

import pytest

from repro.analysis.sweeps import load_sweep, machine_sweep
from repro.hardware import SANDYBRIDGE, WOODCREST
from repro.workloads import SolrWorkload

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def sweep(sb_cal):
    return load_sweep(
        SolrWorkload(), SANDYBRIDGE, sb_cal,
        loads=(0.25, 0.5, 1.0), duration=2.5,
    )


def test_load_sweep_shapes(sweep):
    assert [p.load_fraction for p in sweep] == [0.25, 0.5, 1.0]
    # Power and throughput grow with load.
    watts = [p.measured_active_watts for p in sweep]
    assert watts == sorted(watts)
    completed = [p.completed for p in sweep]
    assert completed == sorted(completed)
    # Latency grows with load (queueing).
    assert sweep[-1].mean_response_time > sweep[0].mean_response_time


def test_load_sweep_validation_errors_stay_small(sweep):
    for point in sweep:
        assert point.validation_error < 0.08


def test_load_sweep_rejects_empty_loads(sb_cal):
    with pytest.raises(ValueError):
        load_sweep(SolrWorkload(), SANDYBRIDGE, sb_cal, loads=())


def test_machine_sweep(sb_cal, wc_cal):
    points = machine_sweep(
        SolrWorkload(),
        [(SANDYBRIDGE, sb_cal), (WOODCREST, wc_cal)],
        load=0.8, duration=2.0,
    )
    by_machine = {p.machine: p for p in points}
    assert set(by_machine) == {"sandybridge", "woodcrest"}
    # Woodcrest burns more energy per request (Fig. 13's premise).
    assert by_machine["woodcrest"].energy_per_request > \
        by_machine["sandybridge"].energy_per_request
    with pytest.raises(ValueError):
        machine_sweep(SolrWorkload(), [])


def test_timeout_rate(sb_cal):
    from repro.workloads import run_workload
    run = run_workload(
        SolrWorkload(), SANDYBRIDGE, sb_cal,
        load_fraction=0.5, duration=2.0, warmup=0.0, with_meter=False,
    )
    driver = run.driver
    # Nothing at half load takes a full second.
    assert driver.timeout_rate(1.0) == 0.0
    # Everything takes longer than a microsecond.
    assert driver.timeout_rate(1e-6) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        driver.timeout_rate(0.0)
