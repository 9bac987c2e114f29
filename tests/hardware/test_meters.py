"""Tests for the delayed power meters."""

import tracemalloc

import pytest

from repro.hardware import (
    PackageMeter,
    RateProfile,
    SANDYBRIDGE,
    WallMeter,
    build_machine,
)
from repro.sim import Simulator

SPIN = RateProfile(name="spin", ipc=1.0)


def _setup():
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    return sim, machine


def test_wall_meter_reads_idle_power():
    sim, machine = _setup()
    meter = WallMeter(machine, sim, period=1.0, delay=1.2)
    meter.start()
    sim.run_until(3.5)
    samples = meter.all_samples
    assert len(samples) == 3
    for s in samples:
        assert s.watts == pytest.approx(26.1)


def test_meter_delay_gates_availability():
    sim, machine = _setup()
    meter = WallMeter(machine, sim, period=1.0, delay=1.2)
    meter.start()
    sim.run_until(2.0)
    # Sample for interval ending at t=1 not visible until t=2.2.
    assert meter.samples_available(2.0) == []
    assert len(meter.samples_available(2.3)) == 1


def test_latest_available():
    sim, machine = _setup()
    meter = WallMeter(machine, sim, period=1.0, delay=0.5)
    meter.start()
    sim.run_until(3.4)
    latest = meter.latest_available(sim.now)
    assert latest is not None
    assert latest.interval_end == pytest.approx(2.0)


def test_package_meter_excludes_machine_idle_floor():
    sim, machine = _setup()
    meter = PackageMeter(machine, sim, period=1e-3, delay=1e-3)
    meter.start()
    sim.run_until(0.01)
    # Idle machine: package meter sees only the package idle floor.
    for s in meter.all_samples:
        assert s.watts == pytest.approx(2.2)


def test_package_meter_sees_core_activity():
    sim, machine = _setup()
    machine.cores[0].begin_activity(SPIN)
    machine.checkpoint()
    meter = PackageMeter(machine, sim, period=1e-3, delay=1e-3)
    meter.start()
    sim.run_until(0.005)
    model = SANDYBRIDGE.true_model
    expected = 2.2 + 5.6 + model.w_core + model.w_ins
    assert meter.all_samples[-1].watts == pytest.approx(expected)


def test_meter_captures_power_transition():
    sim, machine = _setup()
    meter = WallMeter(machine, sim, period=1.0, delay=0.0)
    meter.start()
    sim.schedule(2.0, lambda: (machine.checkpoint(),
                               machine.cores[0].begin_activity(SPIN)))
    sim.run_until(4.0)
    watts = [s.watts for s in meter.all_samples]
    assert watts[0] == pytest.approx(26.1)          # idle
    assert watts[-1] > 26.1 + 10                     # busy


def test_meter_noise_is_reproducible():
    import numpy as np
    readings = []
    for _ in range(2):
        sim, machine = _setup()
        meter = WallMeter(machine, sim, period=1.0, delay=0.0,
                          noise_std_watts=1.0, rng=np.random.default_rng(5))
        meter.start()
        sim.run_until(5.0)
        readings.append([s.watts for s in meter.all_samples])
    assert readings[0] == readings[1]
    assert any(abs(w - 26.1) > 1e-6 for w in readings[0])


def test_mean_watts_over_window():
    sim, machine = _setup()
    meter = WallMeter(machine, sim, period=1.0, delay=0.0)
    meter.start()
    sim.run_until(5.0)
    assert meter.mean_watts(0.0, 5.0) == pytest.approx(26.1)
    assert meter.mean_watts(10.0) == 0.0


def test_stop_halts_sampling():
    sim, machine = _setup()
    meter = WallMeter(machine, sim, period=1.0, delay=0.0)
    meter.start()
    sim.run_until(2.5)
    meter.stop()
    count = len(meter.all_samples)
    sim.run_until(6.0)
    assert len(meter.all_samples) == count


def test_invalid_meter_parameters_rejected():
    sim, machine = _setup()
    with pytest.raises(ValueError):
        WallMeter(machine, sim, period=0.0)
    with pytest.raises(ValueError):
        WallMeter(machine, sim, period=1.0, delay=-0.1)


def test_double_start_is_noop():
    sim, machine = _setup()
    meter = WallMeter(machine, sim, period=1.0, delay=0.0)
    meter.start()
    meter.start()
    sim.run_until(3.0)
    assert len(meter.all_samples) == 3


def test_package_meter_history_costs_under_32_bytes_per_reading():
    """10,000 delivered 1 ms readings, measured by tracemalloc: the three
    8-byte value columns, no delivery bookkeeping and no object per
    reading."""
    sim, machine = _setup()
    meter = PackageMeter(machine, sim, period=1e-3, delay=1e-3)
    meter.start()
    sim.run_until(0.0105)
    meter.latest_available(sim.now)
    readings = len(meter.all_samples)
    tracemalloc.start()
    try:
        sim.run_until(10.0105)
        meter.latest_available(sim.now)
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    readings = len(meter.all_samples) - readings
    assert readings == 10_000
    assert meter.latest_available(sim.now).interval_end == pytest.approx(10.009)
    assert grown / readings < 32, grown / readings
