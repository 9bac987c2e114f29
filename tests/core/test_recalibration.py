"""Tests for online recalibration, from unit level to closed loop."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.facility as facility_module
from repro.core import OnlineRecalibrator, PowerContainerFacility, PowerModel
from repro.core.alignment import estimate_delay
from repro.hardware import (
    PackageMeter,
    RateProfile,
    SANDYBRIDGE,
    build_machine,
)
from repro.kernel import Compute, Kernel, Sleep
from repro.sim import Simulator
from repro.workloads.base import meter_setup_for

#: A production workload with power invisible to core-level counters -- the
#: mechanism behind the paper's Stress/power-virus modeling errors.
HIDDEN_HOT = RateProfile(
    name="hidden-hot", ipc=1.1, cache_per_cycle=0.01, mem_per_cycle=0.006,
    hidden_watts=6.0,
)


# ----------------------------------------------------------------------
# Unit level
# ----------------------------------------------------------------------
def _simple_recalibrator(offline_bias=0.0):
    model = PowerModel(("mcore",), np.array([10.0]))
    X_off = np.array([[0.5], [1.0], [0.25]])
    y_off = X_off[:, 0] * 10.0 + offline_bias
    return OnlineRecalibrator(model, X_off, y_off), model


def test_recalibrate_without_online_samples_is_noop():
    recal, model = _simple_recalibrator()
    before = model.coefficients
    after = recal.recalibrate()
    assert np.allclose(before, after)
    assert recal.recalibration_count == 0


def test_online_samples_shift_coefficients():
    recal, model = _simple_recalibrator()
    # Online reality: 14 W per unit mcore (hidden power appeared).
    X_on = np.array([[1.0]] * 20)
    y_on = np.full(20, 14.0)
    recal.add_pairs(X_on, y_on)
    recal.recalibrate()
    assert model.coefficient("mcore") > 11.0
    assert recal.recalibration_count == 1


def test_online_window_is_bounded():
    recal, model = _simple_recalibrator()
    recal = OnlineRecalibrator(model, np.array([[1.0]]*6), np.ones(6)*10,
                               max_online_samples=10)
    recal.add_pairs(np.ones((25, 1)), np.full(25, 14.0))
    assert recal.online_sample_count == 10


def test_shape_validation():
    recal, model = _simple_recalibrator()
    with pytest.raises(ValueError):
        recal.add_pairs(np.ones((3, 2)), np.ones(3))
    with pytest.raises(ValueError):
        OnlineRecalibrator(model, np.ones((3, 2)), np.ones(3))


def test_equal_weighting_balances_offline_and_online():
    """Offline says 10 W/unit; online says 14 W/unit.  With equal weights
    and equal counts the refit lands strictly between."""
    model = PowerModel(("mcore",), np.array([10.0]))
    X_off = np.ones((10, 1))
    recal = OnlineRecalibrator(model, X_off, np.full(10, 10.0))
    recal.add_pairs(np.ones((10, 1)), np.full(10, 14.0))
    recal.recalibrate()
    assert 11.0 < model.coefficient("mcore") < 13.0
    assert model.coefficient("mcore") == pytest.approx(12.0, abs=0.2)


class _DequeRecalibrator:
    """The online window as a ``deque(maxlen=...)`` of ``(row, watts)``:
    the reference the ring buffer must reproduce exactly."""

    def __init__(self, model, X_off, y_off, max_online_samples):
        self.model = model
        self.X_off, self.y_off = X_off, y_off
        self.online = deque(maxlen=max_online_samples)
        self.rejected_sample_count = 0

    def add_pairs(self, rows, watts):
        for row, w in zip(rows, watts):
            w = float(w)
            if not (np.isfinite(w) and w >= 0.0 and np.isfinite(row).all()):
                self.rejected_sample_count += 1
                continue
            self.online.append((row.copy(), w))

    def recalibrate(self):
        X = np.vstack([self.X_off] + [row for row, _ in self.online])
        y = np.concatenate([self.y_off, [w for _, w in self.online]])
        weights = np.ones(len(y))
        return PowerModel.fit(X, y, self.model.features,
                              sample_weights=weights).coefficients

    def snapshot_online(self):
        return [[row.tolist(), w] for row, w in self.online]


#: Values a corrupted online pair may carry in either its watts or a row.
_BAD_VALUES = (np.nan, np.inf, -np.inf, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 9),
    batches=st.lists(st.integers(0, 25), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_ring_window_matches_a_deque(capacity, batches, seed):
    """Batches that wrap the ring, batches larger than the whole window,
    and rejected rows (NaN, negative watts, non-finite features) leave
    the same window, counts and refit as a ``deque(maxlen=capacity)``."""
    rng = np.random.default_rng(seed)
    X_off = rng.uniform(0.0, 1.0, (6, 2))
    y_off = X_off @ np.array([10.0, 4.0])
    recal = OnlineRecalibrator(
        PowerModel(("mcore", "mins"), np.array([10.0, 4.0])), X_off, y_off,
        max_online_samples=capacity,
    )
    reference = _DequeRecalibrator(
        PowerModel(("mcore", "mins"), np.array([10.0, 4.0])), X_off, y_off,
        capacity,
    )
    for size in batches:
        rows = rng.uniform(0.0, 1.0, (size, 2))
        watts = rows @ np.array([14.0, 3.0]) + rng.normal(0.0, 0.1, size)
        for i in range(size):
            corrupt = rng.integers(0, 6)
            if corrupt < len(_BAD_VALUES):
                if rng.integers(0, 2):
                    watts[i] = _BAD_VALUES[corrupt]
                else:
                    rows[i, rng.integers(0, 2)] = _BAD_VALUES[corrupt]
        recal.add_pairs(rows, watts)
        reference.add_pairs(rows, watts)
        assert recal.rejected_sample_count == reference.rejected_sample_count
        assert recal.online_sample_count == len(reference.online)
        assert recal.snapshot_state()["online"] == reference.snapshot_online()
        if reference.online:
            assert recal.recalibrate().tolist() == reference.recalibrate().tolist()


# ----------------------------------------------------------------------
# Closed loop on the simulated machine
# ----------------------------------------------------------------------
class _NoScanMeter(PackageMeter):
    """A package meter that fails the run if anyone builds its history as
    sample objects."""

    def samples_available(self, now):
        raise AssertionError("samples_available called during the run")


def _run_hidden_workload(sb_cal, with_meter, meter_class=PackageMeter):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    meter = meter_class(machine, sim, period=1e-3, delay=1e-3) if with_meter else None
    facility = PowerContainerFacility(
        kernel,
        sb_cal,
        meter=meter,
        meter_idle_watts=2.2,          # package idle floor
        meter_covers_peripherals=False,
        recalib_interval=0.1,
        max_delay_seconds=0.02,
        trace_period=1e-3,
    )
    facility.start_tracing()
    container = facility.create_request_container("hot")

    def program():
        # Fluctuating load so alignment has transitions to lock onto.
        for _ in range(40):
            yield Compute(cycles=machine.freq_hz * 20e-3, profile=HIDDEN_HOT)
            yield Sleep(5e-3)

    kernel.spawn(program(), "hot", container_id=container.id)
    sim.run_until(1.2)
    facility.flush()
    machine.checkpoint()
    measured = machine.integrator.active_joules
    return facility, container, measured


def test_offline_model_underestimates_hidden_power(sb_cal):
    facility, container, measured = _run_hidden_workload(sb_cal, with_meter=False)
    est = facility.registry.total_energy("eq2")
    # Hidden 6 W/core is invisible: eq2 must underestimate clearly.
    assert est < measured * 0.92


def test_recalibration_reduces_validation_error(sb_cal):
    facility, container, measured = _run_hidden_workload(sb_cal, with_meter=True)
    err_eq2 = abs(facility.registry.total_energy("eq2") - measured) / measured
    err_recal = abs(facility.registry.total_energy("recal") - measured) / measured
    assert err_recal < err_eq2
    assert err_recal < 0.10


def test_alignment_estimates_meter_delay(sb_cal):
    facility, _, _ = _run_hidden_workload(sb_cal, with_meter=True)
    delay = facility.estimated_delay_seconds
    assert delay is not None
    # Package meter delay is 1 ms (one trace period).
    assert delay == pytest.approx(1e-3, abs=1.5e-3)


def test_recalibration_ran_at_least_once(sb_cal):
    facility, _, _ = _run_hidden_workload(sb_cal, with_meter=True)
    assert facility.recalibrators["recal"].recalibration_count >= 1


def test_model_trace_recorded(sb_cal):
    facility, _, _ = _run_hidden_workload(sb_cal, with_meter=False)
    times, watts = facility.model_trace_series()
    assert len(times) > 1000
    assert watts.max() > 5.0      # busy phases visible
    assert watts.min() < 1.0      # idle gaps visible


def test_recalibration_rounds_never_copy_the_meter_history(sb_cal):
    """A round reads the meter's delivered columns (``delivered()``),
    never the ``samples_available`` scan that builds a sample per
    reading."""
    facility, _, _ = _run_hidden_workload(
        sb_cal, with_meter=True, meter_class=_NoScanMeter
    )
    assert facility.recalibrators["recal"].recalibration_count >= 1
    assert facility.estimated_delay_samples is not None


# ----------------------------------------------------------------------
# The delay search at production meter settings
# ----------------------------------------------------------------------
def _phased_run(spec, calibration, duration, busy):
    """A traced facility with the workloads' meter for ``spec``, under a
    load that alternates busy phases of 1-3 ``busy`` seconds with idle."""
    sim = Simulator()
    machine = build_machine(spec, sim)
    kernel = Kernel(machine, sim)
    setup = meter_setup_for(spec, calibration, machine, sim)
    facility = PowerContainerFacility(kernel, calibration, **setup)
    facility.start_tracing()
    container = facility.create_request_container("phased")

    def program():
        phase = 0
        while True:
            phase += 1
            yield Compute(
                cycles=machine.freq_hz * busy * (phase % 3 + 1),
                profile=HIDDEN_HOT,
            )
            yield Sleep(busy)

    kernel.spawn(program(), "phased", container_id=container.id)
    sim.run_until(duration)
    return facility


def _record_delay_searches(monkeypatch):
    """Every round's ``(measured, modeled, max delay)``, as the facility
    hands them to ``estimate_delay``."""
    rounds = []

    def recording(measured, modeled, max_delay_samples):
        rounds.append((measured.copy(), modeled.copy(), max_delay_samples))
        return estimate_delay(measured, modeled, max_delay_samples)

    monkeypatch.setattr(facility_module, "estimate_delay", recording)
    return rounds


def test_package_meter_delay_search_never_runs_an_fft(sb_cal, monkeypatch):
    """4.5 s of 1 ms history: 10 delays over 4,000+ samples is past the
    44k multiply-adds where a delay search used to switch to a
    full-history FFT, yet every round stays on per-delay dots."""

    def no_fft(*args, **kwargs):
        raise AssertionError("FFT in the delay search")

    rounds = _record_delay_searches(monkeypatch)
    monkeypatch.setattr(np.fft, "rfft", no_fft)
    facility = _phased_run(SANDYBRIDGE, sb_cal, 4.5, busy=20e-3)
    assert facility.estimated_delay_samples == 1
    assert rounds[-1][2] == 10
    assert len(rounds[-1][0]) * 11 > 44_000
