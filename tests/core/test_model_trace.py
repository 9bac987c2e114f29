"""Tests for the facility's machine-level model trace."""

import numpy as np
import pytest

from repro.core import PowerContainerFacility
from repro.core.model import FEATURES_FULL
from repro.hardware import RateProfile, SANDYBRIDGE, build_machine
from repro.kernel import Compute, Kernel, Sleep
from repro.sim import Simulator

WORK = RateProfile(name="w", ipc=1.0, cache_per_cycle=0.008)


@pytest.fixture
def traced(sb_cal):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, sb_cal, trace_period=5e-3)
    facility.start_tracing()

    def program():
        for _ in range(10):
            yield Compute(cycles=machine.freq_hz * 10e-3, profile=WORK)
            yield Sleep(5e-3)

    kernel.spawn(program(), "w")
    sim.run_until(0.2)
    return sim, machine, facility


def test_trace_period_spacing(traced):
    _sim, _machine, facility = traced
    times, _watts = facility.model_trace_series()
    gaps = np.diff(times)
    assert np.allclose(gaps, 5e-3)


def test_trace_rows_have_full_feature_width(traced):
    _sim, _machine, facility = traced
    rows = facility.model_trace_rows()
    times, _watts = facility.model_trace_series()
    assert rows.shape == (len(times), len(FEATURES_FULL))
    assert len(rows) >= 10
    assert (rows >= -1e-9).all()


def test_trace_watts_track_activity(traced):
    _sim, _machine, facility = traced
    _times, watts = facility.model_trace_series()
    # The duty pattern (10 ms on, 5 ms off) shows up in the series.
    assert watts.max() > 10.0
    assert watts.min() < 2.0


def test_trace_mcore_never_exceeds_core_count(traced):
    _sim, _machine, facility = traced
    mcore = facility.model_trace_rows()[:, FEATURES_FULL.index("mcore")]
    assert len(mcore) >= 10
    assert (mcore <= 4.0 + 0.05).all()


def test_trace_chipshare_bounded_by_chip_count(traced):
    _sim, _machine, facility = traced
    share = facility.model_trace_rows()[:, FEATURES_FULL.index("mchipshare")]
    assert len(share) >= 10
    assert ((0.0 <= share) & (share <= 1.0 + 1e-9)).all()


def test_trace_views_are_read_only_snapshots(traced):
    sim, _machine, facility = traced
    times, watts = facility.model_trace_series()
    rows = facility.model_trace_rows()
    for view in (times, watts, rows):
        with pytest.raises(ValueError):
            view[0] = 0.0
    before = (times.copy(), watts.copy(), rows.copy())
    sim.run_until(sim.now + 5.5)  # past 1024 ticks: the buffers regrow
    assert len(facility.model_trace_series()[0]) > 1024
    for view, copy in zip((times, watts, rows), before):
        assert np.array_equal(view, copy)
