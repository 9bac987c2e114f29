"""Incremental meter delivery equals the brute-force history scan.

The meter delivers samples from a pending heap into a production-ordered
list, and the facility consumes them from a delivery log.  These
properties pin both to the definitions they replace, under random fault
profiles (drop, duplicate, extra delay, stuck) and stop/start flaps:

* ``samples_available(now)`` is ``[s for s in all_samples if
  s.available_at <= now]`` and ``latest_available(now)`` its last element,
  at the clock and off it;
* every batch the facility consumes is the old watermark rule --
  ``available_at > consumed_until`` over all delivered samples, in
  production order -- including batches held back while the meter is
  stale.
"""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PowerContainerFacility, calibrate_machine
from repro.faults import MeterFaultInjector, MeterFaultProfile
from repro.hardware import PackageMeter, SANDYBRIDGE, build_machine
from repro.kernel import Kernel
from repro.sim import Simulator


@lru_cache(maxsize=1)
def _calibration():
    return calibrate_machine(SANDYBRIDGE, duration=0.2)


def _available(meter, now):
    return [s for s in meter.all_samples if s.available_at <= now]


profiles = st.builds(
    MeterFaultProfile,
    drop_prob=st.sampled_from([0.0, 0.1, 0.5]),
    duplicate_prob=st.sampled_from([0.0, 0.2, 0.6]),
    extra_delay_prob=st.sampled_from([0.0, 0.2, 0.7]),
    extra_delay=st.sampled_from([0.5e-3, 3e-3, 0.02]),
    stuck_prob=st.sampled_from([0.0, 0.3]),
)
actions = st.lists(
    st.tuples(
        st.floats(min_value=1e-4, max_value=0.04),
        st.sampled_from(["query", "query", "stop", "start"]),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(
    profile=profiles,
    delay=st.sampled_from([0.0, 1e-3, 2.5e-3]),
    seed=st.integers(0, 2**16),
    steps=actions,
    offset=st.floats(min_value=1e-4, max_value=0.05),
)
@example(  # a stop long enough for the facility to declare the meter stale
    profile=MeterFaultProfile(extra_delay_prob=0.5, extra_delay=3e-3,
                              duplicate_prob=0.3),
    delay=1e-3, seed=3,
    steps=[(0.04, "query"), (0.01, "stop"), (0.04, "query"),
           (0.01, "start"), (0.03, "query")],
    offset=0.002,
)
def test_incremental_delivery_matches_the_history_scan(
    profile, delay, seed, steps, offset
):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    meter = PackageMeter(machine, sim, period=1e-3, delay=delay)
    injector = MeterFaultInjector(meter, np.random.default_rng(seed))
    injector.set_profile(profile)
    facility = PowerContainerFacility(
        kernel, _calibration(), meter=meter, recalib_interval=0.01,
        max_delay_seconds=4e-3, meter_staleness_timeout=0.012,
    )

    consumed_until = 0.0
    take = facility._take_new_meter_samples

    def checked_take():
        nonlocal consumed_until
        expected = [
            s for s in _available(meter, sim.now)
            if s.available_at > consumed_until
        ]
        got = take()
        assert got == expected
        if expected:
            consumed_until = max(s.available_at for s in expected)
        assert facility._meter_consumed_until == consumed_until
        return got

    facility._take_new_meter_samples = checked_take
    facility.start_tracing()

    for dt, kind in steps:
        sim.run_until(sim.now + dt)
        if kind == "stop":
            meter.stop()
        elif kind == "start":
            meter.start()
        for now in (sim.now, sim.now - offset, sim.now + offset, sim.now):
            expected = _available(meter, now)
            assert meter.samples_available(now) == expected
            assert meter.latest_available(now) == (
                expected[-1] if expected else None
            )
    sim.run_until(sim.now + 0.05)
    # The facility's measured series mirrors the delivered list.
    delivered = _available(meter, sim.now)
    facility._run_recalibration()
    measured = np.array([s.watts for s in delivered])
    measured[~np.isfinite(measured)] = 0.0
    assert np.array_equal(facility._measured[: len(delivered)], measured)


def test_stale_meter_batch_is_held_back_then_consumed():
    """The fixed example above does cross the stale state and back."""
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    meter = PackageMeter(machine, sim, period=1e-3, delay=1e-3)
    facility = PowerContainerFacility(
        kernel, _calibration(), meter=meter, recalib_interval=0.01,
        max_delay_seconds=4e-3, meter_staleness_timeout=0.012,
    )
    batches = []
    take = facility._take_new_meter_samples

    def recorded_take():
        batches.append((sim.now, facility.health.meter_recoveries, take()))
        return batches[-1][2]

    facility._take_new_meter_samples = recorded_take
    facility.start_tracing()
    sim.run_until(0.05)
    meter.stop()
    sim.run_until(0.09)
    assert facility.health.meter_state == "stale"
    meter.start()
    sim.run_until(0.12)
    assert facility.health.meter_fallbacks == 1
    assert facility.health.meter_recoveries == 1
    consumed = [s for _now, _recoveries, batch in batches for s in batch]
    # Every delivered sample is consumed once, in production order.
    assert consumed == _available(meter, facility._meter_consumed_until)
    # No round consumed while stale; the first round after the recovery
    # takes the samples delivered since the restart, held back until then.
    recovered_at, _, first = next(b for b in batches if b[1] == 1)
    assert first and first[0].available_at < recovered_at
    # (Stale from the 0.07 s round: 19 ms since the last delivery.)
    assert all(now < 0.065 or now >= recovered_at for now, _, _ in batches)
