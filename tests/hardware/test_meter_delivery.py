"""Meter delivery and the facility's refit batches equal the brute-force rule.

A reading counts as delivered by ``now`` when ``available_at <= now``, and
each recalibration round refits on the delivered readings past the
facility's watermark.  These properties pin both to that definition,
computed over ``meter.all_samples``, under random fault profiles (drop,
duplicate, extra delay, stuck, NaN) and stop/start flaps:

* ``samples_available(now)`` is ``[s for s in all_samples if
  s.available_at <= now]`` and ``latest_available(now)`` its last element,
  at the clock and off it; ``delivered()`` is its two columns;
* every round consumes the old watermark rule's batch -- ``available_at >
  consumed_until`` over all delivered samples, in production order: the
  rows handed to ``OnlineRecalibrator.add_pairs``, the new watermark and
  the count of rejected non-finite readings all follow from it, including
  for batches held back while the meter is stale.
"""

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PowerContainerFacility, calibrate_machine
from repro.core.model import FEATURES_FULL
from repro.faults import MeterFaultInjector, MeterFaultProfile
from repro.hardware import PackageMeter, SANDYBRIDGE, build_machine
from repro.kernel import Kernel
from repro.sim import Simulator

#: The facilities' delay window: 4 ms at the meter's 1 ms period.
_MAX_DELAY_SAMPLES = 4


@lru_cache(maxsize=1)
def _calibration():
    return calibrate_machine(SANDYBRIDGE, duration=0.2)


def _available(meter, now):
    return [s for s in meter.all_samples if s.available_at <= now]


def _same(got, expected):
    """Equal sample lists, a NaN reading equal to a NaN reading."""
    return np.array_equal(_fields(got), _fields(expected), equal_nan=True)


def _fields(samples):
    return np.array([(s.interval_end, s.available_at, s.watts) for s in samples])


def _world(delay):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    meter = PackageMeter(machine, sim, period=1e-3, delay=delay)
    facility = PowerContainerFacility(
        kernel, _calibration(), meter=meter, recalib_interval=0.01,
        max_delay_seconds=_MAX_DELAY_SAMPLES * 1e-3,
        meter_staleness_timeout=0.012,
    )
    return sim, meter, facility


def _expected_pairs(facility, batch):
    """``add_pairs`` arguments per model, from the batch one sample at a time."""
    delay = facility.estimated_delay_samples
    indexes, active = [], []
    for sample in batch:
        if not np.isfinite(sample.watts):
            continue
        index = round(sample.available_at / facility.trace_period) - 1 - delay
        if 0 <= index < facility._trace_len:
            indexes.append(index)
            watts = sample.watts - facility.meter_idle_watts
            active.append(0.0 if watts < 0.0 else watts)
    if not indexes:
        return {}
    return {
        name: (
            facility._trace_rows[indexes][
                :, [FEATURES_FULL.index(f) for f in facility.models[name].features]
            ],
            np.array(active),
        )
        for name in facility.recalibrators
    }


def _check_rounds(sim, meter, facility):
    """Check every recalibration round against the brute-force rule.

    Returns the list the rounds append ``(now, meter recoveries, batch)``
    to, with an empty batch for a round that consumed nothing.  Install
    before :meth:`start_tracing`, which schedules the round.
    """
    assert not facility.meter_covers_peripherals
    rounds = []
    pairs = {}
    for name, recalibrator in facility.recalibrators.items():
        def recording(rows, watts, name=name, add=recalibrator.add_pairs):
            pairs[name] = (rows.copy(), watts.copy())
            add(rows, watts)

        recalibrator.add_pairs = recording
    tick = facility._recalib_tick

    def checked_tick():
        watermark = facility._meter_consumed_until
        rejected = facility.health.rejected_meter_samples
        delivered = _available(meter, sim.now)
        batch = [s for s in delivered if s.available_at > watermark]
        pairs.clear()
        tick()
        consumed = (
            facility.health.meter_state == "ok"
            and len(delivered) >= _MAX_DELAY_SAMPLES + 5
            and facility._trace_len >= 5
            and batch
        )
        if not consumed:
            assert facility._meter_consumed_until == watermark
            assert facility.health.rejected_meter_samples == rejected
            assert pairs == {}
            rounds.append((sim.now, facility.health.meter_recoveries, []))
            return
        assert facility._meter_consumed_until == max(
            s.available_at for s in batch
        )
        assert facility.health.rejected_meter_samples == rejected + sum(
            not np.isfinite(s.watts) for s in batch
        )
        expected = _expected_pairs(facility, batch)
        assert pairs.keys() == expected.keys()
        for name, (rows, watts) in expected.items():
            assert np.array_equal(pairs[name][0], rows)
            assert np.array_equal(pairs[name][1], watts)
        rounds.append((sim.now, facility.health.meter_recoveries, batch))

    facility._recalib_tick = checked_tick
    return rounds


profiles = st.builds(
    MeterFaultProfile,
    drop_prob=st.sampled_from([0.0, 0.1, 0.5]),
    nan_prob=st.sampled_from([0.0, 0.2]),
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
    sim, meter, facility = _world(delay)
    injector = MeterFaultInjector(meter, np.random.default_rng(seed))
    injector.set_profile(profile)
    rounds = _check_rounds(sim, meter, facility)
    facility.start_tracing()

    for dt, kind in steps:
        sim.run_until(sim.now + dt)
        if kind == "stop":
            meter.stop()
        elif kind == "start":
            meter.start()
        for now in (sim.now, sim.now - offset, sim.now + offset, sim.now):
            expected = _available(meter, now)
            assert _same(meter.samples_available(now), expected)
            latest = meter.latest_available(now)
            assert _same([latest] if latest else [], expected[-1:])
    sim.run_until(sim.now + 0.05)
    assert rounds
    delivered = _available(meter, sim.now)
    available, watts = meter.delivered()
    assert np.array_equal(available, [s.available_at for s in delivered])
    assert np.array_equal(
        watts, [s.watts for s in delivered], equal_nan=True
    )


def test_stale_meter_batch_is_held_back_then_consumed():
    """The fixed example above does cross the stale state and back."""
    sim, meter, facility = _world(1e-3)
    rounds = _check_rounds(sim, meter, facility)
    facility.start_tracing()
    sim.run_until(0.05)
    meter.stop()
    sim.run_until(0.09)
    assert facility.health.meter_state == "stale"
    meter.start()
    sim.run_until(0.12)
    assert facility.health.meter_fallbacks == 1
    assert facility.health.meter_recoveries == 1
    consumed = [s for _now, _recoveries, batch in rounds for s in batch]
    # Every delivered sample is consumed once, in production order.
    assert consumed == _available(meter, facility._meter_consumed_until)
    # No round consumed while stale; the first round after the recovery
    # takes the samples delivered since the restart, held back until then.
    recovered_at, _, first = next(r for r in rounds if r[1] == 1)
    assert first and first[0].available_at < recovered_at
    # (Stale from the 0.07 s round: 19 ms since the last delivery.)
    assert all(
        now < 0.065 or now >= recovered_at
        for now, _, batch in rounds if batch
    )
