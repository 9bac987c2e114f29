"""The occupancy counter against the periodic sampler it replaces.

The oracle is the sampler itself: one ``schedule_recurring`` event per
grid instant that counts which chips are active and which devices are
busy.  Every transition in these schedules is queued before the oracle's
chain is armed, so each grid instant sees every transition at its own
time -- the counter's tie rule -- and the two must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import OccupancyCounter, RateProfile, WESTMERE, build_machine
from repro.kernel import Compute, Kernel
from repro.sim import Simulator

WORK = RateProfile(name="occupancy-work", ipc=1.0)


class TickingOracle:
    """Chip-active and device-busy counts, one recurring event per instant."""

    def __init__(self, machine, period):
        self.machine = machine
        self.reset()
        self.event = machine.simulator.schedule_recurring(period, self._tick)

    def reset(self):
        self.instants = 0
        self.chip_active = [0] * len(self.machine.chips)
        self.disk_busy = 0
        self.net_busy = 0

    def _tick(self):
        self.instants += 1
        for chip in self.machine.chips:
            if chip.active:
                self.chip_active[chip.index] += 1
        if self.machine.disk.busy:
            self.disk_busy += 1
        if self.machine.net.busy:
            self.net_busy += 1

    def take(self):
        total = max(self.instants, 1)
        fractions = (
            sum(count / total for count in self.chip_active),
            self.disk_busy / total,
            self.net_busy / total,
        )
        self.reset()
        return fractions


def grid(start, period, n):
    """The first ``n`` instants of the recurring chain armed at ``start``."""
    return np.add.accumulate(np.r_[start, np.full(n, period)])[1:]


def test_add_accumulate_reproduces_the_recurring_chain():
    for start, period in ((0.0, 1e-3), (0.37e-3, 1e-4), (1.2345, 1e-4)):
        sim = Simulator()
        sim.run_until(start)
        times = []
        sim.schedule_recurring(period, lambda: times.append(sim.now))
        sim.run_until(start + 5000 * period + period / 2)
        assert len(times) == 5000
        assert np.array_equal(np.array(times), grid(start, period, 5000))


def _apply(machine, kind, index):
    """One hardware state change; a no-op when it would be invalid."""
    if kind in ("disk", "net"):
        device = machine.disk if kind == "disk" else machine.net
        if index % 2 == 0:
            device.begin_transfer(0.0)
        elif device.inflight:
            device.end_transfer()
        return
    core = machine.cores[index % len(machine.cores)]
    if kind == "toggle":
        if core.busy:
            core.end_activity()
        else:
            core.begin_activity(WORK)
    elif kind == "blip" and core.busy:
        # 1 -> 0 -> 1 inside one event, as a duty change on a busy core.
        core.end_activity()
        core.begin_activity(WORK)


_N_INSTANTS = 40

_when = st.one_of(
    # Exactly on a grid instant ...
    st.tuples(st.integers(0, _N_INSTANTS), st.just(0.0)),
    # ... or anywhere inside the period after it.
    st.tuples(
        st.integers(0, _N_INSTANTS),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    start=st.sampled_from([0.0, 0.37e-3, 1.2345]),
    period=st.sampled_from([1e-4, 1e-3]),
    changes=st.lists(
        st.tuples(
            _when,
            st.sampled_from(["toggle", "toggle", "blip", "disk", "net"]),
            st.integers(0, 15),
        ),
        max_size=40,
    ),
    boundaries=st.lists(st.integers(1, _N_INSTANTS), max_size=4),
    reader=st.sampled_from(["none", "equal-period", "longer-period"]),
    reads=st.lists(_when, max_size=4),
)
def test_counter_matches_ticking_oracle(
    start, period, changes, boundaries, reader, reads
):
    sim = Simulator()
    machine = build_machine(WESTMERE, sim)
    sim.run_until(start)
    instants = grid(start, period, _N_INSTANTS + 2)

    def at(when):
        k, fraction = when
        return (start if k == 0 else instants[k - 1]) + fraction * period

    seen = []

    def read(inclusive):
        seen.append((counter.take(inclusive=inclusive), oracle.take()))

    for when, kind, index in changes:
        sim.schedule_at(at(when), _apply, machine, kind, index)
    # Checkpoint-like reads inside events, queued before the oracle's
    # chain: the oracle tick of their instant has not fired yet.
    for when in reads:
        sim.schedule_at(at(when), read, False)
    oracle = TickingOracle(machine, period)
    counter = OccupancyCounter(machine, period)
    # A facility-like trace chain armed after the oracle: on an equal
    # period it fires right after each oracle tick; on a longer one it
    # fires first at any instant the two grids share.
    if reader == "equal-period":
        sim.schedule_recurring(period, read, True)
    elif reader == "longer-period":
        sim.schedule_recurring(7 * period, read, False)

    for k in sorted(set(boundaries)) + [_N_INSTANTS]:
        sim.run_until(instants[k - 1])
        read(True)
        assert counter._next == oracle.event.time
    for mine, theirs in seen:
        assert mine == theirs


def test_a_duty_change_on_a_busy_core_keeps_its_chip_active():
    """``set_core_duty`` closes and restarts the running slice: the chip
    goes 1 -> 0 -> 1 inside one event, at a grid instant."""
    sim = Simulator()
    machine = build_machine(WESTMERE, sim)
    kernel = Kernel(machine, sim)
    period = 1e-3
    instants = grid(0.0, period, 20)
    core = machine.cores[0]

    def program():
        yield Compute(cycles=machine.freq_hz * 0.01, profile=WORK)

    kernel.spawn(program(), "w", pinned_core=0)
    sim.schedule_at(instants[4], kernel.set_core_duty, core, 4)
    sim.schedule_at(instants[9], kernel.set_core_duty, core, 8)
    oracle = TickingOracle(machine, period)
    counter = OccupancyCounter(machine, period)
    sim.run_until(instants[-1])
    assert counter.take() == oracle.take()
    assert not machine.chips[0].active


def test_an_instant_sees_every_transition_at_its_own_time():
    """The tie rule: a transition at exactly a grid instant is seen by
    that instant, however late it was scheduled."""
    sim = Simulator()
    machine = build_machine(WESTMERE, sim)
    period = 1e-3
    instants = grid(0.0, period, 10)
    core = machine.cores[0]
    counter = OccupancyCounter(machine, period)

    def schedule_late(time, action):
        # Queued less than one period before it fires.
        sim.schedule_at(time - period / 2, sim.schedule_at, time, action)

    schedule_late(instants[3], lambda: core.begin_activity(WORK))
    schedule_late(instants[6], core.end_activity)
    sim.run_until(instants[-1])
    # Instants 3, 4 and 5 (0-based) saw the chip active; 6 did not.
    chipshare, mdisk, mnet = counter.take()
    assert chipshare == 3 / 10
    assert (mdisk, mnet) == (0.0, 0.0)


def test_a_read_at_an_instant_closes_it_only_when_inclusive():
    sim = Simulator()
    machine = build_machine(WESTMERE, sim)
    period = 1e-3
    instants = grid(0.0, period, 4)
    counter = OccupancyCounter(machine, period)
    machine.disk.begin_transfer(0.0)
    sim.run_until(instants[1])
    assert counter.take(inclusive=False) == (0.0, 1.0, 0.0)  # instant 0
    machine.disk.end_transfer()
    # Instant 1 sees the idle disk: the transfer ended at its time.
    sim.run_until(instants[3])
    assert counter.take() == (0.0, 0.0, 0.0)


def test_one_counter_per_machine():
    """A second counter would take the hooks and leave the first stale."""
    machine = build_machine(WESTMERE, Simulator())
    OccupancyCounter(machine, 1e-3)
    with pytest.raises(ValueError, match="occupancy counter is attached"):
        OccupancyCounter(machine, 1e-4)
