"""Tests for Compute slices, timing, counters, and duty-cycle effects."""

import pytest

from repro.kernel import Compute, ProcessState, Sleep
from tests.kernel.conftest import SPIN, MEMHEAVY


def test_compute_takes_cycles_over_frequency_seconds(world):
    sim, machine, kernel = world
    freq = machine.freq_hz
    done = []

    def program():
        yield Compute(cycles=freq * 0.5, profile=SPIN)  # 0.5 s of work
        done.append(sim.now)

    kernel.spawn(program(), "worker")
    sim.run_until(1.0)
    assert done == [pytest.approx(0.5)]


def test_counters_accumulate_profile_events(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=1e6, profile=MEMHEAVY)

    kernel.spawn(program(), "worker")
    sim.run_until(1.0)
    totals = machine.cores[0].counters.read()
    assert totals.nonhalt_cycles == pytest.approx(1e6, rel=1e-6)
    assert totals.instructions == pytest.approx(0.6e6, rel=1e-6)
    assert totals.cache_refs == pytest.approx(15_000, rel=1e-6)
    assert totals.mem_trans == pytest.approx(8_000, rel=1e-6)


def test_process_exits_and_becomes_dead_without_parent(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=1000, profile=SPIN)

    proc = kernel.spawn(program(), "w")
    sim.run_until(0.1)
    assert proc.state is ProcessState.DEAD


def test_zero_cycle_compute_completes_instantly(world):
    sim, machine, kernel = world
    steps = []

    def program():
        yield Compute(cycles=0, profile=SPIN)
        steps.append(sim.now)
        yield Compute(cycles=0, profile=SPIN)
        steps.append(sim.now)

    kernel.spawn(program(), "w")
    sim.run_until(0.01)
    assert steps == [0.0, 0.0]


def test_duty_cycle_halves_progress_rate(world):
    sim, machine, kernel = world
    machine.cores[0].set_duty_level(4)  # half speed
    done = []

    def program():
        yield Compute(cycles=machine.freq_hz * 0.1, profile=SPIN)
        done.append(sim.now)

    kernel.spawn(program(), "w")
    sim.run_until(1.0)
    assert done == [pytest.approx(0.2)]  # twice as long


def test_mid_slice_duty_change_preserves_total_cycles(world):
    sim, machine, kernel = world
    core = machine.cores[0]
    done = []
    total_cycles = machine.freq_hz * 0.2  # 0.2 s at full speed

    def program():
        yield Compute(cycles=total_cycles, profile=SPIN)
        done.append(sim.now)

    kernel.spawn(program(), "w")
    # After 0.1 s (half done), drop to half speed: remaining half takes 0.2 s.
    sim.run_until(0.1)
    kernel.set_core_duty(core, 4)
    sim.run_until(1.0)
    assert done == [pytest.approx(0.3, rel=1e-6)]
    assert core.counters.read().nonhalt_cycles == pytest.approx(
        total_cycles, rel=1e-6
    )


def test_continued_slices_reuse_the_fired_slice_end_handle(world):
    """A slice that continues the same action re-arms the handle that just
    fired.  Across overflow and quantum boundaries and two mid-slice duty
    changes: a cancelled handle never fires, every started slice ends
    exactly once, and the queue never holds one handle twice."""
    sim, machine, kernel = world
    core = machine.cores[0]
    started = []  # (slice ordinal, end handle), in start order
    ended = []  # slice ordinals, in end order
    cancelled = set()  # ids of handles cancelled by duty changes
    fired = []  # the slice-end handles that fired, in firing order
    start_slice = kernel._start_slice
    end_slice = kernel._end_slice
    close_partial = kernel._close_slice_partial

    def queue_unique():
        handles = [id(entry[2]) for entry in sim._queue]
        assert len(handles) == len(set(handles))

    def spied_start(process, core_, quantum_deadline, event=None):
        start_slice(process, core_, quantum_deadline, event)
        started.append((len(started), kernel._slices[core_.index].end_event))
        queue_unique()

    def spied_end(core_index):
        handle = sim.current_event
        assert not handle.cancelled and id(handle) not in cancelled
        fired.append(handle)
        ordinal = next(n for n, h in reversed(started) if h is handle)
        ended.append(ordinal)
        end_slice(core_index)
        queue_unique()

    def spied_close(core_, active):
        ordinal = next(
            n for n, h in reversed(started) if h is active.end_event
        )
        ended.append(ordinal)
        close_partial(core_, active)
        cancelled.add(id(active.end_event))

    kernel._start_slice = spied_start
    kernel._end_slice = spied_end
    kernel._close_slice_partial = spied_close
    done = []

    def program():
        yield Compute(cycles=machine.freq_hz * 0.012, profile=SPIN)
        done.append(sim.now)

    kernel.spawn(program(), "w", pinned_core=0)
    sim.schedule(3.3e-3, kernel.set_core_duty, core, 4)
    sim.schedule(7.7e-3, kernel.set_core_duty, core, 8)
    sim.run_until(0.1)
    # Half speed for 4.4 ms costs 2.2 ms of extra wall time.
    assert done == [pytest.approx(0.012 + (7.7e-3 - 3.3e-3) / 2, rel=1e-6)]
    assert len(cancelled) == 2
    assert sorted(ended) == [n for n, _ in started]  # each ends once
    assert len(kernel.hooks.of_kind("overflow")) >= 8
    # Continuations re-armed fired handles: far fewer handles than slices.
    handles = {id(h) for _, h in started}
    assert len(handles) <= 4 < len(started)
    assert len(fired) > len({id(h) for h in fired})


def test_sleep_blocks_without_consuming_cpu(world):
    sim, machine, kernel = world
    times = []

    def program():
        yield Sleep(0.25)
        times.append(sim.now)

    proc = kernel.spawn(program(), "sleeper")
    sim.run_until(1.0)
    assert times == [pytest.approx(0.25)]
    assert proc.cpu_seconds == pytest.approx(0.0)


def test_cpu_seconds_tracks_occupancy(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=machine.freq_hz * 0.3, profile=SPIN)

    proc = kernel.spawn(program(), "w")
    sim.run_until(1.0)
    assert proc.cpu_seconds == pytest.approx(0.3, rel=1e-6)


def test_energy_integrated_during_compute(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=machine.freq_hz * 1.0, profile=SPIN)

    kernel.spawn(program(), "w")
    sim.run_until(2.0)
    machine.checkpoint()
    model = machine.true_model
    expected_active = (model.w_core + model.w_ins + model.maintenance_watts) * 1.0
    assert machine.integrator.active_joules == pytest.approx(
        expected_active, rel=1e-6
    )


def test_overflow_interrupts_fire_about_once_per_busy_millisecond(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=machine.freq_hz * 0.01, profile=SPIN)  # 10 ms

    kernel.spawn(program(), "w")
    sim.run_until(1.0)
    overflows = kernel.hooks.of_kind("overflow")
    assert 8 <= len(overflows) <= 11


def test_no_overflow_interrupts_when_idle(world):
    sim, machine, kernel = world
    sim.run_until(1.0)
    assert kernel.hooks.of_kind("overflow") == []


@pytest.mark.parametrize("wrap", [False, True])
def test_effective_core_counters_add_the_in_flight_slice(world, wrap):
    """Mid-slice, the read is the architectural register (wrapped modulo
    the counter width when the bank wraps) plus the slice's events so
    far -- bit for bit the ``read()`` + ``events_for_cycles`` + ``add``
    composition."""
    from repro.hardware import EventVector
    from repro.hardware.counters import COUNTER_WRAP

    sim, machine, kernel = world
    core = machine.cores[0]
    core.counters.accumulate(EventVector(
        nonhalt_cycles=COUNTER_WRAP - 1e5, instructions=COUNTER_WRAP - 7e4,
        flops=COUNTER_WRAP - 3.0, cache_refs=12.5, mem_trans=COUNTER_WRAP,
    ))
    core.counters.wrap = wrap
    core.counters.acknowledge_overflow()

    def program():
        yield Compute(cycles=machine.freq_hz * 0.01, profile=MEMHEAVY)

    kernel.spawn(program(), "w", pinned_core=0)
    sim.run_until(0.37e-3)
    active = kernel._slices[0]
    cycles = min(
        core.cycles_for_seconds(sim.now - active.start_time),
        active.process.compute_remaining / active.work_fraction,
    )
    assert cycles > 0
    expected = core.counters.read()
    inflight = MEMHEAVY.events_for_cycles(cycles * active.work_fraction)
    inflight.nonhalt_cycles = cycles
    expected.add(inflight)
    assert kernel.effective_core_counters(core) == (
        expected.nonhalt_cycles, expected.instructions, expected.flops,
        expected.cache_refs, expected.mem_trans,
    )
    if wrap:
        assert expected.mem_trans < 1e9  # the register really wrapped
