"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Simulator, SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_until_executes_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run_until(2.5)
    assert fired == ["a", "b"]
    assert sim.now == 2.5


def test_equal_time_events_fire_in_fifo_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run_until(1.0)
    assert fired == list("abcde")


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run_until(5.0)
    assert sim.now == 5.0


def test_callback_args_are_passed():
    sim = Simulator()
    got = []
    sim.schedule(0.5, lambda a, b: got.append((a, b)), 1, "x")
    sim.run_until(1.0)
    assert got == [(1, "x")]


def test_events_scheduled_during_run_execute_same_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.5, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run_until(2.0)
    assert fired == ["first", "second"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run_until(2.0)
    assert fired == []


def test_cancel_one_of_several_equal_time_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    handle = sim.schedule(1.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "c")
    handle.cancel()
    sim.run_until(1.0)
    assert fired == ["a", "c"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(2.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.5, lambda: None)


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run_until(3.0)
    with pytest.raises(SimulationError):
        sim.run_until(1.0)


def test_non_finite_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)


def test_peek_time_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek_time() == 2.0


def test_step_returns_false_when_drained():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_run_executes_all_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_run_livelock_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(0.001, rearm)

    sim.schedule(0.0, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run_until(10.0)
    assert sim.events_processed == 5


def test_reentrant_run_rejected():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run_until(10.0)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run_until(5.0)
    assert len(errors) == 1


# ---------------------------------------------------------------------------
# Recurring events
# ---------------------------------------------------------------------------
def test_recurring_event_fires_every_period():
    sim = Simulator()
    times = []
    sim.schedule_recurring(1.0, lambda: times.append(sim.now))
    sim.run_until(4.5)
    assert times == [1.0, 2.0, 3.0, 4.0]


def test_recurring_first_delay_overrides_first_firing():
    sim = Simulator()
    times = []
    sim.schedule_recurring(1.0, lambda: times.append(sim.now), first_delay=0.25)
    sim.run_until(3.0)
    assert times == [0.25, 1.25, 2.25]


def test_recurring_event_cancel_stops_rearming():
    sim = Simulator()
    times = []
    event = sim.schedule_recurring(1.0, lambda: times.append(sim.now))
    sim.run_until(2.5)
    event.cancel()
    sim.run_until(10.0)
    assert times == [1.0, 2.0]


def test_recurring_callback_self_cancels_via_current_event():
    sim = Simulator()
    times = []

    def tick():
        times.append(sim.now)
        if len(times) == 3:
            sim.current_event.cancel()

    sim.schedule_recurring(1.0, tick)
    sim.run_until(10.0)
    assert times == [1.0, 2.0, 3.0]


def test_current_event_is_none_outside_callbacks():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.current_event is not None))
    assert sim.current_event is None
    sim.run_until(2.0)
    assert seen == [True]
    assert sim.current_event is None


def test_recurring_rejects_bad_period():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_recurring(0.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_recurring(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_recurring(float("inf"), lambda: None)


# ---------------------------------------------------------------------------
# pending / raw_pending and the cancelled-entry sweep
# ---------------------------------------------------------------------------
def test_pending_counts_only_live_events():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    assert sim.pending == 4
    handles[0].cancel()
    handles[2].cancel()
    assert sim.pending == 2
    assert sim.raw_pending == 4


def test_sweep_bounds_queue_under_cancel_churn():
    from repro.sim.engine import _SWEEP_MIN_SIZE

    sim = Simulator()
    live = 0
    for i in range(8 * _SWEEP_MIN_SIZE):
        handle = sim.schedule(float(i + 1), lambda: None)
        if i % 97 == 0:
            live += 1
        else:
            handle.cancel()
    # Crossing the sweep threshold compacts cancelled entries, so the raw
    # queue stays bounded even though ~8x threshold entries were pushed.
    assert sim.pending == live
    assert sim.raw_pending <= 2 * _SWEEP_MIN_SIZE


def test_sweep_preserves_firing_order():
    from repro.sim.engine import _SWEEP_MIN_SIZE

    sim = Simulator()
    fired = []
    keep = []
    for i in range(2 * _SWEEP_MIN_SIZE):
        handle = sim.schedule(float(i + 1), fired.append, i)
        if i % 97 == 0:
            keep.append(i)
        else:
            handle.cancel()
    sim.schedule(50000.0, fired.append, -1)
    sim.run()
    assert fired == keep + [-1]


def test_run_epoch_rejects_running_backwards():
    sim = Simulator()
    sim.run_epoch(0.5)
    with pytest.raises(SimulationError):
        sim.run_epoch(0.25)
