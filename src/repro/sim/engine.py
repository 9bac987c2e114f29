"""Deterministic discrete-event simulation core.

The :class:`Simulator` keeps a priority queue of timestamped callbacks.
Events at equal timestamps fire in scheduling order (FIFO), which makes every
run fully deterministic for a given seed and schedule -- a requirement for
reproducible experiments and for the resumable accounting logic built on top.

Time is measured in simulated **seconds** as a float.  Sub-microsecond
activity (e.g. a container maintenance operation that takes 0.95 us) is
representable without special handling.

Performance notes (this is the innermost loop of every experiment):

* Queue entries are plain ``(time, seq, event)`` tuples.  The ``seq`` drawn
  from a single monotonic counter is unique, so tuple comparison never falls
  through to the event object, and heap operations stay in C.
* Periodic activity (meters, trace ticks, counter-overflow sampling) uses
  :meth:`schedule_recurring`: the engine re-pushes the same event object
  after each firing instead of allocating a fresh handle per period.  The
  re-push draws its ``seq`` immediately after the callback returns -- the
  exact point where the old "reschedule yourself as your last statement"
  pattern drew it -- so event interleaving (and therefore every seeded
  fingerprint) is unchanged.
* Cancelled entries are swept (filter + re-heapify) once they dominate an
  oversized queue, bounding memory under workloads that cancel most of what
  they schedule (e.g. slice-end events cut short by context switches).
  Heapify preserves pop order because ``(time, seq)`` is a total order.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulation engine."""


@dataclass(slots=True)
class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    ``period`` is ``None`` for one-shot events.  For recurring events it is
    the firing interval: after the callback returns the engine re-arms the
    same handle ``period`` seconds later, until :meth:`cancel` is called
    (from inside the callback or outside).
    """

    time: float
    callback: Callable[..., None]
    args: tuple
    label: str = ""
    cancelled: bool = False
    period: Optional[float] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips (and stops re-arming) it."""
        self.cancelled = True


#: Queue length below which cancelled-entry sweeps are never attempted.
_SWEEP_MIN_SIZE = 512


class Simulator:
    """A discrete-event simulator with a float-seconds virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run_until(10.0)
    """

    def __init__(self) -> None:
        #: Heap of ``(time, seq, ScheduledEvent)`` tuples.
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._event_count = 0
        #: Queue length that triggers the next cancelled-entry sweep check.
        self._sweep_threshold = _SWEEP_MIN_SIZE
        #: The event whose callback is currently executing (``None`` between
        #: events).  A recurring callback cancels *this* to stop its own
        #: chain -- self-identifying, so two live chains sharing a callback
        #: (a stop/start flap race) each shut down independently.
        self.current_event: Optional[ScheduledEvent] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._event_count

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Linear in queue size; intended for tests and progress reporting,
        not for per-event polling.  See :attr:`raw_pending` for the raw
        entry count including cancelled-but-unswept entries.
        """
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    @property
    def raw_pending(self) -> int:
        """Raw queue entry count, including cancelled entries (diagnostic)."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # Inlined schedule_at (this is called once per compute slice): a
        # non-negative delay from a finite clock can never land in the
        # past, so only the finiteness check remains.
        time = self._now + delay
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"non-finite event time {time!r}")
        event = ScheduledEvent(time=time, callback=callback, args=args, label=label)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        if len(self._queue) >= self._sweep_threshold:
            self._sweep_cancelled()
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"non-finite event time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        event = ScheduledEvent(time=time, callback=callback, args=args, label=label)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        if len(self._queue) >= self._sweep_threshold:
            self._sweep_cancelled()
        return event

    def schedule_recurring(
        self,
        period: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
        first_delay: Optional[float] = None,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` every ``period`` seconds.

        The first firing happens ``first_delay`` seconds from now (default:
        one full period).  After each firing the engine re-arms the same
        handle, so periodic work costs one heap push per period and zero
        handle allocations.  Stop the chain with ``handle.cancel()`` --
        typically from inside the callback, which reproduces the classic
        "check a running flag, return without rescheduling" shutdown of
        self-rescheduling callbacks.
        """
        if period <= 0 or math.isnan(period) or math.isinf(period):
            raise SimulationError(f"invalid recurrence period {period!r}")
        delay = period if first_delay is None else first_delay
        event = self.schedule(delay, callback, *args, label=label)
        event.period = period
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is drained."""
        self._drop_cancelled_head()
        if not self._queue:
            return None
        return self._queue[0][0]

    def step(self) -> bool:
        """Execute the next live event.  Returns ``False`` when none remain."""
        self._drop_cancelled_head()
        if not self._queue:
            return False
        _, _, event = heapq.heappop(self._queue)
        self._now = event.time
        self._event_count += 1
        self.current_event = event
        try:
            event.callback(*event.args)
        finally:
            self.current_event = None
        # Re-arm recurring events after (and only after) a normal return.
        # Drawing the seq here keeps the global scheduling order identical
        # to a callback that rescheduled itself as its last statement.
        if event.period is not None and not event.cancelled:
            event.time = self._now + event.period
            heapq.heappush(self._queue, (event.time, next(self._seq), event))
        return True

    def run_until(self, time: float) -> None:
        """Run events with timestamps ``<= time``; advance the clock to it.

        The clock ends exactly at ``time`` even if the queue drains earlier,
        so fixed-horizon experiments always cover the same duration.
        """
        if time < self._now:
            raise SimulationError(f"cannot run backwards to {time}")
        self._guard_reentry()
        self._running = True
        # Inlined peek_time + step: one cancelled-head sweep per event
        # instead of two, and no per-event method dispatch.  Semantics are
        # identical; ``self._queue`` and ``self._seq`` are re-read every
        # iteration because a callback-triggered sweep rebinds the queue and
        # a callback-triggered ``snapshot_state`` rebinds the seq counter.
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            while True:
                queue = self._queue
                while queue and queue[0][2].cancelled:
                    heappop(queue)
                if not queue or queue[0][0] > time:
                    break
                _, _, event = heappop(queue)
                self._now = event.time
                self._event_count += 1
                self.current_event = event
                try:
                    event.callback(*event.args)
                finally:
                    self.current_event = None
                if event.period is not None and not event.cancelled:
                    event.time = self._now + event.period
                    heappush(self._queue, (event.time, next(self._seq), event))
        finally:
            self._running = False
        self._now = time

    def run_epoch(self, end: float) -> None:
        """Run to the epoch barrier ``end``: a shard's step between two
        barriers.

        Identical to :meth:`run_until` (events with timestamps ``<= end``
        fire; the clock lands exactly on ``end``).  Events scheduled after
        it returns, at or past ``end``, land in the *next* epoch, which is
        what gives sharded runs their stable total order.
        """
        self.run_until(end)

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue is empty (bounded by ``max_events``)."""
        self._guard_reentry()
        self._running = True
        try:
            executed = 0
            while self.step():
                executed += 1
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
        finally:
            self._running = False

    def _guard_reentry(self) -> None:
        if self._running:
            raise SimulationError("simulator is not reentrant; already running")

    def _drop_cancelled_head(self) -> None:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)

    def _sweep_cancelled(self) -> None:
        """Drop cancelled entries when they dominate an oversized queue.

        Deterministic: pop order depends only on the ``(time, seq)`` total
        order, which filtering + heapify preserves.  The threshold doubles
        with the surviving queue so the amortized cost per push is O(1).
        """
        queue = self._queue
        live = [entry for entry in queue if not entry[2].cancelled]
        if len(live) <= len(queue) // 2:
            heapq.heapify(live)
            self._queue = live
        self._sweep_threshold = max(_SWEEP_MIN_SIZE, 2 * len(self._queue))

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Clock, counters, and a queue signature as plain data.

        Callbacks are live closures and cannot be serialized; the queue is
        captured as a verification signature -- ``(time, seq, label,
        cancelled, period)`` per entry in sorted heap order -- so a replayed
        run can prove its event schedule matches the checkpointed one
        bit-for-bit.  ``label`` falls back to the callback's qualified name
        (stable across processes, unlike its ``repr``).
        """
        value = next(self._seq)
        self._seq = itertools.count(value)
        signature = sorted(
            (
                time,
                seq,
                event.label
                or getattr(event.callback, "__qualname__", "?"),
                event.cancelled,
                event.period,
            )
            for time, seq, event in self._queue
        )
        return {
            "v": 1,
            "now": self._now,
            "seq_next": value,
            "event_count": self._event_count,
            "sweep_threshold": self._sweep_threshold,
            "queue": [list(entry) for entry in signature],
        }
