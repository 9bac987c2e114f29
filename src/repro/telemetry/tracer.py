"""Span-based request tracer with deterministic export.

The tracer records the paper's natural request-lifecycle boundaries
(§3.3): request arrival, stage entry/exit, socket tag propagation,
context-switch accounting samples, recalibration events, and
shed/reject/brownout decisions, plus per-window counts of the periodic
counter-overflow interrupts.  Three event shapes:

``span``
    A ``begin``/``end`` pair keyed by ``(track, name)``.  Tracks are
    strings like ``request:r0042`` or ``core:sb0/0`` so concurrent spans
    on different requests/cores never collide.  Nesting within a track is
    supported via a per-track stack (``end`` closes the innermost open
    span with the matching name, or the innermost span if unnamed).
``instant``
    A point event (tag loss, shed decision, fault firing, brownout
    transition...).
``counter``
    A sampled numeric series -- used for the energy timeline (see
    :class:`~repro.core.accounting.EnergyTimeline`): one cumulative
    energy sample per container per window, so the Chrome viewer can
    plot joules against spans, and one overflow-interrupt count per core
    per window.  The overflow interrupt is the most frequent event in a
    run, so it is counted, not traced one instant per interrupt.

All timestamps are **explicit caller-provided sim-clock floats**; the
tracer never reads a wall clock, so identically seeded runs produce
byte-identical traces (:meth:`RequestTracer.trace_fingerprint`).

Events live in a bounded ring buffer (:class:`deque` with ``maxlen``);
when full, the oldest event is evicted and ``dropped_events`` increments,
keeping memory bounded on long runs without perturbing the simulation.
``capacity=None`` makes the ring unbounded (lossless), for owners that
empty it on their own schedule.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

#: Event kinds stored in the ring buffer.
KIND_BEGIN = "B"
KIND_END = "E"
KIND_INSTANT = "I"
KIND_COUNTER = "C"


def canonical_line(
    kind: str, now: float, track: str, name: str, args: tuple
) -> str:
    """The stable one-line rendering of one event (fingerprint input)."""
    line = f"{kind}|{now!r}|{track}|{name}"
    for key, value in args:
        if isinstance(value, float):
            line = f"{line}|{key}={value!r}"
        else:
            line = f"{line}|{key}={value}"
    return line


class TraceSpanEvent(NamedTuple):
    """One immutable trace record (begin/end/instant/counter)."""

    kind: str
    now: float
    track: str
    name: str
    #: Sorted tuple of ``(key, value)`` pairs; values are str/float/int.
    args: tuple[tuple[str, object], ...] = ()

    def canonical(self) -> str:
        """A stable one-line rendering used by the fingerprint."""
        return canonical_line(*self)


def _freeze_args(args: Optional[dict]) -> tuple[tuple[str, object], ...]:
    if not args:
        return ()
    return tuple(sorted(args.items()))


#: ``tuple.__new__`` builds a :class:`TraceSpanEvent` from a ready tuple
#: without the generated ``__new__``'s Python-level call.
_tuple_new = tuple.__new__


class RequestTracer:
    """Bounded, deterministic span/instant/counter recorder.

    Spans have two entry points.  :meth:`begin`/:meth:`end` take an args
    dict; :meth:`begin_frozen`/:meth:`end_frozen` take the sorted
    ``(key, value)`` pair tuple the dict would freeze to, so hot callers
    (the facility's per-context-switch stage spans) pass pre-built
    tuples and pre-rendered track names.  Both record identical events.
    """

    def __init__(self, capacity: Optional[int] = 65536) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.events: deque[TraceSpanEvent] = deque(maxlen=capacity)
        self.dropped_events = 0
        #: Open spans per track as ``(name, now, args)`` stacks; a track's
        #: entry is deleted when its stack empties, so finished request
        #: tracks do not accumulate.
        self._open: dict[str, list[tuple]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, event: TraceSpanEvent) -> None:
        if len(self.events) == self.capacity:
            self.dropped_events += 1
        self.events.append(event)

    def begin(
        self, now: float, track: str, name: str, args: Optional[dict] = None
    ) -> None:
        """Open a span named ``name`` on ``track`` at sim time ``now``."""
        self.begin_frozen(now, track, name, _freeze_args(args))

    def begin_frozen(
        self, now: float, track: str, name: str, args: tuple = ()
    ) -> None:
        """:meth:`begin` with ``args`` as a key-sorted pair tuple."""
        stack = self._open.get(track)
        if stack is None:
            self._open[track] = [(name, now, args)]
        else:
            stack.append((name, now, args))
        events = self.events
        if len(events) == self.capacity:
            self.dropped_events += 1
        events.append(
            _tuple_new(TraceSpanEvent, (KIND_BEGIN, now, track, name, args))
        )

    def end(
        self,
        now: float,
        track: str,
        name: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Close the innermost open span on ``track``.

        With ``name``, the innermost open span with that name is closed
        (so interleaved same-track spans resolve deterministically); any
        spans opened inside it are abandoned.  A close with no matching
        open span is recorded anyway (the exporters tolerate it).
        """
        self.end_frozen(now, track, name, _freeze_args(args))

    def end_frozen(
        self,
        now: float,
        track: str,
        name: Optional[str] = None,
        args: tuple = (),
    ) -> None:
        """:meth:`end` with ``args`` as a key-sorted pair tuple."""
        stack = self._open.get(track)
        if stack:
            if name is None:
                name = stack.pop()[0]
            elif stack[-1][0] == name:
                stack.pop()
            else:
                for i in range(len(stack) - 2, -1, -1):
                    if stack[i][0] == name:
                        del stack[i:]
                        break
            if not stack:
                del self._open[track]
        elif name is None:
            name = ""
        events = self.events
        if len(events) == self.capacity:
            self.dropped_events += 1
        events.append(
            _tuple_new(TraceSpanEvent, (KIND_END, now, track, name, args))
        )

    def instant(
        self, now: float, track: str, name: str, args: Optional[dict] = None
    ) -> None:
        """Record a point event."""
        self._append(
            TraceSpanEvent(KIND_INSTANT, now, track, name, _freeze_args(args))
        )

    def counter(
        self, now: float, track: str, name: str, value: float
    ) -> None:
        """Record one sample of a numeric series (the energy timeline
        records one per container per window, not per accounting sample)."""
        self._append(
            TraceSpanEvent(
                KIND_COUNTER, now, track, name, (("value", float(value)),)
            )
        )

    def open_depth(self, track: str) -> int:
        """How many spans are currently open on ``track``."""
        return len(self._open.get(track, []))

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def trace_fingerprint(self) -> str:
        """sha256[:16] over the canonical event lines plus the drop count.

        Stable across processes for identical event sequences; any
        reordering, added/removed event, or changed arg changes it.
        """
        digest = hashlib.sha256()
        digest.update(f"dropped={self.dropped_events}\n".encode())
        for event in self.events:
            digest.update(event.canonical().encode())
            digest.update(b"\n")
        return digest.hexdigest()[:16]

    def to_chrome_trace(self) -> dict:
        """Render as a Chrome ``trace_event`` JSON object.

        Tracks map to thread names within one process; spans become
        complete events (``ph: "X"``, microsecond ``ts``/``dur``),
        instants become ``ph: "i"`` with thread scope, counter samples
        become ``ph: "C"`` series.  Load the result in
        ``chrome://tracing`` or Perfetto.
        """
        tracks = sorted({e.track for e in self.events})
        tids = {track: i + 1 for i, track in enumerate(tracks)}
        out: list[dict] = []
        for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        # Pair begin/end per track with a stack, mirroring record order.
        stacks: dict[str, list[TraceSpanEvent]] = {}
        for event in self.events:
            tid = tids[event.track]
            usec = event.now * 1e6
            if event.kind == KIND_BEGIN:
                stacks.setdefault(event.track, []).append(event)
            elif event.kind == KIND_END:
                stack = stacks.get(event.track, [])
                begin = None
                for i in range(len(stack) - 1, -1, -1):
                    if not event.name or stack[i].name == event.name:
                        begin = stack[i]
                        del stack[i:]
                        break
                if begin is None:
                    continue
                args = dict(begin.args)
                args.update(dict(event.args))
                out.append(
                    {
                        "name": begin.name,
                        "cat": "span",
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "ts": begin.now * 1e6,
                        "dur": usec - begin.now * 1e6,
                        "args": args,
                    }
                )
            elif event.kind == KIND_INSTANT:
                out.append(
                    {
                        "name": event.name,
                        "cat": "instant",
                        "ph": "i",
                        "s": "t",
                        "pid": 1,
                        "tid": tid,
                        "ts": usec,
                        "args": dict(event.args),
                    }
                )
            else:  # counter
                value = dict(event.args).get("value", 0.0)
                out.append(
                    {
                        "name": f"{event.track} {event.name}",
                        "cat": "counter",
                        "ph": "C",
                        "pid": 1,
                        "tid": tid,
                        "ts": usec,
                        "args": {event.name: value},
                    }
                )
        return {"traceEvents": out, "displayTimeUnit": "ms"}

    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        """:meth:`to_chrome_trace` serialized to a JSON string."""
        return json.dumps(self.to_chrome_trace(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Ring buffer, drop count, and per-track open-span stacks."""
        return {
            "v": 1,
            "capacity": self.capacity,
            "dropped_events": self.dropped_events,
            "events": [
                [e.kind, e.now, e.track, e.name,
                 [[k, v] for k, v in e.args]]
                for e in self.events
            ],
            "open": {
                track: [[name, now, [[k, v] for k, v in args]]
                        for name, now, args in stack]
                for track, stack in sorted(self._open.items())
            },
        }

    def timeline(self, limit: Optional[int] = None) -> str:
        """A human-readable timeline (one line per event, sim-time order).

        ``limit`` keeps only the first N events -- handy for console
        output on long traces.
        """
        lines: list[str] = []
        shown: Iterable[TraceSpanEvent] = self.events
        for i, event in enumerate(shown):
            if limit is not None and i >= limit:
                lines.append(f"... ({len(self.events) - limit} more events)")
                break
            marker = {
                KIND_BEGIN: ">",
                KIND_END: "<",
                KIND_INSTANT: "*",
                KIND_COUNTER: "=",
            }[event.kind]
            args = " ".join(
                f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                for k, v in event.args
            )
            line = f"{event.now:>12.6f}s {marker} {event.track:<24} {event.name}"
            if args:
                line = f"{line} [{args}]"
            lines.append(line)
        if self.dropped_events:
            lines.append(f"({self.dropped_events} events dropped by ring buffer)")
        return "\n".join(lines)


@dataclass
class Telemetry:
    """The default-off handle threaded through the simulation stack.

    Components accept ``telemetry=None`` (the default) and guard every
    instrumentation site with ``t = self.telemetry`` / ``if t is not
    None:`` -- so runs without a handle are bit-identical to the
    pre-telemetry code by construction.  Telemetry is attached or absent.
    """

    capacity: Optional[int] = 65536
    tracer: RequestTracer = field(default=None)  # type: ignore[assignment]
    registry: object = field(default=None)

    def __post_init__(self) -> None:
        if self.tracer is None:
            self.tracer = RequestTracer(capacity=self.capacity)
        if self.registry is None:
            from .metrics import MetricsRegistry

            self.registry = MetricsRegistry()

    def trace_fingerprint(self) -> str:
        """Digest of the recorded trace (:meth:`RequestTracer.trace_fingerprint`)."""
        return self.tracer.trace_fingerprint()

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 2,
            "tracer": self.tracer.snapshot_state(),
            "registry": self.registry.snapshot_state(),
        }
