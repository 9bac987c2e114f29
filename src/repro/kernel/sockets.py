"""Sockets with per-segment request-context tagging.

Section 3.3's key mechanism: each buffered socket segment carries the
sender's request-context identifier (stored in a TCP option field on the
real system).  On a *persistent* connection, a new request's segment may
arrive before a previously buffered segment is read; tagging the whole
socket would then mis-bind the reader to the newest context.  Tagging each
segment individually -- and rebinding the reader according to the segment it
actually reads -- is the safe design, and the naive whole-socket mode is
kept available (``per_segment_tagging=False``) for the ablation test that
demonstrates the hazard.

Cross-machine endpoints additionally piggy-back container statistics on the
tag so a dispatcher can do cluster-wide accounting (Section 3.4).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.process import Process
    from repro.hardware.machine import Machine


@dataclass(frozen=True)
class ContextTag:
    """Request-context label attached to a socket segment.

    ``container_id`` is ``None`` for untracked senders.  ``carried_stats``
    holds cumulative runtime/energy/power snapshots when a message crosses a
    machine boundary (Section 3.4's tagged request/response messages).
    """

    container_id: Optional[int] = None
    carried_stats: Optional[dict[str, float]] = None


@dataclass
class Message:
    """One socket segment: byte count, payload, tag, and reply route."""

    nbytes: float
    payload: Any = None
    tag: ContextTag = field(default_factory=ContextTag)
    reply_to: Optional["Endpoint"] = None
    sent_at: float = 0.0
    sender_pid: Optional[int] = None


class Endpoint:
    """One end of a socket (or an accept-queue style shared endpoint).

    Multiple processes may block in ``recv`` on the same endpoint; arriving
    segments wake them FIFO -- this models a pool of worker processes
    sharing a listener, the way high-throughput servers pool request
    executions on workers (Section 4.2).
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        machine: "Machine",
        name: str = "",
        per_segment_tagging: bool = True,
    ) -> None:
        self.id = next(self._ids)
        self.machine = machine
        self.name = name or f"ep{self.id}"
        self.buffer: deque[Message] = deque()
        #: Processes blocked in Recv on this endpoint, FIFO.
        self.waiters: deque["Process"] = deque()
        self.peer: Optional["Endpoint"] = None
        self.per_segment_tagging = per_segment_tagging
        #: Whole-socket tag used when per-segment tagging is disabled
        #: (the naive, unsafe design the paper warns about).
        self.socket_tag: ContextTag = ContextTag()
        #: Propagation latency to the peer, set when paired.
        self.pair_latency: float = 0.0
        self.total_messages = 0
        #: Optional fault-injection hook (see :mod:`repro.faults`): rewrites
        #: each arriving segment before buffering -- modelling in-band tag
        #: loss or truncation on the wire.  ``None`` buffers verbatim.
        self.tag_fault: Optional[Callable[[Message], Message]] = None

    @property
    def has_data(self) -> bool:
        """True when at least one segment is buffered."""
        return bool(self.buffer)

    def enqueue(self, message: Message) -> None:
        """Buffer an arriving segment (kernel use only)."""
        if self.tag_fault is not None:
            message = self.tag_fault(message)
        if not self.per_segment_tagging:
            # Naive mode: the socket inherits the newest tag, and every
            # buffered segment is (incorrectly) read with it.
            self.socket_tag = message.tag
        self.buffer.append(message)
        self.total_messages += 1

    def dequeue(self) -> Message:
        """Pop the oldest buffered segment (kernel use only)."""
        message = self.buffer.popleft()
        if not self.per_segment_tagging:
            message = Message(
                nbytes=message.nbytes,
                payload=message.payload,
                tag=self.socket_tag,
                reply_to=message.reply_to,
                sent_at=message.sent_at,
                sender_pid=message.sender_pid,
            )
        return message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Endpoint({self.name!r}@{self.machine.name}, "
            f"buffered={len(self.buffer)}, waiters={len(self.waiters)})"
        )


class SocketPair:
    """A connected pair of endpoints, possibly spanning machines."""

    def __init__(
        self,
        a: Endpoint,
        b: Endpoint,
        latency: float = 0.0,
    ) -> None:
        if latency < 0:
            raise ValueError("socket latency must be non-negative")
        self.a = a
        self.b = b
        a.peer = b
        b.peer = a
        a.pair_latency = latency
        b.pair_latency = latency
        self.latency = latency

    @staticmethod
    def local(machine: "Machine", name: str = "sock", per_segment_tagging: bool = True) -> "SocketPair":
        """Create a same-machine socket pair (e.g. web server <-> database)."""
        a = Endpoint(machine, f"{name}.a", per_segment_tagging)
        b = Endpoint(machine, f"{name}.b", per_segment_tagging)
        return SocketPair(a, b, latency=0.0)

    @staticmethod
    def remote(
        machine_a: "Machine",
        machine_b: "Machine",
        name: str = "conn",
        latency: float = 200e-6,
        per_segment_tagging: bool = True,
    ) -> "SocketPair":
        """Create a cross-machine connection with network latency."""
        a = Endpoint(machine_a, f"{name}.a", per_segment_tagging)
        b = Endpoint(machine_b, f"{name}.b", per_segment_tagging)
        return SocketPair(a, b, latency=latency)
