"""Fault-tolerant coordinator<->worker transport for the sharded run.

PR 8's epoch protocol assumed a perfect pipe: every directive batch
arrives exactly once, in order, uncorrupted, and every reply comes back.
This module removes that assumption without giving up bit-identical
fingerprints.  It has three layers:

**Frames and checksums.**  Every message crossing the (simulated) wire is
a frame ``(kind, seq, ack, payload, crc)`` where ``crc`` covers the other
four fields.  A mangled frame fails its checksum and is *rejected*, never
interpreted -- corruption degrades to loss, which the retransmit layer
already handles.

**LossyChannel.**  A seeded, deterministic fault model wrapped around the
real pipe.  Per a composable :class:`TransportFaultPlan` (the same shape
as PR 2's ``FaultPlan``: an ordered list of windows, convenience
constructors, ``random()``), a channel can drop, duplicate, reorder,
delay, and detectably corrupt frames in either direction.  Both
directions' channels live on the coordinator side and draw from
coordinator-owned RNG streams, so workers stay pure functions of their
delivered frames and the whole fault schedule replays from a seed.
Delayed frames stay in the channel across epoch exchanges, so a directive
batch really can arrive epochs late -- and must still be a no-op.

**Exactly-once delivery.**  :class:`ReliableLink` (coordinator side) and
:class:`WorkerEndpoint` (worker side) implement stop-and-wait with
per-worker monotonic sequence numbers, cumulative acks, and idempotent
application: a worker applies command ``seq`` only when it is exactly
``last_applied + 1``, re-sends its cached reply for anything older, and
never executes anything twice.  Retransmits use deterministic doubling
backoff measured in protocol *rounds* (one pipe round-trip per round --
the epoch exchange's unit of virtual time); the round loop is a
generator (:meth:`ReliableLink.request_rounds`) so one barrier can
advance every worker's link in the same round.  The link doubles as the
failure detector: ``probe_after`` silent rounds trigger heartbeat probes,
``dead_after`` silent rounds declare the worker dead
(:class:`WorkerUnresponsiveError`, which the pool converts into a
revive), and ``max_rounds`` bounds the whole exchange
(:class:`TransportTimeoutError`).
"""

from __future__ import annotations

import hashlib
import pickle
import zlib
from dataclasses import dataclass, replace

import numpy as np

#: Frame kinds.
FRAME_DATA = "data"
FRAME_REPLY = "reply"
FRAME_PROBE = "probe"
FRAME_PONG = "pong"

#: Channel directions (coordinator->worker, worker->coordinator).
DIRECTION_C2W = "c2w"
DIRECTION_W2C = "w2c"
_DIRECTIONS = (DIRECTION_C2W, DIRECTION_W2C)

#: Per-channel fault counters (also the stats-dict key set).
CHANNEL_STATS = (
    "sent", "delivered", "dropped", "duplicated", "reordered", "delayed",
    "corrupted",
)


class TransportError(RuntimeError):
    """Base class for every transport-layer failure."""


class TransportTimeoutError(TransportError):
    """An exchange exceeded its round budget without completing."""


class WorkerUnresponsiveError(TransportError):
    """The failure detector declared a worker dead (probes unanswered)."""


class WorkerQuarantinedError(TransportError):
    """A worker exhausted its revive budget and was quarantined.

    Carries the directive-replay digest diff from the final diagnostic
    replay: an empty ``digest_diff`` means the replayed state still
    matched every recorded digest (the transport, not the state, was at
    fault); a non-empty one names the diverging summary fields.
    """

    def __init__(
        self,
        worker_index: int,
        shard_ids: list[int],
        revives: int,
        digest_diff: list[str],
        reason: str,
    ) -> None:
        self.worker_index = worker_index
        self.shard_ids = list(shard_ids)
        self.revives = revives
        self.digest_diff = list(digest_diff)
        self.reason = reason
        diff = "; ".join(digest_diff) if digest_diff else "replay state intact"
        super().__init__(
            f"worker {worker_index} (shards {self.shard_ids}) quarantined "
            f"after {revives} revives: {reason} [diagnostic replay: {diff}]"
        )


# -- frames ------------------------------------------------------------
def frame_crc(kind: str, seq: int, ack: int, payload: object) -> int:
    """CRC-32 over a frame's canonical pickled content."""
    return zlib.crc32(pickle.dumps((kind, seq, ack, payload), protocol=4))


def make_frame(kind: str, seq: int, ack: int, payload: object) -> tuple:
    """Assemble one checksummed wire frame."""
    return (kind, seq, ack, payload, frame_crc(kind, seq, ack, payload))


def frame_valid(frame: object) -> bool:
    """True when the frame is well-formed and its checksum verifies."""
    if not isinstance(frame, tuple) or len(frame) != 5:
        return False
    kind, seq, ack, payload, crc = frame
    try:
        return crc == frame_crc(kind, seq, ack, payload)
    except Exception:  # pragma: no cover - unpicklable garbage
        return False


def corrupt_frame(frame: tuple) -> tuple:
    """Detectably mangle a frame: flip its checksum, scar the payload.

    The result always fails :func:`frame_valid` -- the channel models
    *detectable* corruption (bit rot caught by the checksum), never a
    silent payload swap, which is what lets corruption degrade safely to
    loss.
    """
    kind, seq, ack, payload, crc = frame
    return (kind, seq, ack, ("__mangled__", payload), crc ^ 0xDEADBEEF)


# -- fault plans -------------------------------------------------------
@dataclass(frozen=True)
class TransportWindow:
    """Fault probabilities active over ``[start_epoch, end_epoch)``.

    ``worker`` / ``direction`` of ``None`` match every worker / both
    directions.  ``delay`` delays a frame by 1..``max_delay`` protocol
    rounds; because undelivered frames persist across epoch exchanges, a
    delayed frame can surface one or more epochs later.
    """

    start_epoch: int
    end_epoch: int
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    corrupt: float = 0.0
    max_delay: int = 3
    worker: int | None = None
    direction: str | None = None

    def __post_init__(self) -> None:
        if self.start_epoch < 0 or self.end_epoch <= self.start_epoch:
            raise ValueError(
                f"need 0 <= start_epoch < end_epoch, got "
                f"[{self.start_epoch}, {self.end_epoch})"
            )
        for name in ("drop", "duplicate", "reorder", "delay", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if self.direction is not None and self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS} or None, "
                f"got {self.direction!r}"
            )

    def matches(self, epoch: int, worker: int, direction: str) -> bool:
        return (
            self.start_epoch <= epoch < self.end_epoch
            and (self.worker is None or self.worker == worker)
            and (self.direction is None or self.direction == direction)
        )


@dataclass(frozen=True)
class _Rates:
    """Merged fault probabilities for one (epoch, worker, direction)."""

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    corrupt: float = 0.0
    max_delay: int = 1


def _combine(first: float, second: float) -> float:
    """Independent-event union of two probabilities."""
    return 1.0 - (1.0 - first) * (1.0 - second)


class TransportFaultPlan:
    """An ordered, composable set of transport fault windows.

    Mirrors ``repro.faults.plan.FaultPlan``: pure data with convenience
    constructors that chain and a seeded :meth:`random` generator.  It is
    not checkpointed: a sharded checkpoint deliberately omits the fault
    schedule, and a resumed run takes whatever plan its caller passes.
    Windows are measured in epoch indices because the transport's virtual
    clock is the epoch exchange, not the sim clock.
    """

    def __init__(self, windows=None) -> None:
        self.windows: list[TransportWindow] = list(windows) if windows else []

    # -- composition ----------------------------------------------------
    def add(self, window: TransportWindow) -> "TransportFaultPlan":
        """Append one window (returns self for chaining)."""
        self.windows.append(window)
        return self

    def merge(self, other: "TransportFaultPlan") -> "TransportFaultPlan":
        """A new plan containing both plans' windows."""
        return TransportFaultPlan(self.windows + other.windows)

    def __len__(self) -> int:
        return len(self.windows)

    # -- convenience constructors ---------------------------------------
    def drop_window(self, start: int, end: int, prob: float,
                    **kwargs) -> "TransportFaultPlan":
        """Drop frames with probability ``prob`` over ``[start, end)``."""
        return self.add(TransportWindow(start, end, drop=prob, **kwargs))

    def delay_window(self, start: int, end: int, prob: float,
                     max_delay: int = 3, **kwargs) -> "TransportFaultPlan":
        """Hold frames for 1..``max_delay`` rounds with probability
        ``prob`` (held frames can surface epochs later)."""
        return self.add(
            TransportWindow(start, end, delay=prob, max_delay=max_delay,
                            **kwargs)
        )

    def corrupt_window(self, start: int, end: int, prob: float,
                       **kwargs) -> "TransportFaultPlan":
        """Detectably mangle frames with probability ``prob``."""
        return self.add(TransportWindow(start, end, corrupt=prob, **kwargs))

    def chaos_window(self, start: int, end: int, drop: float = 0.0,
                     duplicate: float = 0.0, reorder: float = 0.0,
                     delay: float = 0.0, corrupt: float = 0.0,
                     max_delay: int = 3, **kwargs) -> "TransportFaultPlan":
        """Every fault kind at once over one window."""
        return self.add(
            TransportWindow(
                start, end, drop=drop, duplicate=duplicate, reorder=reorder,
                delay=delay, corrupt=corrupt, max_delay=max_delay, **kwargs
            )
        )

    # -- evaluation -----------------------------------------------------
    def rates_for(
        self, epoch: int, worker: int, direction: str
    ) -> _Rates | None:
        """Merged rates for one send, or ``None`` when no window matches.

        Overlapping windows combine as independent events (union of
        probabilities); ``max_delay`` takes the matching maximum.
        """
        merged = None
        for window in self.windows:
            if not window.matches(epoch, worker, direction):
                continue
            if merged is None:
                merged = _Rates(
                    drop=window.drop, duplicate=window.duplicate,
                    reorder=window.reorder, delay=window.delay,
                    corrupt=window.corrupt, max_delay=window.max_delay,
                )
            else:
                merged = _Rates(
                    drop=_combine(merged.drop, window.drop),
                    duplicate=_combine(merged.duplicate, window.duplicate),
                    reorder=_combine(merged.reorder, window.reorder),
                    delay=_combine(merged.delay, window.delay),
                    corrupt=_combine(merged.corrupt, window.corrupt),
                    max_delay=max(merged.max_delay, window.max_delay),
                )
        return merged

    # -- random plan generation -----------------------------------------
    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        n_epochs: int,
        max_windows: int = 3,
        max_prob: float = 0.5,
    ) -> "TransportFaultPlan":
        """A random-but-reproducible plan over ``[0, n_epochs)``.

        Probabilities stay at most ``max_prob`` (< 1), so every frame
        retains a positive per-round delivery probability and retransmits
        converge; the property tests rely on that to demand identical
        fingerprints rather than a typed error.
        """
        if n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        if not 0.0 < max_prob < 1.0:
            raise ValueError("max_prob must be in (0, 1)")
        plan = cls()
        kinds = ("drop", "duplicate", "reorder", "delay", "corrupt")
        n_windows = int(rng.integers(1, max_windows + 1))
        for _ in range(n_windows):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            start = int(rng.integers(0, max(1, int(n_epochs * 0.7) + 1)))
            span = 1 + int(rng.integers(0, max(1, n_epochs // 2)))
            prob = float(rng.uniform(0.05, max_prob))
            window = TransportWindow(start, start + span)
            window = replace(window, **{kind: prob})
            if kind == "delay":
                window = replace(
                    window, max_delay=1 + int(rng.integers(0, 3))
                )
            plan.add(window)
        return plan


# -- the lossy channel -------------------------------------------------
def channel_seed(seed: int, worker: int, incarnation: int,
                 direction: str) -> int:
    """Stable per-(worker, incarnation, direction) child seed."""
    digest = hashlib.sha256(
        f"shard-transport:{seed}:{worker}:{incarnation}:{direction}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


class LossyChannel:
    """One direction of a worker's simulated wire.

    Sits between the protocol and the real pipe: the coordinator pushes
    frames through :meth:`send` (where the fault dice roll) and pulls the
    due ones back with :meth:`take_due` once per protocol round.  Frames
    whose due round has not arrived stay queued -- including across epoch
    exchanges, which is how a delayed directive batch shows up epochs
    late.  All randomness lives in the channel's own seeded generator on
    the coordinator side; the plan only supplies probabilities.
    """

    def __init__(
        self,
        plan: TransportFaultPlan | None,
        rng: np.random.Generator,
        worker: int,
        direction: str,
    ) -> None:
        if direction not in _DIRECTIONS:
            raise ValueError(f"unknown channel direction {direction!r}")
        self.plan = plan
        self.rng = rng
        self.worker = worker
        self.direction = direction
        self._round = 0
        self._order = 0
        #: In-transit frames: ``(due_round, order, frame)`` min-queue.
        self._queue: list[tuple[int, int, tuple]] = []
        self.stats = dict.fromkeys(CHANNEL_STATS, 0)

    def send(self, frame: tuple, epoch: int) -> None:
        """Submit one frame; fault dice decide its fate."""
        import heapq

        self.stats["sent"] += 1
        due = self._round
        order = self._order
        self._order += 4
        rates = (
            self.plan.rates_for(epoch, self.worker, self.direction)
            if self.plan is not None
            else None
        )
        if rates is not None:
            rng = self.rng
            if rates.drop and rng.random() < rates.drop:
                self.stats["dropped"] += 1
                return
            if rates.corrupt and rng.random() < rates.corrupt:
                self.stats["corrupted"] += 1
                frame = corrupt_frame(frame)
            if rates.delay and rng.random() < rates.delay:
                self.stats["delayed"] += 1
                due += 1 + int(rng.integers(0, rates.max_delay))
            if rates.reorder and rng.random() < rates.reorder:
                # Land after the next frame sent this round.
                self.stats["reordered"] += 1
                order += 6
            if rates.duplicate and rng.random() < rates.duplicate:
                self.stats["duplicated"] += 1
                heapq.heappush(self._queue, (due, order + 1, frame))
        heapq.heappush(self._queue, (due, order, frame))

    def take_due(self) -> list[tuple]:
        """Frames whose round has come, in delivery order; advances time."""
        import heapq

        out = []
        while self._queue and self._queue[0][0] <= self._round:
            out.append(heapq.heappop(self._queue)[2])
            self.stats["delivered"] += 1
        self._round += 1
        return out

    def in_transit(self) -> int:
        """Frames currently queued inside the channel."""
        return len(self._queue)


# -- protocol limits ---------------------------------------------------
@dataclass(frozen=True)
class TransportLimits:
    """Deterministic timeout/backoff schedule, in protocol rounds."""

    #: First retransmit fires this many rounds after the original send.
    initial_rto: int = 1
    #: Backoff doubles up to this ceiling.
    max_rto: int = 8
    #: Silent rounds before heartbeat probes start.
    probe_after: int = 4
    #: Silent rounds before the worker is declared dead.
    dead_after: int = 24
    #: Hard bound on rounds per exchange (terminal timeout).
    max_rounds: int = 256

    def __post_init__(self) -> None:
        if self.initial_rto < 1:
            raise ValueError("initial_rto must be >= 1")
        if self.max_rto < self.initial_rto:
            raise ValueError("max_rto must be >= initial_rto")
        if self.probe_after < 1:
            raise ValueError("probe_after must be >= 1")
        if self.dead_after <= self.probe_after:
            raise ValueError("dead_after must exceed probe_after")
        if self.max_rounds < self.dead_after:
            raise ValueError("max_rounds must be >= dead_after")


#: Link-side protocol counters.
LINK_STATS = (
    "requests", "data_sent", "retransmits", "probes_sent", "pongs_received",
    "duplicate_replies", "corrupt_rejected",
)

#: Worker-endpoint counters.
ENDPOINT_STATS = (
    "applied", "duplicates_ignored", "out_of_order_ignored",
    "probes_answered", "corrupt_rejected",
)


class WorkerEndpoint:
    """Worker-side half of the exactly-once protocol (RNG-free).

    Applies command ``seq`` exactly when it is ``last_applied + 1``;
    re-sends the cached reply for anything at or below ``last_applied``
    (the replayed batch is a no-op); answers probes with pongs carrying
    its progress.  Cached replies are pruned by the cumulative ack each
    inbound frame carries.  Corrupted frames are rejected by checksum and
    counted, never interpreted.
    """

    def __init__(self, execute) -> None:
        self._execute = execute
        self.last_applied = 0
        self._replies: dict[int, tuple] = {}
        self.stats = dict.fromkeys(ENDPOINT_STATS, 0)

    def handle_frames(self, frames: list) -> list[tuple]:
        """Process one round's inbound frames; returns outbound frames."""
        out: list[tuple] = []
        for frame in frames:
            if not frame_valid(frame):
                self.stats["corrupt_rejected"] += 1
                continue
            kind, seq, ack, payload, _crc = frame
            for acked in [s for s in self._replies if s <= ack]:
                del self._replies[acked]
            if kind == FRAME_PROBE:
                self.stats["probes_answered"] += 1
                out.append(make_frame(FRAME_PONG, self.last_applied, 0, None))
            elif kind == FRAME_DATA:
                if seq <= self.last_applied:
                    self.stats["duplicates_ignored"] += 1
                    cached = self._replies.get(seq)
                    if cached is not None:
                        out.append(cached)
                elif seq == self.last_applied + 1:
                    reply = make_frame(
                        FRAME_REPLY, seq, 0, self._execute(payload)
                    )
                    self.last_applied = seq
                    self._replies[seq] = reply
                    self.stats["applied"] += 1
                    out.append(reply)
                else:
                    # A gap is unreachable under stop-and-wait, but a
                    # future windowed protocol must still never apply
                    # ahead of order.
                    self.stats["out_of_order_ignored"] += 1
        return out


class ReliableLink:
    """Coordinator-side half: stop-and-wait with retransmit + probes.

    One outstanding command at a time.  Each protocol round performs one
    pipe round-trip: push outbound frames through the ``c2w`` channel,
    exchange whatever is due, pull inbound frames back through ``w2c``.
    The round loop lives in :meth:`request_rounds`, which leaves the
    pipe round-trip to its caller, so a pool can post every worker's
    round before it waits for any reply.
    Retransmits follow the :class:`TransportLimits` doubling backoff;
    silence beyond ``probe_after`` rounds adds heartbeat probes, and
    silence beyond ``dead_after`` raises :class:`WorkerUnresponsiveError`
    for the pool's failure handling to convert into a revive.
    """

    def __init__(
        self,
        exchange,
        plan: TransportFaultPlan | None,
        seed: int,
        worker_index: int,
        incarnation: int = 0,
        limits: TransportLimits | None = None,
    ) -> None:
        self._exchange = exchange
        self.plan = plan
        self.worker_index = worker_index
        self.limits = limits if limits is not None else TransportLimits()
        self.c2w = LossyChannel(
            plan,
            np.random.default_rng(
                channel_seed(seed, worker_index, incarnation, DIRECTION_C2W)
            ),
            worker_index,
            DIRECTION_C2W,
        )
        self.w2c = LossyChannel(
            plan,
            np.random.default_rng(
                channel_seed(seed, worker_index, incarnation, DIRECTION_W2C)
            ),
            worker_index,
            DIRECTION_W2C,
        )
        self.next_seq = 1
        self.acked = 0
        self.stats = dict.fromkeys(LINK_STATS, 0)

    def _to_wire(self, outbound: list[tuple], epoch: int,
                 lossless: bool) -> list[tuple]:
        """Push one round's frames through ``c2w``; what reaches the pipe."""
        if lossless or self.plan is None:
            return outbound
        for frame in outbound:
            self.c2w.send(frame, epoch)
        return self.c2w.take_due()

    def _from_wire(self, raw: list[tuple], epoch: int,
                   lossless: bool) -> list[tuple]:
        """Pull the pipe's reply through ``w2c``; what the protocol sees."""
        if lossless or self.plan is None:
            return raw
        for frame in raw:
            self.w2c.send(frame, epoch)
        return self.w2c.take_due()

    def request(self, payload: object, epoch: int,
                lossless: bool = False) -> object:
        """Deliver ``payload`` exactly once; returns the worker's reply.

        Drives :meth:`request_rounds` over this link's own exchange
        callable, one pipe round-trip per round.  ``lossless`` bypasses
        the fault channels (replay after a revive runs on a fresh,
        fault-free link so recovery itself cannot be re-faulted into a
        livelock).  Raises ``ConnectionError`` if the underlying pipe
        dies, plus everything :meth:`request_rounds` raises.
        """
        rounds = self.request_rounds(payload, epoch, lossless)
        frames = next(rounds)
        while True:
            try:
                frames = rounds.send(self._exchange(frames))
            except StopIteration as done:
                return done.value

    def request_rounds(self, payload: object, epoch: int,
                       lossless: bool = False):
        """The stop-and-wait exchange for ``payload``, one round per step.

        A generator: each ``yield`` hands out the frames to put on the
        pipe this round, and the caller sends back the frames the pipe
        returned.  It returns the worker's reply.  Callers drive many
        links' rounds side by side (the pool's scatter/gather barrier) or
        one link's alone (:meth:`request`).  Raises
        :class:`WorkerUnresponsiveError` if the worker stays silent past
        the detector deadline, and :class:`TransportTimeoutError` at the
        hard round bound.
        """
        limits = self.limits
        seq = self.next_seq
        self.next_seq += 1
        self.stats["requests"] += 1
        rto = limits.initial_rto
        next_tx = 0
        silent = 0
        sends = 0
        for round_index in range(limits.max_rounds):
            outbound = []
            if round_index >= next_tx:
                outbound.append(
                    make_frame(FRAME_DATA, seq, self.acked, payload)
                )
                self.stats["data_sent"] += 1
                if sends > 0:
                    self.stats["retransmits"] += 1
                sends += 1
                next_tx = round_index + rto
                rto = min(rto * 2, limits.max_rto)
            if silent >= limits.probe_after:
                outbound.append(make_frame(FRAME_PROBE, 0, self.acked, None))
                self.stats["probes_sent"] += 1
            raw = yield self._to_wire(outbound, epoch, lossless)
            inbound = self._from_wire(raw, epoch, lossless)
            heard = False
            reply = None
            for frame in inbound:
                if not frame_valid(frame):
                    self.stats["corrupt_rejected"] += 1
                    continue
                heard = True
                kind, frame_seq, _ack, frame_payload, _crc = frame
                if kind == FRAME_REPLY:
                    if frame_seq == seq:
                        reply = (frame_payload,)
                    else:
                        self.stats["duplicate_replies"] += 1
                elif kind == FRAME_PONG:
                    self.stats["pongs_received"] += 1
            if reply is not None:
                self.acked = seq
                return reply[0]
            silent = 0 if heard else silent + 1
            if silent >= limits.dead_after:
                raise WorkerUnresponsiveError(
                    f"worker {self.worker_index}: no valid frame for "
                    f"{silent} rounds (seq {seq}); declaring dead"
                )
        raise TransportTimeoutError(
            f"worker {self.worker_index}: exchange for seq {seq} exceeded "
            f"{limits.max_rounds} rounds"
        )

    def combined_stats(self) -> dict[str, int]:
        """Link counters plus both channels' (prefixed) counters."""
        merged = dict(self.stats)
        for prefix, channel in ((DIRECTION_C2W, self.c2w),
                                (DIRECTION_W2C, self.w2c)):
            for key, value in channel.stats.items():
                merged[f"{prefix}_{key}"] = value
        return merged


# -- canned plans (CLI / CI presets) -----------------------------------
def lossy_preset(end_epoch: int = 1_000_000) -> TransportFaultPlan:
    """Moderate everything-at-once weather: drop, dup, reorder, delay."""
    return TransportFaultPlan().chaos_window(
        0, end_epoch, drop=0.25, duplicate=0.2, reorder=0.3, delay=0.25,
        max_delay=3,
    )


def corrupt_preset(end_epoch: int = 1_000_000) -> TransportFaultPlan:
    """Checksum-exercising weather: corruption (plus light drops)."""
    return (
        TransportFaultPlan()
        .corrupt_window(0, end_epoch, 0.3)
        .drop_window(0, end_epoch, 0.1)
    )


def chaos_preset(end_epoch: int = 1_000_000) -> TransportFaultPlan:
    """Heavy weather: every fault kind at elevated rates."""
    return TransportFaultPlan().chaos_window(
        0, end_epoch, drop=0.35, duplicate=0.3, reorder=0.35, delay=0.3,
        corrupt=0.25, max_delay=4,
    )


#: ``python -m repro shard --transport <name>`` resolves names here.
TRANSPORT_PRESETS = {
    "lossy": lossy_preset,
    "corrupt": corrupt_preset,
    "chaos": chaos_preset,
}
