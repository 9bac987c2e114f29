"""Cross-shard telemetry aggregation: frames, k-way merge, observability.

Sharded runs (``repro.shard``) execute each :class:`ShardWorld` in its
own process, so a per-shard ``Telemetry`` handle records spans, instants,
and metrics nobody can see.  This module closes the loop:

* :class:`FrameDrain` (worker side) drains the tracer ring and the metric
  registry at every epoch barrier into a :class:`TelemetryFrame` -- a
  plain-data, checksummed wire record carrying ``(now, track, seq, kind,
  name, args)`` event tuples and metric *deltas* since the previous
  barrier;
* :class:`TelemetryAggregator` (coordinator side) k-way-merges frames by
  ``(now, track, seq)`` into one global stream, renders its canonical
  lines (:func:`render_lines`), folds metric deltas into a global
  registry, and maintains a barrier-chained streaming fingerprint so the
  merged ``trace_fingerprint()`` never needs the full event list in
  memory;
* :class:`ClusterObservability` composes the aggregator with the
  :class:`~repro.telemetry.store.TelemetryStore` rollups and the
  :class:`~repro.telemetry.anomaly.AnomalyEngine` detectors into the one
  object the coordinator drives.

**Why the merge key is a total order.**  Facility tracks are
machine-scoped (``request:<node>/<cid>``, ``core:<node>/<idx>``,
``facility:<node>``), so every track is written by exactly one machine,
which lives in exactly one shard.  ``seq`` is a per-track counter
assigned in recording order, making ``(now, track, seq)`` unique and --
because a machine's event stream depends only on its directives, never on
which shard hosts it -- identical for any shard or worker count.  Frames
drained at the same barrier cover the same sim-time window everywhere,
so the per-barrier chained fingerprint is invariant too.

**Why replay/crash recovery is safe.**  A revived worker replays the
directive history and regenerates the exact same frames (the drain is a
pure function of configuration plus directives); the pool discards
replayed frames because the coordinator already ingested those barriers,
and the drain's frame-chain digest inside ``state_summary()`` proves the
regenerated telemetry matches what the dead worker shipped.

Nothing here feeds back into the simulation: report/shed/batch/energy
fingerprints are bit-identical with telemetry on, off, or absent.
"""

from __future__ import annotations

import hashlib
import marshal
import zlib
from collections import Counter, deque
from typing import Optional

from .anomaly import AnomalyEngine, AnomalyThresholds, WindowInputs
from .metrics import MetricsRegistry
from .store import TelemetryStore
from .tracer import (
    KIND_INSTANT,
    RequestTracer,
    Telemetry,
    TraceSpanEvent,
    canonical_line,
)

#: Wire tag identifying a telemetry frame tuple.
FRAME_TAG = "tframe"

#: Seed for the worker-side frame-chain digest (proves replayed frames
#: match shipped ones via ``state_summary()``).  The chain folds each
#: frame's checksum, so it also pins the body encoding.
FRAME_CHAIN_SEED = hashlib.sha256(b"telemetry-frame-chain-v1").hexdigest()

#: Seed for the coordinator-side merged-stream digest.  v2: container
#: energy timelines are per window, not per accounting sample.  v3:
#: counter-overflow interrupts are per-core ``overflows`` counts per
#: window, not one ``overflow`` instant each.
MERGE_CHAIN_SEED = hashlib.sha256(b"telemetry-merge-chain-v3").hexdigest()


class FrameChecksumError(ValueError):
    """A telemetry frame failed checksum or shape validation."""


def _marshal(shard_id, epoch_index, value) -> bytes:
    """``value`` in marshal format 2, which writes values only -- no
    object references and no interning flags -- so equal values encode
    equally however their objects are shared."""
    try:
        return marshal.dumps(value, 2)
    except ValueError as exc:
        raise FrameChecksumError(
            f"telemetry frame for shard {shard_id!r} epoch "
            f"{epoch_index!r} holds a non-plain value: {exc}"
        ) from None


def _frame_checksum(shard_id, epoch_index, body: bytes) -> int:
    """CRC-32 over the frame header and its encoded body."""
    header = _marshal(
        shard_id, epoch_index, (FRAME_TAG, shard_id, epoch_index)
    )
    return zlib.crc32(body, zlib.crc32(header))


class TelemetryFrame:
    """One barrier's telemetry from one shard, as checksummed plain data.

    ``events`` is a tuple of ``(now, track, seq, kind, name, args)``
    tuples sorted by ``(now, track, seq)``; ``args`` is the tracer's
    sorted ``(key, value)`` pair tuple.  ``metrics`` is a tuple of delta
    entries (see :func:`metric_deltas`).  The frame carries each event
    once: the coordinator renders the canonical lines it hashes
    (:func:`render_lines`) while the workers compute the next epoch, so
    the busiest worker, which sets the barrier's pace, never formats
    text.

    On the wire the two travel as ``body``, one marshal-encoded bytes
    object: the transport copies it instead of walking thousands of
    objects, the checksum is one CRC pass over it, and the receiver
    decodes it only when it ingests the frame.
    """

    __slots__ = (
        "shard_id", "epoch_index", "events", "metrics", "body", "checksum",
    )

    def __init__(
        self,
        shard_id: int,
        epoch_index: int,
        events: tuple,
        metrics: tuple,
        body: bytes,
        checksum: int,
    ) -> None:
        self.shard_id = shard_id
        self.epoch_index = epoch_index
        self.events = events
        self.metrics = metrics
        self.body = body
        self.checksum = checksum

    @classmethod
    def build(
        cls,
        shard_id: int,
        epoch_index: int,
        events: tuple,
        metrics: tuple,
    ) -> "TelemetryFrame":
        """Construct a frame, encoding its body and computing its
        checksum."""
        body = _marshal(shard_id, epoch_index, (events, metrics))
        return cls(
            shard_id, epoch_index, events, metrics, body,
            _frame_checksum(shard_id, epoch_index, body),
        )

    def to_wire(self) -> tuple:
        """Plain-data tuple for the shard wire protocol."""
        return (
            FRAME_TAG, self.shard_id, self.epoch_index, self.body,
            self.checksum,
        )

    @classmethod
    def from_wire(cls, wire: tuple) -> "TelemetryFrame":
        """Validate shape + checksum and decode the frame."""
        if not isinstance(wire, tuple) or len(wire) != 5:
            raise FrameChecksumError(
                f"telemetry frame wire must be a 5-tuple, got {wire!r}"
            )
        tag, shard_id, epoch_index, body, checksum = wire
        if tag != FRAME_TAG:
            raise FrameChecksumError(
                f"telemetry frame tag must be {FRAME_TAG!r}, got {tag!r}"
            )
        if type(body) is not bytes:
            raise FrameChecksumError(
                f"telemetry frame body must be bytes, got "
                f"{type(body).__name__}"
            )
        expected = _frame_checksum(shard_id, epoch_index, body)
        if checksum != expected:
            raise FrameChecksumError(
                f"telemetry frame checksum mismatch for shard {shard_id} "
                f"epoch {epoch_index}: got {checksum}, expected {expected}"
            )
        events, metrics = marshal.loads(body)
        return cls(shard_id, epoch_index, events, metrics, body, checksum)


def metric_deltas(previous: dict, current: dict) -> tuple:
    """Delta entries between two ``MetricsRegistry.snapshot_state()`` maps.

    Entry shapes (name-sorted):

    * ``("c", name, help, delta)`` -- counter increment since ``previous``;
    * ``("g", name, help, value)`` -- gauge absolute value (machine-scoped
      names mean exactly one writer, so last-write-wins is well defined);
    * ``("h", name, help, edges, bucket_deltas, count_delta, sum_delta)``.

    Unchanged existing metrics are omitted; new metrics are always
    included so the merged registry grows the same shape as the shards'.
    """
    out = []
    for name in sorted(current):
        entry = current[name]
        prev = previous.get(name)
        kind = entry[0]
        if kind == "counter":
            delta = entry[2] - (prev[2] if prev else 0.0)
            if prev is None or delta != 0.0:
                out.append(("c", name, entry[1], delta))
        elif kind == "gauge":
            if prev is None or entry[2] != prev[2]:
                out.append(("g", name, entry[1], entry[2]))
        else:  # histogram: [kind, help, edges, bucket_counts, count, sum]
            is_new = prev is None
            if is_new:
                prev = [kind, entry[1], entry[2], [0] * len(entry[3]), 0, 0.0]
            count_delta = entry[4] - prev[4]
            if is_new or count_delta != 0:
                out.append((
                    "h", name, entry[1], tuple(entry[2]),
                    tuple(b - p for b, p in zip(entry[3], prev[3])),
                    count_delta, entry[5] - prev[5],
                ))
    return tuple(out)


def apply_metric_deltas(registry: MetricsRegistry, entries: tuple) -> None:
    """Fold :func:`metric_deltas` entries into ``registry``."""
    for entry in entries:
        kind = entry[0]
        if kind == "c":
            registry.counter(entry[1], help=entry[2]).inc(entry[3])
        elif kind == "g":
            registry.gauge(entry[1], help=entry[2]).set(entry[3])
        elif kind == "h":
            _, name, help_text, edges, buckets, count, total = entry
            metric = registry.histogram(name, tuple(edges), help=help_text)
            for i, delta in enumerate(buckets):
                metric.bucket_counts[i] += delta
            metric.count += count
            metric.sum += total
        else:
            raise FrameChecksumError(
                f"unknown metric delta kind {kind!r}"
            )


class FrameDrain:
    """Worker-side barrier drain: tracer ring + registry -> frames.

    Persistent per-track ``seq`` counters make event keys unique across
    the whole run; the drain empties the tracer ring each barrier (memory
    stays bounded regardless of run length) and snapshots the registry to
    compute deltas.  ``chain``/``frames`` summarize everything shipped so
    far -- folded into ``state_summary()`` so replay verification covers
    telemetry byte-for-byte.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self._seq: dict[str, int] = {}
        self._last_metrics: dict = {}
        self.frames = 0
        self.chain = FRAME_CHAIN_SEED

    def drain(self, shard_id: int, epoch_index: int) -> TelemetryFrame:
        """Drain everything recorded since the previous barrier."""
        tracer = self.telemetry.tracer
        seqs = self._seq
        events = []
        for kind, now, track, name, args in tracer.events:
            seq = seqs.get(track, 0)
            seqs[track] = seq + 1
            events.append((now, track, seq, kind, name, args))
        tracer.events.clear()
        # ``(now, track, seq)`` is unique, so plain tuple order is the
        # merge order and never compares the remaining fields.
        events.sort()
        current = self.telemetry.registry.snapshot_state()["metrics"]
        deltas = metric_deltas(self._last_metrics, current)
        self._last_metrics = current
        frame = TelemetryFrame.build(
            shard_id, epoch_index, tuple(events), deltas
        )
        self.frames += 1
        self.chain = hashlib.sha256(
            f"{self.chain}:{frame.checksum}".encode()
        ).hexdigest()
        return frame

    def summary(self) -> dict:
        """Digest of every frame shipped (for ``state_summary()``)."""
        return {"frames": self.frames, "chain": self.chain}


def _merge(frames) -> list:
    """The events of several frames' event tuples in merge order.  Each
    frame is sorted and ``(now, track, seq)`` is unique, so one sort of
    the concatenation is the k-way merge, and plain tuple order never
    compares past ``seq``."""
    merged: list = []
    for events in frames:
        merged.extend(events)
    merged.sort()
    return merged


def render_lines(events) -> list[str]:
    """The canonical line (:func:`~repro.telemetry.tracer.canonical_line`)
    of each ``(now, track, seq, kind, name, args)`` event, in order --
    the text the merged-stream fingerprint hashes."""
    return [
        canonical_line(kind, now, track, name, args)
        for now, track, _seq, kind, name, args in events
    ]


class TelemetryAggregator:
    """Coordinator-side merge of per-shard telemetry frames.

    The streaming fingerprint chains one sha256 per barrier over the
    merged canonical event lines, so invariance holds without retaining
    events.  The newest barriers holding the last ``capacity`` merged
    events are kept as their encoded frame bodies, and :attr:`tracer`
    decodes them into a :class:`RequestTracer` for Chrome-trace export
    on demand.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.registry = MetricsRegistry()
        self.capacity = capacity
        #: ``(events, frame bodies)`` per retained barrier, oldest first.
        self._kept: deque = deque()
        self._kept_events = 0
        self.chain = MERGE_CHAIN_SEED
        self.events_merged = 0
        self.frames_merged = 0

    @property
    def tracer(self) -> RequestTracer:
        """The newest ``capacity`` merged events as a new
        :class:`RequestTracer`; older merged events count as dropped."""
        tracer = RequestTracer(capacity=self.capacity)
        for _count, bodies in self._kept:
            tracer.events.extend(
                TraceSpanEvent(kind, now, track, name, args)
                for now, track, _seq, kind, name, args
                in _merge(marshal.loads(body)[0] for body in bodies)
            )
        tracer.dropped_events = max(0, self.events_merged - self.capacity)
        return tracer

    def ingest(self, frames: list) -> dict[str, int]:
        """Merge one barrier's frames; returns instant-name counts.

        ``frames`` may hold :class:`TelemetryFrame` objects or raw wire
        tuples (validated here); ``None`` entries (shards with telemetry
        off) are skipped.  The barrier's merged events are rendered
        here and hashed in one update.
        """
        decoded = []
        for frame in frames:
            if frame is None:
                continue
            if not isinstance(frame, TelemetryFrame):
                frame = TelemetryFrame.from_wire(frame)
            decoded.append(frame)
        decoded.sort(key=lambda f: f.shard_id)
        merged = _merge(f.events for f in decoded)
        instant_counts = Counter([
            event[4] for event in merged if event[3] == KIND_INSTANT
        ])
        if merged:
            digest = hashlib.sha256(self.chain.encode())
            digest.update(
                ("\n".join(render_lines(merged)) + "\n").encode()
            )
            self.chain = digest.hexdigest()
            self.events_merged += len(merged)
            self._keep(len(merged), tuple(f.body for f in decoded))
        for frame in decoded:
            apply_metric_deltas(self.registry, frame.metrics)
            self.frames_merged += 1
        return dict(instant_counts)

    def _keep(self, count: int, bodies: tuple) -> None:
        """Retain one barrier; forget the oldest barriers not needed to
        hold the newest ``capacity`` events."""
        self._kept.append((count, bodies))
        self._kept_events += count
        while self._kept_events - self._kept[0][0] >= self.capacity:
            self._kept_events -= self._kept.popleft()[0]

    def trace_fingerprint(self) -> str:
        """Chained digest of the merged stream (shard-count-invariant)."""
        return self.chain[:16]

    def exposition(self) -> str:
        return self.registry.exposition()

    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        return self.tracer.to_chrome_json(indent=indent)

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 2,
            "chain": self.chain,
            "events_merged": self.events_merged,
            "frames_merged": self.frames_merged,
            "registry": self.registry.snapshot_state(),
            "capacity": self.capacity,
            "kept": [[count, list(bodies)] for count, bodies in self._kept],
        }



class ClusterObservability:
    """Aggregator + store + detectors, driven once per epoch barrier.

    Built by the sharded coordinator when its ``telemetry`` mode is
    ``"store"`` (rollups + detectors from the completion stream only --
    zero worker-side cost, the flash-scale default) or ``"on"`` (plus
    per-shard frames merged into the global tracer/registry).  Records
    are duck-typed (``completion``/``machine``/``request_id``/``rtype``/
    ``energy_joules``/``response_time``) so this module never imports
    ``repro.shard``.
    """

    def __init__(
        self,
        epoch_seconds: float,
        rack_of: dict[str, int],
        rack_caps: dict[int, float] | None = None,
        frames: bool = False,
        capacity: int = 65536,
        thresholds: AnomalyThresholds | None = None,
    ) -> None:
        self.frames_enabled = frames
        self.aggregator = (
            TelemetryAggregator(capacity=capacity) if frames else None
        )
        self.store = TelemetryStore(
            epoch_seconds=epoch_seconds, rack_of=rack_of
        )
        self.engine = AnomalyEngine(
            rack_caps=rack_caps, thresholds=thresholds
        )
        self._prev_shed = 0
        self._prev_deferred = 0

    def observe_epoch(
        self,
        epoch_index: int,
        end: float,
        completions: list,
        failover_count: int,
        frames: list | None = None,
        shed_total: int = 0,
        deferred_total: int = 0,
    ) -> None:
        """Ingest one barrier: merged completions, frames, and deltas."""
        instant_counts: dict[str, int] = {}
        if self.aggregator is not None and frames:
            instant_counts = self.aggregator.ingest(frames)
        joules = 0.0
        for record in completions:
            window = min(epoch_index, max(0, int(record.completion
                         / self.store.epoch_seconds)))
            self.store.ingest_completion(
                window=window,
                machine=record.machine,
                request_id=record.request_id,
                rtype=record.rtype,
                energy_joules=record.energy_joules,
                response_time=record.response_time,
            )
            joules += record.energy_joules
        shed_delta = shed_total - self._prev_shed
        deferred_delta = deferred_total - self._prev_deferred
        self._prev_shed = shed_total
        self._prev_deferred = deferred_total
        self.store.ingest_window(
            window=epoch_index,
            shed=shed_delta,
            deferred=deferred_delta,
            failovers=failover_count,
            completed=len(completions),
            joules=joules,
        )
        self.engine.observe_window(WindowInputs(
            window=epoch_index,
            time=end,
            rack_watts=tuple(
                sorted(self.store.rack_watts(epoch_index).items())
            ),
            shed=shed_delta,
            failovers=failover_count,
            completed=len(completions),
            instant_counts=tuple(sorted(instant_counts.items())),
        ))

    def finalize(self, time: float, machine_rows: list) -> None:
        """Run the finalize-time detectors (attribution drift)."""
        self.engine.finalize(time, machine_rows)

    # -- summaries and exports ------------------------------------------
    def trace_fingerprint(self) -> Optional[str]:
        if self.aggregator is None:
            return None
        return self.aggregator.trace_fingerprint()

    def alert_fingerprint(self) -> str:
        return self.engine.alert_fingerprint()

    def store_fingerprint(self) -> str:
        return self.store.store_fingerprint()

    def summary(self) -> dict:
        """Plain-data roll-up for ``ShardRunResult``."""
        out = {
            "trace_fingerprint": self.trace_fingerprint(),
            "alert_fingerprint": self.alert_fingerprint(),
            "store_fingerprint": self.store_fingerprint(),
            "alerts": len(self.engine.alerts),
            "requests": self.store.requests_seen,
        }
        if self.aggregator is not None:
            out["events_merged"] = self.aggregator.events_merged
            out["frames_merged"] = self.aggregator.frames_merged
        return out

    def dashboard(self, meta: dict | None = None) -> dict:
        """The store dashboard document plus alerts + fingerprints."""
        meta = dict(meta or {})
        if self.aggregator is not None:
            meta["trace_fingerprint"] = self.aggregator.trace_fingerprint()
        meta["alert_fingerprint"] = self.alert_fingerprint()
        return self.store.dashboard(
            meta=meta, alerts=self.engine.alert_table()
        )

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "frames_enabled": self.frames_enabled,
            "prev_shed": self._prev_shed,
            "prev_deferred": self._prev_deferred,
            "aggregator": (
                self.aggregator.snapshot_state()
                if self.aggregator is not None else None
            ),
            "store": self.store.snapshot_state(),
            "engine": self.engine.snapshot_state(),
        }
