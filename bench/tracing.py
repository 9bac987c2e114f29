"""Per-layer host-time tracing, done from the benchmark's side.

Each layer of ``repro`` is named by the entry points the rest of the
program calls it through (:data:`ENTRIES`).  :func:`patched` wraps them
where callers look them up -- a class attribute or a module global --
before a world is built, so the bound methods the simulator stores for
later (recurring ticks, slice ends, reply handlers) resolve to the
wrappers as well.  Every call then records one span in memory: its entry,
its parent span, and its start and end on the host clock.  A span's self
time is its duration minus the durations of its child spans, and a
layer's self time is the sum over its entries' spans.  Time spent in code
no entry covers falls to the nearest traced caller; time outside every
span is ``other``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = (
    "sim", "kernel", "hardware", "core.accounting", "core.alignment",
    "workloads", "shard.coordinator", "shard.scheduler", "shard.transport",
    "shard.pool", "telemetry",
)

#: ``(layer, module, attribute, coordinator_side)``.  ``Class.*`` stands
#: for every public function defined on the class.  Module-level
#: functions are patched in the module whose code calls them.  Entries
#: marked coordinator-side are the only ones a cluster run with fork
#: workers wraps, so the forked children run unwrapped code.
ENTRIES = (
    ("sim", "repro.sim.engine", "Simulator.run_until", False),
    ("sim", "repro.sim.engine", "Simulator.run_epoch", False),
    ("sim", "repro.shard.worker", "ShardWorld.run_epoch", False),
    ("kernel", "repro.kernel.kernel", "Kernel._start_slice", False),
    ("kernel", "repro.kernel.kernel", "Kernel._end_slice", False),
    ("kernel", "repro.kernel.kernel", "Kernel.inject", False),
    ("kernel", "repro.kernel.kernel", "Kernel._deliver", False),
    ("hardware", "repro.hardware.machine", "Machine.integrate_power", False),
    ("hardware", "repro.hardware.machine", "Machine.checkpoint", False),
    ("hardware", "repro.hardware.meters", "_PeriodicMeter._tick", False),
    ("core.accounting", "repro.core.facility",
     "PowerContainerFacility.on_dispatch", False),
    ("core.accounting", "repro.core.facility",
     "PowerContainerFacility.on_undispatch", False),
    ("core.accounting", "repro.core.facility",
     "PowerContainerFacility.on_overflow", False),
    ("core.accounting", "repro.core.facility",
     "PowerContainerFacility.on_send", False),
    ("core.accounting", "repro.core.facility",
     "PowerContainerFacility.on_recv", False),
    ("core.accounting", "repro.core.facility",
     "PowerContainerFacility.on_io", False),
    ("core.accounting", "repro.core.accounting", "CoreAccountant.sample", False),
    ("core.accounting", "repro.core.batch",
     "BatchAccountingEngine.sample_all", False),
    ("core.alignment", "repro.core.facility",
     "PowerContainerFacility._os_tick", False),
    ("core.alignment", "repro.core.facility",
     "PowerContainerFacility._trace_tick", False),
    ("core.alignment", "repro.core.facility",
     "PowerContainerFacility._recalib_tick", False),
    ("core.alignment", "repro.core.recalibration",
     "OnlineRecalibrator.recalibrate", False),
    ("core.alignment", "repro.core.facility", "estimate_delay", False),
    ("workloads", "repro.workloads.base", "OpenLoopDriver._arrive", False),
    ("workloads", "repro.workloads.base", "OpenLoopDriver._on_reply", False),
    ("workloads", "repro.shard.worker", "ShardWorld._inject", False),
    ("shard.coordinator", "repro.shard.coordinator",
     "ShardedClusterRun.run_one_epoch", True),
    ("shard.scheduler", "repro.shard.scheduler",
     "PowerAwareScheduler.place", True),
    ("shard.scheduler", "repro.shard.scheduler",
     "PowerAwareScheduler.note_completed", True),
    ("shard.scheduler", "repro.shard.scheduler",
     "PowerAwareScheduler.note_failover", True),
    ("shard.transport", "repro.shard.transport", "ReliableLink.request", True),
    # Both ends of the link checksum frames, so only the in-process run
    # wraps it.
    ("shard.transport", "repro.shard.transport", "frame_crc", False),
    ("shard.pool", "repro.shard.pool", "ShardPool.run_epoch", True),
    ("shard.pool", "repro.shard.pool", "_ProcessWorker.exchange_frames", True),
    ("shard.pool", "repro.shard.pool",
     "_InProcessWorker.exchange_frames", True),
    ("telemetry", "repro.shard.worker", "ShardWorld.drain_frame", False),
    ("telemetry", "repro.telemetry.tracer", "RequestTracer.*", False),
    ("telemetry", "repro.telemetry.aggregate", "TelemetryAggregator.*", True),
    ("telemetry", "repro.telemetry.aggregate", "ClusterObservability.*", True),
    ("telemetry", "repro.telemetry.store", "TelemetryStore.*", True),
    ("telemetry", "repro.telemetry.anomaly", "AnomalyEngine.*", True),
)

#: Entries whose call counts or inclusive times the report divides by.
SAMPLE = "repro.core.accounting:CoreAccountant.sample"
RECALIB_TICK = "repro.core.facility:PowerContainerFacility._recalib_tick"
WORKER_EPOCH = "repro.shard.worker:ShardWorld.run_epoch"
PROCESS_EXCHANGE = "repro.shard.pool:_ProcessWorker.exchange_frames"

#: Every per-layer metric, ``(name, unit)``, in report order.
PER_LAYER = tuple(
    (f"{layer}.{suffix}", unit)
    for layer in LAYERS
    for suffix, unit in (("self_s", "s"), ("share", "ratio"),
                         ("calls", "count"))
) + (
    ("sim.events", "count"),
    ("core.accounting.us_per_sample", "us"),
    ("core.alignment.rounds", "count"),
    ("core.alignment.ms_per_round", "ms"),
    ("shard.scheduler.placements", "count"),
    ("shard.transport.frames", "count"),
    ("shard.transport.retransmits", "count"),
    ("shard.pool.wait_s", "s"),
    ("shard.worker.busy_s", "s"),
    ("shard.pool.parallel_eff", "ratio"),
    ("telemetry.frames", "count"),
    ("attr_err_pct", "%"),
    ("other.self_s", "s"),
    ("other.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.missing", "count"),
)


class SpanRecorder:
    """Spans in memory as parallel arrays indexed by span id.

    ``entry[i]`` is the span's entry id, ``parent[i]`` the id of the span
    open when it began (-1 for a root), ``start[i]``/``end[i]`` its host
    times.  The wrapper's own bookkeeping happens outside the span it
    records, so it lands in the caller's self time.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget every span (call only while no span is open)."""
        self.entry = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, fn, entry_id: int):
        """``fn`` with one span recorded per call."""
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans = recorder._open
            span = len(recorder.entry)
            recorder.entry.append(entry_id)
            recorder.parent.append(open_spans[-1])
            recorder.start.append(0.0)
            recorder.end.append(0.0)
            open_spans.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                recorder.start[span] = start
                recorder.end[span] = end

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays, one per field."""
        return {
            "entry": np.asarray(self.entry, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }


def fold(spans: dict[str, np.ndarray], n_entries: int):
    """Per-entry ``(calls, inclusive_s, self_s)`` arrays from spans.

    Self time is a span's duration minus its children's durations.
    Inclusive time sums whole durations, so it is only meaningful for an
    entry that never runs inside itself.
    """
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    children = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    own = duration - children
    entry = spans["entry"]
    return (
        np.bincount(entry, minlength=n_entries),
        np.bincount(entry, weights=duration, minlength=n_entries),
        np.bincount(entry, weights=own, minlength=n_entries),
    )


def _resolve(module_name: str, attribute: str):
    """``[(owner, name, label)]`` for one table row; empty when missing."""
    label = f"{module_name}:{attribute}"
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if "." not in attribute:
        return [(module, attribute, label)] \
            if callable(getattr(module, attribute, None)) else []
    class_name, name = attribute.split(".", 1)
    owner = getattr(module, class_name, None)
    if not inspect.isclass(owner):
        return []
    if name == "*":
        return [
            (owner, public, f"{module_name}:{class_name}.{public}")
            for public, value in vars(owner).items()
            if not public.startswith("_") and inspect.isfunction(value)
        ]
    return [(owner, name, label)] \
        if inspect.isfunction(getattr(owner, name, None)) else []


@dataclass
class Installed:
    """The entry points one :func:`patched` block wrapped."""

    #: ``(layer, label)`` per entry id.
    entries: list[tuple[str, str]]
    #: Table rows that no longer resolve in ``repro``.
    missing: list[str]


@contextmanager
def patched(recorder: SpanRecorder, coordinator_only: bool = False,
            table=ENTRIES):
    """Wrap every entry of ``table`` for the duration of the block."""
    installed = Installed(entries=[], missing=[])
    undo = []
    try:
        for layer, module_name, attribute, coordinator in table:
            if coordinator_only and not coordinator:
                continue
            targets = _resolve(module_name, attribute)
            if not targets:
                installed.missing.append(f"{module_name}:{attribute}")
            for owner, name, label in targets:
                own = vars(owner).get(name)
                setattr(owner, name, recorder.wrap(
                    getattr(owner, name), len(installed.entries)
                ))
                installed.entries.append((layer, label))
                undo.append((owner, name, own))
        yield installed
    finally:
        for owner, name, own in reversed(undo):
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


def entry_times(spans, installed: Installed) -> dict[str, tuple]:
    """``label -> (calls, inclusive_s, self_s)`` for every wrapped entry."""
    calls, inclusive, own = fold(spans, len(installed.entries))
    return {
        label: (int(calls[index]), float(inclusive[index]), float(own[index]))
        for index, (_layer, label) in enumerate(installed.entries)
    }


def layer_metrics(times: dict[str, tuple], installed: Installed,
                  wall: float) -> dict[str, float]:
    """``L.self_s``/``L.share``/``L.calls`` per layer plus ``other``."""
    metrics: dict[str, float] = {}
    layer_of = {label: layer for layer, label in installed.entries}
    traced = 0.0
    for layer in LAYERS:
        labels = [label for label in times if layer_of[label] == layer]
        self_s = sum(times[label][2] for label in labels)
        traced += self_s
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / wall
        metrics[f"{layer}.calls"] = float(
            sum(times[label][0] for label in labels)
        )
    metrics["other.self_s"] = wall - traced
    metrics["other.share"] = (wall - traced) / wall
    return metrics
