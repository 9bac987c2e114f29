"""The power-container facility: everything wired onto a kernel.

:class:`PowerContainerFacility` implements the kernel's hook interface and
assembles the full Section 3 machinery for one machine:

* a :class:`~repro.core.registry.ContainerRegistry` holding per-request
  containers plus the background container;
* one :class:`~repro.core.accounting.CoreAccountant` per core, evaluating
  the configured accounting approaches in parallel (so validation can
  compare approaches #1/#2/#3 from one run);
* a machine-level *model tracer* producing the modelled power series that
  measurement alignment and Fig. 2/3 need;
* a recalibration manager that aligns delayed meter samples against the
  model trace via cross-correlation (Eq. 4) and refits the recalibrated
  approach's coefficients online; and
* optional request power conditioning (attached separately).

Request drivers use :meth:`create_request_container` to mint a container,
tag the injected request message with its id, and
:meth:`complete_request` when the response arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.core.accounting import (
    CoreAccountant,
    EnergyTimeline,
    ObserverEffect,
    RenderedNames,
    _Approach,
)
from repro.core.alignment import estimate_delay
from repro.core.calibration import CalibrationResult
from repro.core.chipshare import ChipShareEstimator
from repro.core.container import PowerContainer
from repro.core.model import (
    FEATURES_EQ1,
    FEATURES_FULL,
    PowerModel,
)
from repro.core.recalibration import OnlineRecalibrator, RecalibrationGuard
from repro.core.registry import ContainerRegistry
from repro.hardware.core import Core
from repro.hardware.counters import COUNTER_WRAP
from repro.hardware.meters import _PeriodicMeter
from repro.hardware.occupancy import OccupancyCounter
from repro.kernel import Kernel, KernelHooks, Message, Process
from repro.kernel.sockets import Endpoint


#: Smallest capacity of the model-trace buffers once used (they start
#: empty, so an untraced facility allocates nothing).
_MIN_BUFFER_CAPACITY = 1024


def _grown(buffer: np.ndarray, used: int) -> np.ndarray:
    """A buffer of twice the capacity (at least the minimum), ``used`` kept."""
    capacity = max(2 * len(buffer), _MIN_BUFFER_CAPACITY)
    grown = np.empty((capacity,) + buffer.shape[1:])
    grown[:used] = buffer[:used]
    return grown


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class ApproachConfig:
    """Configuration of one accounting approach evaluated in parallel."""

    name: str
    features: tuple[str, ...]
    chipshare_mode: str
    recalibrated: bool = False
    idle_task_check: bool = True


def default_approaches() -> list[ApproachConfig]:
    """The paper's three validation approaches (Section 4.2).

    Approach #1 models core-level events only (Eq. 1).  Approaches #2/#3
    use the full-system feature set -- Eq. 2's chip share plus the
    Section 3.3 peripheral terms -- so device power is not absorbed into
    CPU coefficients during calibration.  Per-task metric samples carry
    zero disk/net activity (I/O energy is attributed separately), so the
    peripheral features do not perturb per-request CPU estimates.
    """
    return [
        ApproachConfig("eq1", FEATURES_EQ1, chipshare_mode="none"),
        ApproachConfig("eq2", FEATURES_FULL, chipshare_mode="mailbox"),
        ApproachConfig(
            "recal", FEATURES_FULL, chipshare_mode="mailbox", recalibrated=True
        ),
    ]


@dataclass
class FacilityHealth:
    """Self-healing counters one facility exposes (Section 3.2 hardening).

    ``meter_state`` is ``"ok"`` while fresh meter samples keep arriving and
    ``"stale"`` after the staleness timeout expires: the facility then
    freezes the live models on their last-good coefficients and suspends
    recalibration until samples resume (``meter_fallbacks`` /
    ``meter_recoveries`` count the transitions).  ``rejected_meter_samples``
    counts delivered readings discarded for being non-finite;
    ``untagged_segments`` counts received segments whose in-band context tag
    was missing -- work that is routed to the background container instead
    of crashing or mis-charging a stale binding.
    """

    meter_state: str = "ok"
    meter_fallbacks: int = 0
    meter_recoveries: int = 0
    rejected_meter_samples: int = 0
    untagged_segments: int = 0

    def export_stats(self) -> dict[str, float]:
        """Counters as a flat dict (stable keys, float values)."""
        return {
            "meter_ok": 1.0 if self.meter_state == "ok" else 0.0,
            "meter_fallbacks": float(self.meter_fallbacks),
            "meter_recoveries": float(self.meter_recoveries),
            "rejected_meter_samples": float(self.rejected_meter_samples),
            "untagged_segments": float(self.untagged_segments),
        }


class PowerContainerFacility(KernelHooks):
    """Power containers for one machine (attaches itself to the kernel)."""

    def __init__(
        self,
        kernel: Kernel,
        calibration: CalibrationResult,
        approaches: Optional[list[ApproachConfig]] = None,
        primary: Optional[str] = None,
        observer: Optional[ObserverEffect] = ObserverEffect(),
        subtract_observer: bool = True,
        meter: Optional[_PeriodicMeter] = None,
        meter_idle_watts: float = 0.0,
        meter_covers_peripherals: bool = False,
        recalib_interval: float = 0.5,
        max_delay_seconds: float = 2.5,
        trace_period: Optional[float] = None,
        track_user_level_stages: bool = True,
        meter_staleness_timeout: Optional[float] = None,
        route_untagged_to_background: bool = False,
        telemetry=None,
        telemetry_node: str = "",
    ) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.simulator = kernel.simulator
        self.calibration = calibration
        self.registry = ContainerRegistry()
        #: Optional :class:`~repro.telemetry.Telemetry` handle.  ``None``
        #: (the default) leaves every instrumented path byte-identical to
        #: the uninstrumented code; ``telemetry_node`` prefixes track and
        #: metric names so cluster machines sharing one handle stay apart.
        self.telemetry = telemetry
        self.telemetry_node = telemetry_node
        self._tprefix = f"{telemetry_node}/" if telemetry_node else ""
        self._t_facility_track = f"facility:{telemetry_node or 'machine'}"
        if telemetry is not None:
            mprefix = (
                f"facility_{telemetry_node}_" if telemetry_node else "facility_"
            )
            self._m_untagged = telemetry.registry.counter(
                mprefix + "segments_untagged_total",
                help="received socket segments whose in-band tag was lost",
            )
            self._m_overflows = telemetry.registry.counter(
                mprefix + "overflow_interrupts_total",
                help="counter-overflow sampling interrupts taken",
            )
        else:
            self._m_untagged = None
            self._m_overflows = None
        configs = approaches if approaches is not None else default_approaches()
        self.approach_configs = {c.name: c for c in configs}
        self.primary = primary if primary is not None else configs[-1].name
        if self.primary not in self.approach_configs:
            raise ValueError(f"primary approach {self.primary!r} not configured")

        self.models: dict[str, PowerModel] = {}
        self.recalibrators: dict[str, OnlineRecalibrator] = {}
        approach_objs: list[_Approach] = []
        for config in configs:
            model = calibration.fit(config.features, label=config.name)
            self.models[config.name] = model
            estimator = ChipShareEstimator(
                mode=config.chipshare_mode,
                idle_task_check=config.idle_task_check,
            )
            approach_objs.append(
                _Approach(name=config.name, model=model, chipshare=estimator)
            )
            if config.recalibrated:
                indexes = [FEATURES_FULL.index(f) for f in config.features]
                self.recalibrators[config.name] = OnlineRecalibrator(
                    model,
                    calibration.samples[:, indexes],
                    calibration.active_watts,
                    guard=RecalibrationGuard(),
                )

        #: Full-feature model used to attribute peripheral I/O energy.
        self.io_model = calibration.fit(FEATURES_FULL, label="io")

        self.observer = observer
        #: The machine's open energy-timeline window (``None`` without a
        #: telemetry handle); every accountant charges into it.
        self.energy_timeline = (
            EnergyTimeline(telemetry, self._tprefix)
            if telemetry is not None
            else None
        )
        #: Pre-rendered stage-span names: ``core:<node>/<idx>`` tracks
        #: (shared with the energy timeline) and ``stage:<name>`` spans.
        self._t_core_tracks = (
            self.energy_timeline.core_tracks
            if self.energy_timeline is not None
            else None
        )
        self._t_stage_names = RenderedNames("stage:")
        self.accountants: dict[int, CoreAccountant] = {
            core.index: CoreAccountant(
                core=core,
                machine=self.machine,
                registry=self.registry,
                approaches=list(approach_objs),
                primary=self.primary,
                observer=observer,
                subtract_observer=subtract_observer,
                timeline=self.energy_timeline,
            )
            for core in self.machine.cores
        }

        # --- model trace + recalibration -------------------------------
        self.meter = meter
        self.meter_idle_watts = meter_idle_watts
        self.meter_covers_peripherals = meter_covers_peripherals
        self.recalib_interval = recalib_interval
        self.max_delay_seconds = max_delay_seconds
        self.trace_period = (
            trace_period
            if trace_period is not None
            else (meter.period if meter is not None else 10e-3)
        )
        #: Grid period of the OS-visible chip/device busy counts (1 ms, or
        #: the trace period when that is shorter).
        self.os_subsample = min(1e-3, self.trace_period)
        #: The machine's occupancy counter on that grid, from
        #: :meth:`start_tracing` on; each trace tick takes its counts.
        self.occupancy: Optional[OccupancyCounter] = None
        #: The model trace, in columns: interval-end times, the primary
        #: model's machine active watts, and the FEATURES_FULL row of each
        #: trace tick.  Growable buffers; the first ``_trace_len`` entries
        #: are live (see :meth:`model_trace_series` / :meth:`model_trace_rows`).
        self._trace_times = np.empty(0)
        self._trace_watts = np.empty(0)
        self._trace_rows = np.empty((0, len(FEATURES_FULL)))
        self._trace_len = 0
        self.estimated_delay_samples: Optional[int] = None
        #: When true, estimated_delay_samples was set externally (ablation)
        #: and must not be re-estimated.
        self._delay_pinned = False
        #: Delivery-time watermark of meter samples already consumed.  A
        #: watermark (rather than a list index) stays correct when faults
        #: duplicate samples or deliver them out of order: each round
        #: consumes the delivered samples past it.
        self._meter_consumed_until = 0.0

        # --- self-healing guards (robustness hardening) -----------------
        self.health = FacilityHealth()
        self.route_untagged_to_background = route_untagged_to_background
        if meter_staleness_timeout is not None:
            self.meter_staleness_timeout = meter_staleness_timeout
        elif meter is not None:
            self.meter_staleness_timeout = max(
                4.0 * (meter.period + meter.delay), 2.0 * recalib_interval
            )
        else:
            self.meter_staleness_timeout = float("inf")
        self._trace_last_counters = [
            kernel.effective_core_counters(core) for core in self.machine.cores
        ]
        #: Positions of the primary model's features within FEATURES_FULL,
        #: precomputed once -- the trace tick projects every row with it.
        #: The feature set of a model never changes (recalibration only
        #: swaps coefficients), so this cannot go stale.  When the primary
        #: uses the full feature set (the default), the gather is the
        #: identity and the trace tick dots the row directly.
        self._trace_feature_indexes = np.array(
            [FEATURES_FULL.index(f) for f in self.models[self.primary].features],
            dtype=np.intp,
        )
        self._trace_identity_features = (
            self.models[self.primary].features == FEATURES_FULL
        )
        self._tracing = False

        #: Optional conditioning policy (see attach_conditioner).
        self.conditioner = None

        #: User-level stage-transfer inference (the paper's future work,
        #: after Whodunit): learned binding of synchronization-object keys
        #: to containers.  Off => event-driven servers are mis-attributed,
        #: exactly the limitation Section 3.3 describes.
        self.track_user_level_stages = track_user_level_stages
        self._sync_bindings: dict[Any, int] = {}

        kernel.hooks = self

    # ------------------------------------------------------------------
    # Request lifecycle API (used by workload drivers)
    # ------------------------------------------------------------------
    def create_request_container(
        self, label: str = "", meta: Optional[dict[str, Any]] = None
    ) -> PowerContainer:
        """Mint a container for a new request (holds one driver reference)."""
        container = self.registry.create(
            label=label, created_at=self.simulator.now, meta=meta
        )
        container.refcount += 1
        t = self.telemetry
        if t is not None:
            t.tracer.begin_frozen(
                self.simulator.now,
                f"request:{self._tprefix}{container.id}",
                "request",
                (("container", container.id), ("label", label)),
            )
        return container

    def complete_request(self, container: PowerContainer) -> None:
        """Release the driver's reference when the response is delivered."""
        t = self.telemetry
        if t is not None:
            t.tracer.end_frozen(
                self.simulator.now,
                f"request:{self._tprefix}{container.id}",
                "request",
                (("energy_j", container.total_energy(self.primary)),),
            )
        self.registry.decref(container.id)

    def attach_conditioner(self, conditioner) -> None:
        """Install a power conditioning policy (Section 3.4)."""
        self.conditioner = conditioner

    # ------------------------------------------------------------------
    # Model trace & recalibration
    # ------------------------------------------------------------------
    def start_tracing(self) -> None:
        """Begin the periodic machine-level model trace (and recalibration)."""
        if self._tracing:
            return
        self._tracing = True
        self._trace_last_counters = [
            self.kernel.effective_core_counters(core)
            for core in self.machine.cores
        ]
        self.occupancy = OccupancyCounter(self.machine, self.os_subsample)
        self.simulator.schedule_recurring(self.trace_period, self._trace_tick)
        if self.meter is not None:
            self.meter.start()
            self.simulator.schedule_recurring(
                self.recalib_interval, self._recalib_tick
            )

    def _trace_tick(self) -> None:  # hot-path
        if not self._tracing:
            self.simulator.current_event.cancel()
            return
        now = self.simulator.now
        elapsed_cycles = self.machine.freq_hz * self.trace_period
        # Plain-float accumulators, added in the same core order as the
        # previous ndarray accumulation: elementwise IEEE adds in a fixed
        # order are bit-identical, without two array allocations per core.
        # The snapshots are plain 5-tuples (no EventVector per core) and
        # the wraparound correction is unrolled from ``wrapped_delta``.
        t_cycles = t_ins = t_flops = t_cache = t_mem = 0.0
        last = self._trace_last_counters
        effective = self.kernel.effective_core_counters
        i = 0
        for core in self.machine.cores:
            snap = effective(core)
            prev = last[i]
            last[i] = snap
            i += 1
            d = snap[0] - prev[0]
            if d < 0.0:
                d = d + COUNTER_WRAP if d < -0.5 else 0.0
            t_cycles += d
            d = snap[1] - prev[1]
            if d < 0.0:
                d = d + COUNTER_WRAP if d < -0.5 else 0.0
            t_ins += d
            d = snap[2] - prev[2]
            if d < 0.0:
                d = d + COUNTER_WRAP if d < -0.5 else 0.0
            t_flops += d
            d = snap[3] - prev[3]
            if d < 0.0:
                d = d + COUNTER_WRAP if d < -0.5 else 0.0
            t_cache += d
            d = snap[4] - prev[4]
            if d < 0.0:
                d = d + COUNTER_WRAP if d < -0.5 else 0.0
            t_mem += d
        # The grid instant at a trace time belongs to this interval when
        # the two periods are equal (the grid chain was armed first) and
        # to the next one when the trace period is longer (its tick was
        # armed a whole trace period before the grid instant's).
        chipshare, mdisk, mnet = self.occupancy.take(
            inclusive=self.os_subsample == self.trace_period
        )

        n = self._trace_len
        if n == len(self._trace_times):
            self._grow_trace()
        # The preallocated buffer row is this tick's row: filled in place,
        # no per-tick array.
        row = self._trace_rows[n]
        row[0] = t_cycles / elapsed_cycles
        row[1] = t_ins / elapsed_cycles
        row[2] = t_flops / elapsed_cycles
        row[3] = t_cache / elapsed_cycles
        row[4] = t_mem / elapsed_cycles
        row[5] = chipshare
        row[6] = mdisk
        row[7] = mnet
        primary_model = self.models[self.primary]
        if self._trace_identity_features:
            # Full-feature primary: the fancy-index gather would copy the
            # row verbatim, so dot the row directly (``.dot`` runs the same
            # ddot kernel as ``@`` without __matmul__ dispatch).
            watts = float(row.dot(primary_model.coef_view))
        else:
            watts = float(
                row[self._trace_feature_indexes].dot(primary_model.coef_view)
            )
        if watts < 0.0:
            watts = 0.0
        self._trace_times[n] = now
        self._trace_watts[n] = watts
        self._trace_len = n + 1

    def _grow_trace(self) -> None:
        """Double the trace buffers' capacity."""
        n = self._trace_len
        self._trace_times = _grown(self._trace_times, n)
        self._trace_watts = _grown(self._trace_watts, n)
        self._trace_rows = _grown(self._trace_rows, n)

    def _recalib_tick(self) -> None:
        if not self._tracing:
            self.simulator.current_event.cancel()
            return
        available, watts = self.meter.delivered()
        self._check_meter_health(available)
        if self.health.meter_state == "ok":
            self._run_recalibration(available, watts)

    def _check_meter_health(self, available: np.ndarray) -> None:
        """Meter-health watchdog: detect staleness, fall back, re-arm.

        ``available`` holds the delivery times of the meter's delivered
        samples, in production order.  When no sample has been delivered
        for ``meter_staleness_timeout`` seconds the meter is declared
        stale: live recalibrated models are rolled back to their last-good
        coefficients (the offline fit if no refit was ever accepted) and
        recalibration is suspended.  The state flips back automatically --
        counting a recovery -- once fresh samples resume.
        """
        now = self.simulator.now
        last_delivery = float(available[-1]) if len(available) else 0.0
        stale = (now - last_delivery) > self.meter_staleness_timeout
        if stale and self.health.meter_state == "ok":
            self.health.meter_state = "stale"
            self.health.meter_fallbacks += 1
            for name, recalibrator in self.recalibrators.items():
                self.models[name].update_coefficients(
                    recalibrator.last_good_coefficients()
                )
            t = self.telemetry
            if t is not None:
                t.tracer.instant(now, self._t_facility_track, "meter.stale")
        elif not stale and self.health.meter_state == "stale":
            self.health.meter_state = "ok"
            self.health.meter_recoveries += 1
            t = self.telemetry
            if t is not None:
                t.tracer.instant(now, self._t_facility_track, "meter.recovered")

    def _run_recalibration(
        self, available: np.ndarray, watts: np.ndarray
    ) -> None:
        """Align the delivered meter series and refit the live model.

        ``available`` and ``watts`` are the meter's delivered samples in
        production order, as new arrays (``watts`` is overwritten).  The
        delay estimate correlates the whole series with the model trace
        (Eq. 4).  The refit batch is the samples delivered past the
        ``_meter_consumed_until`` watermark, each paired with the model row
        of its delivery time shifted back by the delay.
        """
        if not self.recalibrators:
            return
        max_delay_samples = int(round(self.max_delay_seconds / self.trace_period))
        if len(watts) < max_delay_samples + 5 or self._trace_len < 5:
            return
        new = available > self._meter_consumed_until
        new_available = available[new]
        new_watts = watts[new]
        if not self._delay_pinned:
            # Re-estimate with the full series each round (the correlation
            # over a handful of delays is cheap); the estimate stabilizes
            # quickly and the lag itself does not change on a machine.
            # Non-finite readings carry no alignment information; they are
            # zeroed so one NaN cannot blank the whole cross-correlation.
            measured = watts
            measured -= self.meter_idle_watts
            measured[~np.isfinite(measured)] = 0.0
            modeled = self._trace_watts[: self._trace_len]
            self.estimated_delay_samples = estimate_delay(
                measured, modeled, min(max_delay_samples, len(modeled) - 1)
            )
        delay = self.estimated_delay_samples

        if not len(new_available):
            return
        self._meter_consumed_until = float(new_available.max())
        finite = np.isfinite(new_watts)
        self.health.rejected_meter_samples += int(np.count_nonzero(~finite))
        # Software sees only the delivery time; shifting it back by the
        # alignment-estimated delay recovers the interval the reading
        # actually describes (Section 3.2).  ``np.rint`` rounds half to
        # even, like ``round``.
        model_indexes = (
            np.rint(new_available[finite] / self.trace_period).astype(np.int64)
            - 1 - delay
        )
        in_trace = (model_indexes >= 0) & (model_indexes < self._trace_len)
        model_indexes = model_indexes[in_trace]
        if not len(model_indexes):
            return
        row_matrix = self._trace_rows[model_indexes]
        active = new_watts[finite][in_trace] - self.meter_idle_watts
        if self.meter_covers_peripherals:
            # Remove the (offline-modelled) peripheral power so the CPU
            # model is fitted against CPU active power only.
            active -= self.io_model.coefficient("mdisk") * row_matrix[
                :, FEATURES_FULL.index("mdisk")
            ]
            active -= self.io_model.coefficient("mnet") * row_matrix[
                :, FEATURES_FULL.index("mnet")
            ]
        # ``max(active, 0.0)`` per reading: NaN and -0.0 pass through.
        active = np.where(active < 0.0, 0.0, active)
        for name, recalibrator in self.recalibrators.items():
            features = self.models[name].features
            indexes = [FEATURES_FULL.index(f) for f in features]
            recalibrator.add_pairs(row_matrix[:, indexes], active)
            recalibrator.recalibrate()
        t = self.telemetry
        if t is not None:
            t.tracer.instant(
                self.simulator.now,
                self._t_facility_track,
                "recal.refit",
                {"rows": len(model_indexes), "delay_samples": delay},
            )

    # ------------------------------------------------------------------
    # Kernel hook implementations
    # ------------------------------------------------------------------
    def on_dispatch(self, core: Core, process: Process) -> None:
        accountant = self.accountants[core.index]
        accountant.sample_and_rebind(
            self.simulator.now, process.container_id, occupied=True,
            stage=process.name,
        )
        if self.conditioner is not None:
            self.conditioner.on_context_switch(core, accountant.bound_container)
        t = self.telemetry
        if t is not None:
            t.tracer.begin_frozen(
                self.simulator.now,
                self._t_core_tracks[core.index],
                self._t_stage_names[process.name],
                (("container", process.container_id),),
            )

    def on_undispatch(self, core: Core, process: Process, reason: str) -> None:
        self.accountants[core.index].sample_and_rebind(
            self.simulator.now, None, occupied=False
        )
        t = self.telemetry
        if t is not None:
            t.tracer.end_frozen(
                self.simulator.now,
                self._t_core_tracks[core.index],
                self._t_stage_names[process.name],
                (("reason", reason),),
            )

    def on_overflow(self, core: Core, process: Process) -> None:
        accountant = self.accountants[core.index]
        accountant.sample(self.simulator.now)
        if self.conditioner is not None:
            self.conditioner.adjust(core, accountant.bound_container)
        t = self.telemetry
        if t is not None:
            self._m_overflows.inc()
            self.energy_timeline.overflow(self.simulator.now, core.index)

    def on_binding_change(
        self, process: Process, old_id: Optional[int], new_id: Optional[int]
    ) -> None:
        if process.core_index is not None:
            self.accountants[process.core_index].sample_and_rebind(
                self.simulator.now, new_id
            )
        if old_id is not None:
            self.registry.decref(old_id)
        if new_id is not None:
            self.registry.incref(new_id)

    def on_fork(self, parent: Process, child: Process) -> None:
        if child.container_id is not None:
            self.registry.incref(child.container_id)

    def on_exit(self, process: Process) -> None:
        if process.container_id is not None:
            self.registry.decref(process.container_id)

    def on_send(self, process: Process, message: Message, dest: Endpoint) -> None:
        if message.tag.container_id is not None:
            self.registry.incref(message.tag.container_id)
            t = self.telemetry
            if t is not None:
                t.tracer.instant(
                    self.simulator.now,
                    f"request:{self._tprefix}{message.tag.container_id}",
                    "socket.send",
                    {"carried_stats": message.tag.carried_stats is not None},
                )

    def on_recv(self, process: Process, message: Message, source: Endpoint) -> None:
        tag = message.tag
        if tag.container_id is None:
            # The in-band tag was lost (or the sender was untracked).  The
            # reader would otherwise keep charging whatever request it
            # served last; optionally rebind it to the background container
            # so the misattribution is visible there instead of polluting a
            # finished request's statistics.
            self.health.untagged_segments += 1
            t = self.telemetry
            if t is not None:
                self._m_untagged.inc()
                t.tracer.instant(
                    self.simulator.now,
                    self._t_facility_track,
                    "tag.loss",
                    {"routed_to_background": self.route_untagged_to_background},
                )
            if (
                self.route_untagged_to_background
                and process.container_id is not None
            ):
                self.kernel.rebind(process, None)
            return
        t = self.telemetry
        if t is not None:
            t.tracer.instant(
                self.simulator.now,
                f"request:{self._tprefix}{tag.container_id}",
                "socket.recv",
                {"carried_stats": tag.carried_stats is not None},
            )
        if tag.carried_stats:
            self.registry.get(tag.container_id).stats.merge_carried(
                tag.carried_stats
            )
        self.registry.decref(tag.container_id)

    def on_io(self, process: Process, device_name: str, nbytes: float) -> None:
        container = self.registry.get(process.container_id)
        device = self.machine.disk if device_name == "disk" else self.machine.net
        duration = device.transfer_time(nbytes)
        feature = "mdisk" if device_name == "disk" else "mnet"
        container.stats.io_energy_joules += (
            self.io_model.coefficient(feature) * duration
        )
        if device_name == "disk":
            container.stats.events.disk_bytes += nbytes
        else:
            container.stats.events.net_bytes += nbytes

    def on_sync(self, process: Process, key: Any) -> None:
        if not self.track_user_level_stages:
            return
        known = self._sync_bindings.get(key)
        if known is None:
            # First access under some binding: learn the association (the
            # lock guards that request's continuation state).
            if process.container_id is not None:
                self._sync_bindings[key] = process.container_id
            return
        if known != process.container_id:
            # The process resumed another request's continuation: rebind
            # (samples the closing interval first, via on_binding_change).
            self.kernel.rebind(process, known)

    def export_stats(self, process: Process) -> Optional[dict[str, float]]:
        if process.container_id is None:
            return None
        # Bring the container current: account the sender's in-progress
        # interval so the tagged message carries up-to-date statistics.
        if process.core_index is not None:
            self.accountants[process.core_index].sample(self.simulator.now)
        return self.registry.get(process.container_id).export_carried_delta()

    # ------------------------------------------------------------------
    # Introspection helpers for experiments
    # ------------------------------------------------------------------
    def publish_metrics(self, registry=None) -> None:
        """Publish the robustness counters as ``facility_*`` gauges.

        Watchdog counters (``meter_ok``, ``meter_fallbacks``, ...),
        per-approach recalibration and guard counters
        (``<approach>_recalibrations``, ``<approach>_guard_rejected``, ...)
        and ``samples_taken``, each as ``facility_<key>``
        (``facility_<node>_<key>`` when a ``telemetry_node`` name was
        configured).  With no explicit ``registry`` the attached telemetry
        handle's registry is used; without either, this is a no-op.
        """
        if registry is None:
            if self.telemetry is None:
                return
            registry = self.telemetry.registry
        prefix = (
            f"facility_{self.telemetry_node}_"
            if self.telemetry_node
            else "facility_"
        )

        def put(key: str, value: float) -> None:
            registry.gauge(prefix + key).set(value)

        for key, value in self.health.export_stats().items():
            put(key, value)
        for name, recalibrator in sorted(self.recalibrators.items()):
            put(f"{name}_rejected_samples", recalibrator.rejected_sample_count)
            put(f"{name}_rolled_back", recalibrator.rolled_back_count)
            put(f"{name}_recalibrations", recalibrator.recalibration_count)
            if recalibrator.guard is not None:
                for key, value in recalibrator.guard.export_stats().items():
                    put(f"{name}_{key}", value)
        put(
            "samples_taken",
            sum(a.samples_taken for a in self.accountants.values()),
        )

    def flush(self) -> None:
        """Force a sample on every core (end-of-experiment accounting).

        Samples each core's accountant in ascending core index -- mailbox
        posts feed sibling chip-share estimates, so the order is part of
        the result -- then closes the energy-timeline window, so the
        timeline ends on the flushed values.
        """
        now = self.simulator.now
        accountants = self.accountants
        for index in sorted(accountants):
            accountants[index].sample(now)
        if self.energy_timeline is not None:
            self.energy_timeline.close()

    def model_trace_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(interval-end times, modelled machine active watts) arrays.

        Read-only views of the trace so far; later ticks do not change them.
        """
        n = self._trace_len
        return _read_only(self._trace_times[:n]), _read_only(self._trace_watts[:n])

    def model_trace_rows(self) -> np.ndarray:
        """Read-only ``(ticks, len(FEATURES_FULL))`` view of the trace rows.

        Row ``i`` holds the machine-level feature vector of the interval
        ending at ``model_trace_series()[0][i]``.
        """
        return _read_only(self._trace_rows[: self._trace_len])

    def pin_delay(self, delay_samples: int) -> None:
        """Force a fixed measurement delay (alignment ablation)."""
        self.estimated_delay_samples = delay_samples
        self._delay_pinned = True

    @property
    def estimated_delay_seconds(self) -> Optional[float]:
        """Alignment-estimated meter delay, if computed."""
        if self.estimated_delay_samples is None:
            return None
        return self.estimated_delay_samples * self.trace_period

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Registry, accountants, models, trace, meter, and health state.

        The sync-binding table may hold arbitrary hashable keys, so it is
        rendered with ``str`` keys for verification only.
        """
        return {
            "v": 2,
            "primary": self.primary,
            "registry": self.registry.snapshot_state(),
            "accountants": {
                str(index): accountant.snapshot_state()
                for index, accountant in sorted(self.accountants.items())
            },
            "model_coefficients": {
                name: model.coefficients.tolist()
                for name, model in sorted(self.models.items())
            },
            "recalibrators": {
                name: recalibrator.snapshot_state()
                for name, recalibrator in sorted(self.recalibrators.items())
            },
            "trace": [
                [time, row, watts]
                for time, row, watts in zip(
                    self._trace_times[: self._trace_len].tolist(),
                    self._trace_rows[: self._trace_len].tolist(),
                    self._trace_watts[: self._trace_len].tolist(),
                )
            ],
            "estimated_delay_samples": self.estimated_delay_samples,
            "delay_pinned": self._delay_pinned,
            "meter_consumed_until": self._meter_consumed_until,
            "meter": (
                self.meter.snapshot_state() if self.meter is not None else None
            ),
            "health": {
                "meter_state": self.health.meter_state,
                "meter_fallbacks": self.health.meter_fallbacks,
                "meter_recoveries": self.health.meter_recoveries,
                "rejected_meter_samples": self.health.rejected_meter_samples,
                "untagged_segments": self.health.untagged_segments,
            },
            "occupancy": (
                self.occupancy.snapshot_state()
                if self.occupancy is not None
                else None
            ),
            "trace_last_counters": [
                list(entry) for entry in self._trace_last_counters
            ],
            "tracing": self._tracing,
            "sync_bindings": {
                str(key): cid
                for key, cid in sorted(
                    self._sync_bindings.items(), key=lambda kv: str(kv[0])
                )
            },
            "conditioner": (
                self.conditioner.snapshot_state()
                if self.conditioner is not None
                else None
            ),
        }
