"""Per-core request power accounting (Section 3.3).

Each CPU core gets a :class:`CoreAccountant`.  At every sampling point --
request context switches on the core, periodic counter-overflow interrupts,
and in-place binding changes -- the accountant:

1. reads the core's cumulative counters and forms the delta since its last
   sample (no cross-core synchronization, per Section 3.1);
2. subtracts the estimated maintenance-induced event counts of its own
   earlier sampling work (the *observer effect* correction, Section 3.5);
3. converts the delta to per-elapsed-cycle metrics, estimates the chip
   maintenance share (Eq. 3), evaluates every configured model approach,
   and charges ``power * dt`` of energy to the bound container;
4. posts its fresh utilization to the core's mailbox for sibling reads; and
5. performs the maintenance work itself: injecting the paper-measured event
   counts (2948 cycles, 1656 instructions, 16 FLOPs, 3 LLC references) into
   the counters and the corresponding true energy into ground truth.

Hot-path layout
---------------

The accountant keeps its counter baseline as a plain 7-float list
(``EVENT_NAMES`` order) instead of an
:class:`~repro.hardware.events.EventVector`, and :meth:`CoreAccountant
.sample` runs the delta / wrap / observer-correction / metric arithmetic on
local floats -- the same expressions as the vector helpers
(``wrapped_delta``, ``EventVector.subtract(clamp=True)``), unrolled so no
intermediate vectors are allocated per sample.  The interval-charging back
half lives in :meth:`CoreAccountant._charge`.  Every sample, at an
interrupt, a context switch or ``Facility.flush``, goes through this one
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.chipshare import ChipShareEstimator
from repro.core.container import PowerContainer
from repro.core.model import PowerModel
from repro.core.registry import ContainerRegistry
from repro.hardware.core import Core
from repro.hardware.counters import COUNTER_WRAP
from repro.hardware.events import EVENT_NAMES, EventVector
from repro.hardware.machine import Machine


@dataclass(frozen=True)
class ObserverEffect:
    """Cost of one container maintenance operation (Section 3.5 numbers)."""

    cycles: float = 2948.0
    instructions: float = 1656.0
    flops: float = 16.0
    cache_refs: float = 3.0
    mem_trans: float = 0.0
    #: Wall-clock cost of one maintenance operation.
    op_seconds: float = 0.95e-6

    def event_vector(self, ops: int = 1) -> EventVector:
        """Event counts induced by ``ops`` maintenance operations."""
        return EventVector(
            nonhalt_cycles=self.cycles * ops,
            instructions=self.instructions * ops,
            flops=self.flops * ops,
            cache_refs=self.cache_refs * ops,
            mem_trans=self.mem_trans * ops,
        )


#: Length of one energy-timeline window in sim seconds.  A binary
#: fraction, so every window end ``k * ENERGY_WINDOW`` is exact.
ENERGY_WINDOW = 0.125


class RenderedNames(dict):
    """``prefix + str(key)`` per key, rendered on first use and reused.

    Trace track and span names on per-context-switch paths come from
    here, so each is formatted once per core or process name rather
    than once per event."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, key) -> str:
        name = self[key] = f"{self.prefix}{key}"
        return name


class EnergyTimeline:
    """One machine's per-window energy and overflow timeline (Section 3.3).

    ``rows`` holds the open window's containers: container id ->
    ``[time, energy_j, chipshare, observer_ops]``, where the first three
    are the values at the container's last charge in the window and
    ``observer_ops`` sums the window's observer-effect corrections.
    ``overflows`` holds its cores: core index -> ``[time, count]``, the
    core's last counter-overflow interrupt in the window and how many it
    took.  A window closes at every shard barrier, at
    ``Facility.flush()``, and lazily at the first charge or overflow at or
    past :attr:`end` (see :meth:`roll`); nothing is scheduled on the
    simulator.  Closing emits, per container in ascending id order,
    ``energy_j`` and ``chipshare`` counters stamped at its last charge,
    plus ``observer_ops`` when nonzero -- an exact subsample of the
    per-charge series with exact per-window observer totals -- then, per
    core in ascending index order, one ``overflows`` counter stamped at
    its last overflow.
    """

    __slots__ = ("telemetry", "prefix", "core_tracks", "rows", "overflows",
                 "end")

    def __init__(self, telemetry, prefix: str = "") -> None:
        self.telemetry = telemetry
        #: Track-name prefix (``"<node>/"`` on cluster machines).
        self.prefix = prefix
        #: ``core:<prefix><index>`` per core index (the facility's stage
        #: spans use the same tracks).
        self.core_tracks = RenderedNames(f"core:{prefix}")
        self.rows: dict[int, list] = {}
        self.overflows: dict[int, list] = {}
        #: End of the open window on the fixed ``ENERGY_WINDOW`` grid.
        self.end = ENERGY_WINDOW

    def close(self) -> None:
        """Emit the open window's rows as counters and start a new one."""
        rows = self.rows
        overflows = self.overflows
        if not rows and not overflows:
            return
        tracer = self.telemetry.tracer
        prefix = self.prefix
        for cid in sorted(rows):
            now, energy_j, chipshare, ops = rows[cid]
            track = f"container:{prefix}{cid}"
            tracer.counter(now, track, "energy_j", energy_j)
            tracer.counter(now, track, "chipshare", chipshare)
            if ops:
                tracer.counter(now, track, "observer_ops", float(ops))
        core_tracks = self.core_tracks
        for index in sorted(overflows):
            now, count = overflows[index]
            tracer.counter(now, core_tracks[index], "overflows", count)
        self.rows = {}
        self.overflows = {}

    def roll(self, now: float) -> None:
        """Close the window an update at ``now >= end`` falls past, and
        move :attr:`end` to the first grid point after ``now``."""
        self.close()
        self.end = (math.floor(now / ENERGY_WINDOW) + 1) * ENERGY_WINDOW

    def overflow(self, now: float, core_index: int) -> None:
        """Count one counter-overflow interrupt on ``core_index``."""
        if now >= self.end:
            self.roll(now)
        row = self.overflows.get(core_index)
        if row is None:
            self.overflows[core_index] = [now, 1]
        else:
            row[0] = now
            row[1] += 1


@dataclass
class _Approach:
    """One accounting approach evaluated in parallel."""

    name: str
    model: PowerModel
    chipshare: ChipShareEstimator


class CoreAccountant:
    """Sampling-driven power attribution for one core."""

    def __init__(
        self,
        core: Core,
        machine: Machine,
        registry: ContainerRegistry,
        approaches: list[_Approach],
        primary: str,
        observer: Optional[ObserverEffect] = None,
        subtract_observer: bool = True,
        telemetry=None,
        timeline: Optional[EnergyTimeline] = None,
    ) -> None:
        if not approaches:
            raise ValueError("at least one accounting approach is required")
        names = [a.name for a in approaches]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate approach names in {names}")
        if primary not in names:
            raise ValueError(f"primary approach {primary!r} not in {names}")
        self.core = core
        self.machine = machine
        self.registry = registry
        self.approaches = approaches
        self.primary = primary
        self.observer = observer
        self.subtract_observer = subtract_observer
        #: Optional :class:`~repro.telemetry.Telemetry` handle; when
        #: enabled, every charge updates the charged container's row in
        #: the machine's open energy-timeline window (``timeline``, which
        #: must then be given).
        self.telemetry = telemetry
        self._timeline = timeline
        self.current_container_id: Optional[int] = None
        #: Name of the process (server stage) currently on the core; used
        #: for the per-stage breakdown (paper Fig. 4 annotations).
        self.current_stage: Optional[str] = None
        #: True while a task occupies the core.  Idle intervals advance the
        #: snapshot but are not charged to any container (and perform no
        #: maintenance work -- sampling interrupts stop on idle cores).
        self.occupied = False
        baseline = core.counters.read()
        #: Counter baseline, one float per ``EVENT_NAMES`` entry.
        self._last = [getattr(baseline, name) for name in EVENT_NAMES]
        self._last_time = 0.0
        self._pending_overhead_ops = 0
        self.samples_taken = 0
        # The observer-effect unit vector and the true energy of one
        # maintenance op are invariants of (observer, true model, core
        # frequency), all fixed at construction time; caching them removes
        # an EventVector build and a power-model evaluation per sample.
        # The unit's fields are additionally unpacked to plain floats so
        # the correction and the maintenance injection run without any
        # attribute chasing per sample.
        if observer is not None:
            self._observer_unit = observer.event_vector(1)
            self._maintenance_joules = machine.true_model.energy_for_events(
                self._observer_unit, core.freq_hz
            )
            unit = self._observer_unit
            self._ob_cycles = unit.nonhalt_cycles
            self._ob_ins = unit.instructions
            self._ob_flops = unit.flops
            self._ob_cache = unit.cache_refs
            self._ob_mem = unit.mem_trans
        else:
            self._observer_unit = None
            self._maintenance_joules = 0.0
            self._ob_cycles = 0.0
            self._ob_ins = 0.0
            self._ob_flops = 0.0
            self._ob_cache = 0.0
            self._ob_mem = 0.0
        # Fixed topology facts, cached to skip lookups per sample; the
        # ground-truth impulse entry point is bound once for the same
        # reason (the integrator lives as long as the machine).
        self._add_impulse = machine.integrator.add_impulse
        self._core_index = core.index
        self._chip_index = core.chip.index
        self._siblings = core.chip.siblings_of(core)
        # Approach evaluation plan: chip-share estimators with identical
        # configuration (mode, idle_task_check) produce identical shares
        # for the same (core, mcore) input and have no side effects, so
        # duplicates within one facility's approach list are computed once
        # per sample.  Entries are (name, model, feature-prefix view,
        # estimator-or-None, share-slot, is-primary); a ``None`` estimator
        # reuses the slot value computed by an earlier entry.
        #
        # Reusable per-sample buffer: one feature row laid out over
        # ALL_FEATURES (mdisk/mnet stay 0 -- per-core accounting has no
        # peripheral metrics).  All paper feature sets are canonical-order
        # prefixes, and a model's feature set never changes, so each plan
        # entry holds a view of its model's prefix of the row (the row
        # itself at full width, ``None`` for a non-prefix model) instead of
        # slicing it per sample.
        row = self._row = np.zeros(8, dtype=float)
        plan: list[tuple] = []
        group_keys: list[tuple] = []
        for a in approaches:
            key = (a.chipshare.mode, a.chipshare.idle_task_check)
            if key in group_keys:
                slot = group_keys.index(key)
                estimator = None
            else:
                slot = len(group_keys)
                group_keys.append(key)
                # Mode "none" always estimates 0.0: fold it to a constant
                # (the share slot is initialized to 0.0 and never written).
                estimator = None if a.chipshare.mode == "none" else a.chipshare
            k = a.model._prefix_len
            plan.append(
                (
                    a.name,
                    a.model,
                    row if k == 8 else row[:k] if k else None,
                    estimator,
                    slot,
                    a.name == primary,
                )
            )
        self._plan = plan
        self._shares = [0.0] * len(group_keys)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: float) -> Optional[float]:  # hot-path
        """Account the interval since the last sample on this core.

        Returns the primary approach's Eq. 3 chip share for the interval
        (``None`` for an empty or idle interval), mainly for tests.
        """
        core = self.core
        bank = core.counters
        totals = bank.totals
        if bank.wrap:
            s_cycles = totals.nonhalt_cycles % COUNTER_WRAP
            s_ins = totals.instructions % COUNTER_WRAP
            s_flops = totals.flops % COUNTER_WRAP
            s_cache = totals.cache_refs % COUNTER_WRAP
            s_mem = totals.mem_trans % COUNTER_WRAP
            s_disk = totals.disk_bytes % COUNTER_WRAP
            s_net = totals.net_bytes % COUNTER_WRAP
        else:
            s_cycles = totals.nonhalt_cycles
            s_ins = totals.instructions
            s_flops = totals.flops
            s_cache = totals.cache_refs
            s_mem = totals.mem_trans
            s_disk = totals.disk_bytes
            s_net = totals.net_bytes
        last = self._last
        dt = now - self._last_time
        if dt <= 0.0:
            # Empty interval: re-baseline.  The snapshot already contains any
            # maintenance events injected by a sample at this same instant, so
            # the pending correction must reset with it or the next interval
            # would subtract overhead that the new baseline already absorbed.
            last[0] = s_cycles
            last[1] = s_ins
            last[2] = s_flops
            last[3] = s_cache
            last[4] = s_mem
            last[5] = s_disk
            last[6] = s_net
            self._pending_overhead_ops = 0
            return None
        if not self.occupied:
            # Idle interval: nothing ran, nothing to attribute, and no
            # sampling interrupt would have fired on a real idle core.
            # Overhead events injected by the previous sample are absorbed
            # into the new baseline, so the pending correction must reset
            # with them.
            last[0] = s_cycles
            last[1] = s_ins
            last[2] = s_flops
            last[3] = s_cache
            last[4] = s_mem
            last[5] = s_disk
            last[6] = s_net
            self._last_time = now
            self._pending_overhead_ops = 0
            return None

        # Delta with 48-bit wraparound correction (wrapped_delta, unrolled).
        d_cycles = s_cycles - last[0]
        if d_cycles < 0.0:
            d_cycles = d_cycles + COUNTER_WRAP if d_cycles < -0.5 else 0.0
        d_ins = s_ins - last[1]
        if d_ins < 0.0:
            d_ins = d_ins + COUNTER_WRAP if d_ins < -0.5 else 0.0
        d_flops = s_flops - last[2]
        if d_flops < 0.0:
            d_flops = d_flops + COUNTER_WRAP if d_flops < -0.5 else 0.0
        d_cache = s_cache - last[3]
        if d_cache < 0.0:
            d_cache = d_cache + COUNTER_WRAP if d_cache < -0.5 else 0.0
        d_mem = s_mem - last[4]
        if d_mem < 0.0:
            d_mem = d_mem + COUNTER_WRAP if d_mem < -0.5 else 0.0
        d_disk = s_disk - last[5]
        if d_disk < 0.0:
            d_disk = d_disk + COUNTER_WRAP if d_disk < -0.5 else 0.0
        d_net = s_net - last[6]
        if d_net < 0.0:
            d_net = d_net + COUNTER_WRAP if d_net < -0.5 else 0.0

        # Observer-effect correction (EventVector.subtract(clamp=True),
        # unrolled; the disk/net overhead components are zero so their
        # clamped subtraction is the identity on the >= 0 deltas above).
        ops = self._pending_overhead_ops
        if ops > 0 and self.observer is not None and self.subtract_observer:
            value = d_cycles - self._ob_cycles * ops
            d_cycles = value if value > 0.0 else 0.0
            value = d_ins - self._ob_ins * ops
            d_ins = value if value > 0.0 else 0.0
            value = d_flops - self._ob_flops * ops
            d_flops = value if value > 0.0 else 0.0
            value = d_cache - self._ob_cache * ops
            d_cache = value if value > 0.0 else 0.0
            value = d_mem - self._ob_mem * ops
            d_mem = value if value > 0.0 else 0.0
        self._pending_overhead_ops = 0

        elapsed_cycles = core.freq_hz * dt
        mcore = min(max(d_cycles / elapsed_cycles, 0.0), 1.0)
        mins = d_ins / elapsed_cycles
        mfloat = d_flops / elapsed_cycles
        mcache = d_cache / elapsed_cycles
        mmem = d_mem / elapsed_cycles

        # Re-baseline before charging: the charge path appends this
        # sample's own maintenance events *after* the snapshot was taken.
        last[0] = s_cycles
        last[1] = s_ins
        last[2] = s_flops
        last[3] = s_cache
        last[4] = s_mem
        last[5] = s_disk
        last[6] = s_net
        self._last_time = now

        return self._charge(
            now, dt, d_cycles, d_ins, d_flops, d_cache, d_mem, d_disk, d_net,
            mcore, mins, mfloat, mcache, mmem, ops,
        )

    def _charge(  # hot-path
        self,
        now: float,
        dt: float,
        d_cycles: float,
        d_ins: float,
        d_flops: float,
        d_cache: float,
        d_mem: float,
        d_disk: float,
        d_net: float,
        mcore: float,
        mins: float,
        mfloat: float,
        mcache: float,
        mmem: float,
        ops: int,
    ) -> float:
        """Charge one sampled interval to the bound container.

        Back half of :meth:`sample`: model evaluation, container
        statistics, the Eq. 3 mailbox post, the maintenance work, and,
        with telemetry enabled, the container's row in the open
        energy-timeline window (the counters themselves are emitted when
        the window closes).  Returns the primary approach's chip share --
        the one metric the timeline row keeps; nothing is allocated per
        sample to carry the others.
        """
        core = self.core
        container = self.registry.get(self.current_container_id)
        stats = container.stats
        # Interval events, CPU time and activity window of the container.
        ev = stats.events
        ev.nonhalt_cycles += d_cycles
        ev.instructions += d_ins
        ev.flops += d_flops
        ev.cache_refs += d_cache
        ev.mem_trans += d_mem
        ev.disk_bytes += d_disk
        ev.net_bytes += d_net
        duty_ratio = core.duty_ratio
        row = self._row
        row[0] = mcore
        row[1] = mins
        row[2] = mfloat
        row[3] = mcache
        row[4] = mmem
        shares = self._shares
        energy_joules = stats.energy_joules
        last_power_watts = container.last_power_watts
        primary_share = 0.0
        primary_joules = 0.0
        for name, model, prefix, estimator, slot, is_primary in self._plan:
            if estimator is not None:
                # Inlined ChipShareEstimator.estimate for the common
                # mailbox mode (checks in the same order as the method;
                # "none" estimators were constant-folded at plan build).
                if mcore <= 0.0:
                    shares[slot] = 0.0
                elif estimator.mode == "mailbox":
                    sibling_sum = 0.0
                    idle_check = estimator.idle_task_check
                    for sibling in self._siblings:
                        if idle_check and sibling.active_profile is None:
                            continue
                        sibling_sum += sibling.mailbox.mcore
                    value = mcore / (1.0 + sibling_sum)
                    shares[slot] = value if value < 1.0 else 1.0
                else:
                    shares[slot] = estimator.estimate(core, mcore)
            share = shares[slot]
            row[5] = share
            # Inlined PowerModel.active_power_row prefix fast path: the
            # plan's prefix view shares the row's memory, so it dots the
            # same values a per-sample ``row[:k]`` slice would.
            # ``ndarray.dot`` over ``@`` skips the __matmul__ protocol; both
            # run the same ddot kernel, so the result is bit-identical.
            if prefix is not None:
                watts = float(model._coef.dot(prefix))
                if watts < 0.0:
                    watts = 0.0
            else:
                watts = model.active_power_row(row)
            # Energy is the integral of power: ``watts * dt`` per interval,
            # accumulated per approach.
            joules = watts * dt
            energy_joules[name] = energy_joules.get(name, 0.0) + joules
            # Every approach records its last watts; only the primary
            # updates the full-speed conditioning EWMA (alpha 0.3).
            last_power_watts[name] = watts
            if is_primary:
                if duty_ratio > 0.0:
                    full = watts / duty_ratio
                    ewma = container.full_speed_power_ewma
                    if ewma == 0.0:
                        container.full_speed_power_ewma = full
                    else:
                        container.full_speed_power_ewma = (
                            (1.0 - 0.3) * ewma + 0.3 * full
                        )
                primary_share = share
                primary_joules = joules
        stats.cpu_seconds += dt
        stats.duty_weighted_seconds += duty_ratio * dt
        stats.sample_count += 1
        if stats.first_activity is None:
            stats.first_activity = now - dt
        stats.last_activity = now
        stage = self.current_stage
        if stage is not None:
            # Primary-approach energy and CPU time per server stage.
            stage_energy = stats.stage_energy_joules
            stage_energy[stage] = stage_energy.get(stage, 0.0) + primary_joules
            stage_cpu = stats.stage_cpu_seconds
            stage_cpu[stage] = stage_cpu.get(stage, 0.0) + dt

        # Publish fresh utilization for unsynchronized sibling reads (Eq. 3).
        core.mailbox.post_trusted(now, mcore)

        self.samples_taken += 1
        # Maintenance work (observer effect): inject the op's events into
        # the counters and its true energy into ground truth.
        if self.observer is not None:
            totals = core.counters.totals
            totals.nonhalt_cycles += self._ob_cycles
            totals.instructions += self._ob_ins
            totals.flops += self._ob_flops
            totals.cache_refs += self._ob_cache
            totals.mem_trans += self._ob_mem
            self._add_impulse(
                self._maintenance_joules, self._core_index, self._chip_index
            )
            self._pending_overhead_ops += 1
        t = self.telemetry
        if t is not None and t.enabled:
            # Energy-timeline profiling (Section 3.3): record this charge
            # in the container's row of the open window; the window emits
            # one counter sample per series when it closes.
            timeline = self._timeline
            if now >= timeline.end:
                timeline.roll(now)
            # Container.total_energy, inlined (same expression).
            energy_j = (
                energy_joules.get(self.primary, 0.0) + stats.io_energy_joules
            )
            row = timeline.rows.get(container.id)
            if row is None:
                timeline.rows[container.id] = [
                    now, energy_j, primary_share, ops
                ]
            else:
                row[0] = now
                row[1] = energy_j
                row[2] = primary_share
                row[3] += ops
        return primary_share

    def sample_and_rebind(
        self,
        now: float,
        container_id: Optional[int],
        occupied: Optional[bool] = None,
        stage: Optional[str] = None,
    ) -> None:
        """Sample the closing interval, then switch the bound container.

        ``occupied`` updates the core-occupancy flag after the sample:
        ``True`` on dispatch, ``False`` on undispatch, ``None`` to keep the
        current state (in-place binding change).  ``stage`` names the
        incoming process for the per-stage breakdown.
        """
        self.sample(now)
        self.current_container_id = container_id
        if occupied is not None:
            self.occupied = occupied
            self.current_stage = stage if occupied else None

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Counter baseline, interval bookkeeping, and binding state.

        The per-sample scratch buffers (``_row``, ``_shares``) are
        overwritten at every sample before being read, so they carry no
        state across samples and are not captured.
        """
        return {
            "v": 1,
            "last": list(self._last),
            "last_time": self._last_time,
            "pending_overhead_ops": self._pending_overhead_ops,
            "samples_taken": self.samples_taken,
            "current_container_id": self.current_container_id,
            "current_stage": self.current_stage,
            "occupied": self.occupied,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bound_container(self) -> PowerContainer:
        """Container currently charged for this core's activity."""
        return self.registry.get(self.current_container_id)
