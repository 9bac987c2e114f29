"""Epoch-barrier coordinator: the sharded run's single source of truth.

The coordinator owns everything that must be globally ordered -- request
generation, power-aware placement, fault injection, and the folding of
merged record streams into fingerprints.  Shards own only machine
execution.  Because every cross-machine decision is made here, on plain
data, in one deterministic order, the run's outputs are bit-identical for
any shard count and any worker count: sharding changes *where* machines
execute, never *what* they observe.

Per epoch ``[start, end)`` the coordinator:

1. applies fault transitions (a crash or recovery is observed at the
   next barrier, so routing stops -- and resumes -- one epoch after the
   instant itself),
2. samples this epoch's arrivals from its own RNG streams (Poisson count,
   uniform times, workload request mix -- shards hold no generators),
3. places carried-over tickets (failover requeues, headroom deferrals)
   and then the new arrivals through the :class:`PowerAwareScheduler`,
4. delivers each shard's directives pre-sorted by ``(time, machine,
   request id)`` and advances every shard to the barrier through the
   :class:`~repro.shard.pool.ShardPool`,
5. k-way-merges the per-shard outboxes under their canonical sort keys
   and consumes the merged streams in that total order: completions feed
   the scheduler's power profiles and the streaming energy hash,
   failovers release their placement charge and requeue.

Observability (telemetry merge, store rollups, detectors) never feeds
back into placement, so each epoch's observation runs one barrier late:
its inputs are captured at the barrier and the pool runs it while the
workers compute the next epoch.  It is flushed before every checkpoint
and before the final collection, so no result depends on the delay.

After the arrival window the loop keeps draining epochs until no request
is in flight or deferred, then collects per-shard final payloads and
renders the four run fingerprints (``report``, ``shed``, ``batch``,
``energy``).
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
from dataclasses import asdict, dataclass, field
from functools import partial

from repro.checkpoint.state import (
    RestoreMismatchError,
    generator_state,
    verify_replay,
)
from repro.server.dispatch import DispatchTicket
from repro.shard.messages import (
    CompletionRecord,
    FailoverRecord,
    crash_directive,
    inject_directive,
    merge_records,
    recover_directive,
)
from repro.shard.pool import ShardPool
from repro.shard.scheduler import MachineSlot, PowerAwareScheduler
from repro.shard.worker import ShardConfig, build_shard_workload
from repro.sim.rng import RngHub
from repro.telemetry import ClusterObservability

#: Machine-spec cycle used to populate the cluster (insertion order).
SPEC_CYCLE = ("sandybridge", "woodcrest", "westmere")

#: Directive sort ranks: at equal times a machine's crash/recover applies
#: before any inject scheduled at that instant.
_RANK = {"crash": 0, "recover": 1, "inject": 2}

#: Seed of the chained energy digest.  The chain (each completion line is
#: hashed together with the previous hex digest) replaces the old
#: incremental ``hashlib`` object so the cursor is a 64-char string --
#: plain data the checkpoint layer can snapshot and verify.
_ENERGY_CHAIN_SEED = hashlib.sha256(b"shard-energy-chain-v1").hexdigest()

#: Run-level telemetry modes.  ``"off"`` -- nothing; ``"disabled"`` --
#: workers carry an enabled=False handle (the neutrality/overhead arm);
#: ``"store"`` -- coordinator-side rollups + detectors from the merged
#: completion stream only (zero worker-side cost, the flash-scale
#: default); ``"on"`` -- everything: per-shard frames merged into one
#: global tracer/registry plus the store and detectors.
RUN_TELEMETRY_MODES = ("off", "disabled", "store", "on")

#: Run-level telemetry mode -> per-shard worker mode.
_WORKER_TELEMETRY = {
    "off": "off", "disabled": "disabled", "store": "off", "on": "on",
}


@dataclass(frozen=True)
class ShardRunConfig:
    """Plain-data recipe for one sharded cluster run.

    Fingerprints depend on every field except ``n_shards`` and
    ``workers`` -- those two only repartition execution, which is exactly
    the invariance the property tests pin down -- and the ``telemetry*``
    fields, which only observe (report/shed/batch/energy fingerprints are
    bit-identical for every telemetry mode).
    """

    workload: str = "solr"
    n_machines: int = 8
    n_shards: int = 1
    workers: int = 1
    duration: float = 2.0
    epoch: float = 0.25
    seed: int = 0
    load_fraction: float = 0.5
    #: "steady" or "diurnal" (sinusoidal day cycle + optional flash crowd).
    arrival: str = "steady"
    diurnal_period: float = 2.0
    diurnal_amplitude: float = 0.6
    flash_start: float = -1.0
    flash_duration: float = 0.0
    flash_multiplier: float = 1.0
    #: Machines per rack and the oversubscribed fraction of aggregate peak
    #: power a rack may host (WattsApp-style oversubscription).
    rack_size: int = 8
    oversub_fraction: float = 0.7
    max_defers: int = 4
    #: Number of crash/recover windows drawn from the fault stream.
    faults: int = 0
    fault_outage: float = 0.5
    #: Hard cap on post-arrival drain epochs (safety, not a tuning knob).
    max_drain_epochs: int = 400
    #: Telemetry mode (see :data:`RUN_TELEMETRY_MODES`); never affects
    #: fingerprints.
    telemetry: str = "off"
    #: Newest merged events the coordinator retains for trace export.
    telemetry_capacity: int = 65536
    telemetry_top_k: int = 10

    def __post_init__(self) -> None:
        """Reject impossible configs at construction, not mid-run."""
        for name, minimum in (("n_machines", 1), ("n_shards", 1),
                              ("workers", 1), ("rack_size", 1)):
            value = getattr(self, name)
            if value < minimum:
                raise ValueError(
                    f"{name} must be >= {minimum}, got {value!r}"
                )
        if self.epoch <= 0.0:
            raise ValueError(f"epoch must be positive, got {self.epoch!r}")
        if self.duration < 0.0:
            raise ValueError(
                f"duration must be non-negative, got {self.duration!r}"
            )
        if self.load_fraction < 0.0:
            raise ValueError(
                f"load_fraction must be non-negative, "
                f"got {self.load_fraction!r}"
            )
        if self.oversub_fraction <= 0.0:
            raise ValueError(
                f"oversub_fraction must be positive, "
                f"got {self.oversub_fraction!r}"
            )
        for name in ("max_defers", "faults", "fault_outage",
                     "max_drain_epochs"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {value!r}"
                )
        if self.telemetry not in RUN_TELEMETRY_MODES:
            raise ValueError(
                f"telemetry mode must be one of {RUN_TELEMETRY_MODES}, "
                f"got {self.telemetry!r}"
            )
        for name in ("telemetry_capacity", "telemetry_top_k"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {value!r}"
                )

    def machine_table(self) -> list[tuple[str, str]]:
        """``(name, spec_name)`` rows in cluster insertion order."""
        if self.n_machines < 1:
            raise ValueError("need at least one machine")
        return [
            (f"m{index:04d}", SPEC_CYCLE[index % len(SPEC_CYCLE)])
            for index in range(self.n_machines)
        ]


@dataclass(frozen=True)
class ShardCheckpointPolicy:
    """When and where the coordinator checkpoints at epoch barriers.

    ``kill_after`` is the crash-recovery test hook: SIGKILL the
    coordinator process immediately after the checkpoint for epoch
    ``kill_after`` has been durably written (atomic rename + fsync), the
    most hostile instant for a crash that must still resume cleanly.
    """

    directory: str
    every: int = 1
    keep: int = 4
    kill_after: int | None = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every!r}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep!r}")
        if self.kill_after is not None and self.kill_after < 1:
            raise ValueError(
                f"kill_after must be >= 1 or None, got {self.kill_after!r}"
            )


@dataclass
class ShardRunResult:
    """Outcome of one sharded run, fingerprints included."""

    config: ShardRunConfig
    n_requests: int
    completed: int
    shed: int
    failovers: int
    late_replies: int
    unfinished: int
    epochs: int
    worker_restarts: int
    total_energy_joules: float
    total_response_seconds: float
    scheduler_stats: dict[str, float] = field(default_factory=dict)
    machine_rows: list[tuple] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)
    #: Aggregated transport diagnostics (never part of any fingerprint).
    transport_stats: dict[str, int] = field(default_factory=dict)
    #: True when ``resume_sharded`` verified its replay at the checkpoint.
    resumed: bool = False
    #: Plain-data observability roll-up (trace/alert/store fingerprints,
    #: merge counters); empty when telemetry mode is "off"/"disabled".
    telemetry_summary: dict = field(default_factory=dict)
    #: The live :class:`~repro.telemetry.ClusterObservability` (dashboard
    #: export, queries); ``None`` unless mode is "store"/"on".
    observability: object = None

    def mean_response_time(self) -> float:
        """Mean response time over completed requests (0 when none)."""
        if self.completed == 0:
            return 0.0
        return self.total_response_seconds / self.completed

    def fingerprint(self) -> str:
        """One digest over the four stream fingerprints (gate-friendly)."""
        joined = "\n".join(
            f"{key}={self.fingerprints[key]}"
            for key in sorted(self.fingerprints)
        )
        return hashlib.sha256(joined.encode()).hexdigest()


def _machine_slots(
    table: list[tuple[str, str]], calibrations: dict, rack_size: int
) -> list[MachineSlot]:
    """Static placement descriptions for the scheduler."""
    from repro.hardware.specs import spec_by_name

    slots = []
    for index, (name, spec_name) in enumerate(table):
        spec = spec_by_name(spec_name)
        calibration = calibrations[spec_name]
        peak = calibration.idle_watts + sum(
            calibration.cmax_table().values()
        )
        slots.append(
            MachineSlot(
                name=name,
                arch=spec.arch,
                rack=index // rack_size,
                n_cores=spec.n_cores,
                idle_watts=calibration.idle_watts,
                peak_watts=peak,
            )
        )
    return slots


def _bootstrap_joules(
    calibrations: dict, workload
) -> dict[str, float]:
    """Per-arch bootstrap estimate of one request's attributed energy.

    One request occupies roughly one core, so the calibration's aggregate
    ``C * Mmax`` active power divided by the core count, times the
    workload's mean demand, is the natural prior until the accounting
    history takes over.
    """
    from repro.hardware.specs import spec_by_name

    estimates = {}
    for spec_name, calibration in calibrations.items():
        spec = spec_by_name(spec_name)
        per_core_watts = sum(calibration.cmax_table().values()) / spec.n_cores
        estimates[spec.arch] = (
            per_core_watts * workload.mean_demand_seconds(spec.arch)
        )
    return estimates


class ShardedClusterRun:
    """Drives one configured run epoch-by-epoch to its fingerprints."""

    def __init__(
        self,
        config: ShardRunConfig,
        calibrations=None,
        _resume_body: dict | None = None,
    ) -> None:
        from repro.faults.harness import chaos_calibration
        from repro.hardware.specs import spec_by_name

        self.config = config
        table = config.machine_table()
        spec_names = sorted({spec_name for _name, spec_name in table})
        if calibrations is None:
            calibrations = {
                spec_name: chaos_calibration(spec_by_name(spec_name))
                for spec_name in spec_names
            }
        self.calibrations = calibrations
        self.workload = build_shard_workload(config.workload)
        slots = _machine_slots(table, calibrations, config.rack_size)
        rack_caps: dict[int, float] = {}
        for slot in slots:
            rack_caps[slot.rack] = rack_caps.get(slot.rack, 0.0) \
                + slot.peak_watts
        rack_caps = {
            rack: config.oversub_fraction * total
            for rack, total in rack_caps.items()
        }
        self.scheduler = PowerAwareScheduler(
            slots,
            rack_caps,
            _bootstrap_joules(calibrations, self.workload),
            epoch_seconds=config.epoch,
            max_defers=config.max_defers,
        )
        #: machine name -> owning shard id (round-robin like
        #: :meth:`HeterogeneousCluster.shard_partition`).
        self.shard_of = {
            name: index % config.n_shards
            for index, (name, _spec) in enumerate(table)
        }
        shard_machines: dict[int, list[tuple[str, str]]] = {
            shard_id: [] for shard_id in range(config.n_shards)
        }
        for name, spec_name in table:
            shard_machines[self.shard_of[name]].append((name, spec_name))
        self.shard_configs = [
            ShardConfig(
                shard_id=shard_id,
                machines=tuple(shard_machines[shard_id]),
                workload=config.workload,
                telemetry=_WORKER_TELEMETRY[config.telemetry],
            )
            for shard_id in range(config.n_shards)
        ]
        self.observability: ClusterObservability | None = None
        if config.telemetry in ("store", "on"):
            self.observability = ClusterObservability(
                epoch_seconds=config.epoch,
                rack_of={slot.name: slot.rack for slot in slots},
                rack_caps=rack_caps,
                frames=config.telemetry == "on",
                capacity=config.telemetry_capacity,
                top_k=config.telemetry_top_k,
            )
        hub = RngHub(config.seed)
        self._arrival_rng = hub.stream("shard-arrivals")
        self._aggregate_rate = sum(
            config.load_fraction * slot.n_cores
            / self.workload.mean_demand_seconds(slot.arch)
            for slot in slots
        )
        self._fault_events = self._draw_faults(hub)
        self._next_request_id = 0
        self.n_requests = 0
        self.late_replies = 0
        self.total_energy = 0.0
        self.total_response = 0.0
        self.completed = 0
        self.epochs_run = 0
        self._energy_digest = _ENERGY_CHAIN_SEED
        self._pending: list[DispatchTicket] = []
        #: The last barrier's observation, run during the next barrier.
        self._observation = None
        #: The checkpoint a resume replays to and verifies against.
        self._resume_body = _resume_body
        self.resumed = False

    # -- pre-drawn fault schedule ---------------------------------------
    def _draw_faults(self, hub: RngHub) -> list[tuple[float, str, str]]:
        """``(time, kind, machine)`` fault transitions, time-ordered.

        Drawn up-front from a dedicated stream so the fault schedule never
        shifts with arrival volume -- the same decoupling the chaos fault
        plans use.
        """
        config = self.config
        if config.faults <= 0:
            return []
        rng = hub.stream("shard-faults")
        names = [name for name, _spec in config.machine_table()]
        events: list[tuple[float, str, str]] = []
        for _ in range(config.faults):
            victim = names[int(rng.integers(0, len(names)))]
            crash_at = float(rng.uniform(0.1, config.duration * 0.8))
            recover_at = crash_at + float(
                rng.uniform(0.5, 1.0) * config.fault_outage
            )
            events.append((crash_at, "crash", victim))
            events.append((recover_at, "recover", victim))
        return sorted(events)

    # -- arrivals --------------------------------------------------------
    def _rate_at(self, time: float) -> float:
        """Offered arrival rate at one instant (requests/second)."""
        config = self.config
        rate = self._aggregate_rate
        if config.arrival == "diurnal":
            rate *= 1.0 + config.diurnal_amplitude * math.sin(
                2.0 * math.pi * time / config.diurnal_period
            )
            if (
                config.flash_start >= 0.0
                and config.flash_start <= time
                < config.flash_start + config.flash_duration
            ):
                rate *= config.flash_multiplier
        elif config.arrival != "steady":
            raise ValueError(f"unknown arrival model {config.arrival!r}")
        return max(rate, 0.0)

    def _sample_epoch_arrivals(
        self, start: float, end: float
    ) -> list[DispatchTicket]:
        """Draw one epoch's arrivals (count, times, request mix)."""
        rng = self._arrival_rng
        rate = self._rate_at((start + end) / 2.0)
        count = int(rng.poisson(rate * (end - start)))
        if count == 0:
            return []
        times = sorted(
            float(value) for value in rng.uniform(start, end, size=count)
        )
        tickets = []
        for arrival in times:
            spec = self.workload.sample_request(rng)
            tickets.append(
                DispatchTicket(
                    request_id=self._next_request_id,
                    workload=self.workload.name,
                    rtype=spec.rtype,
                    params=dict(spec.params),
                    arrival=arrival,
                    machine="",
                )
            )
            self._next_request_id += 1
        self.n_requests += count
        return tickets

    # -- the epoch loop --------------------------------------------------
    def _epoch_directives(
        self, placed: list[DispatchTicket], faults: list[tuple]
    ) -> dict[int, list[tuple]]:
        """Sort one epoch's directives and split them per shard.

        The canonical order -- ``(time, kind rank, machine, request id)``
        -- is established *before* the shard split, so each shard receives
        the same relative order it would see in a single-shard run.
        """
        keyed: list[tuple] = []
        for time, kind, machine in faults:
            directive = (
                crash_directive(machine, time)
                if kind == "crash"
                else recover_directive(machine, time)
            )
            keyed.append(((time, _RANK[kind], machine, -1), machine, directive))
        for ticket in placed:
            keyed.append((
                (ticket.arrival, _RANK["inject"], ticket.machine,
                 ticket.request_id),
                ticket.machine,
                inject_directive(ticket),
            ))
        keyed.sort(key=lambda entry: entry[0])
        per_shard: dict[int, list[tuple]] = {}
        for _key, machine, directive in keyed:
            per_shard.setdefault(self.shard_of[machine], []).append(directive)
        return per_shard

    def run_one_epoch(self, pool: ShardPool, epoch_index: int) -> None:
        """Steps 1-5 of the per-epoch protocol for one barrier."""
        config = self.config
        start = epoch_index * config.epoch
        # Not ``start + epoch``: that sum can land past the next epoch's
        # ``start`` in floating point, scheduling its arrivals in the past.
        end = (epoch_index + 1) * config.epoch
        arriving = (
            self._sample_epoch_arrivals(start, end)
            if start < config.duration
            else []
        )
        # Fault transitions: the coordinator only learns of a mid-epoch
        # crash (or recovery) at the next barrier, so routing stops -- and
        # resumes -- one epoch after the instant itself.  Tickets routed
        # into the crash's own epoch are served, stranded into failover
        # records, or bounced by the dead machine; all three paths feed
        # back through the merged failover stream.
        epoch_faults = [
            event for event in self._fault_events
            if start <= event[0] < end
        ]
        for time, kind, machine in self._fault_events:
            if start - config.epoch <= time < start:
                if kind == "crash":
                    self.scheduler.note_crashed(machine)
                else:
                    self.scheduler.note_recovered(machine)
        # Carried-over tickets re-arrive at the barrier itself.
        carried = [
            DispatchTicket(
                request_id=ticket.request_id,
                workload=ticket.workload,
                rtype=ticket.rtype,
                params=ticket.params,
                arrival=start,
                machine="",
                attempt=ticket.attempt,
            )
            if ticket.arrival < start else ticket
            for ticket in self._pending
        ]
        placed, deferred = self.scheduler.place(
            carried + arriving, epoch_index
        )
        self._pending = deferred
        per_shard = self._epoch_directives(placed, epoch_faults)
        observation, self._observation = self._observation, None
        completions, failovers, frames = pool.run_epoch(
            end, per_shard, observation
        )
        merged_completions = merge_records(completions, CompletionRecord)
        for record in merged_completions:
            self.scheduler.note_completed(record)
            self.completed += 1
            self.total_energy += record.energy_joules
            self.total_response += record.response_time
            line = (
                f"{record.completion!r}:{record.machine}:"
                f"{record.request_id}:{record.energy_joules!r}\n"
            )
            self._energy_digest = hashlib.sha256(
                (self._energy_digest + line).encode()
            ).hexdigest()
        merged_failovers = merge_records(failovers, FailoverRecord)
        for record in merged_failovers:
            self.scheduler.note_failover(record)
            ticket = record.ticket()
            self._pending.append(
                DispatchTicket(
                    request_id=ticket.request_id,
                    workload=ticket.workload,
                    rtype=ticket.rtype,
                    params=ticket.params,
                    arrival=end,
                    machine="",
                    attempt=ticket.attempt + 1,
                )
            )
        self.epochs_run += 1
        # Observability consumes the already-merged streams and never
        # feeds anything back, so it can run during the next barrier;
        # the scheduler totals are captured now, at this barrier.
        if self.observability is not None:
            self._observation = partial(
                self.observability.observe_epoch,
                epoch_index=epoch_index,
                end=end,
                completions=merged_completions,
                failover_count=len(merged_failovers),
                frames=frames,
                shed_total=self.scheduler.shed,
                deferred_total=self.scheduler.deferred_total,
            )

    def _flush_observation(self) -> None:
        """Run the pending observation now (before checkpoints and the
        final collection)."""
        observation, self._observation = self._observation, None
        if observation is not None:
            observation()

    def run(
        self,
        pool_hook=None,
        transport_plan=None,
        transport_seed=None,
        transport_limits=None,
        revive_budget: int = 3,
        checkpoint: ShardCheckpointPolicy | None = None,
    ) -> ShardRunResult:
        """Run arrivals plus drain to completion; returns the result.

        ``pool_hook(pool, epoch_index)``, when given, fires before every
        epoch -- the worker-kill tests use it to SIGKILL a worker mid-run.
        ``transport_plan`` subjects every coordinator<->worker exchange to
        the given :class:`~repro.shard.transport.TransportFaultPlan`
        (seeded by ``transport_seed``, default the run seed -- results
        must stay bit-identical regardless).  ``checkpoint`` persists
        coordinator + pool state at epoch barriers for
        :func:`resume_sharded`.  A resumed run replays from epoch 0,
        skipping saves through the checkpointed barrier, where it verifies
        its coordinator + pool snapshot against the checkpoint bit for bit
        before it continues.
        """
        config = self.config
        arrival_epochs = max(1, math.ceil(config.duration / config.epoch))
        manager = None
        if checkpoint is not None:
            from repro.checkpoint.manager import CheckpointManager

            manager = CheckpointManager(
                checkpoint.directory, keep=checkpoint.keep
            )
        with ShardPool(
            self.shard_configs,
            self.calibrations,
            workers=config.workers,
            transport_plan=transport_plan,
            transport_seed=(
                config.seed if transport_seed is None else transport_seed
            ),
            transport_limits=transport_limits,
            revive_budget=revive_budget,
        ) as pool:
            epoch_index = 0
            while True:
                drained = (
                    epoch_index >= arrival_epochs
                    and not self._pending
                    and self.scheduler.inflight_count() == 0
                )
                if drained or (
                    epoch_index >= arrival_epochs + config.max_drain_epochs
                ):
                    break
                if pool_hook is not None:
                    pool_hook(pool, epoch_index)
                self.run_one_epoch(pool, epoch_index)
                epoch_index += 1
                if self._resume_body is not None and not self.resumed:
                    # Replaying toward the checkpointed barrier: the
                    # original run already wrote these checkpoints.
                    self._verify_at_checkpoint(epoch_index, pool)
                    continue
                if manager is not None \
                        and epoch_index % checkpoint.every == 0:
                    self._save_checkpoint(manager, epoch_index, pool)
                    if checkpoint.kill_after is not None \
                            and epoch_index >= checkpoint.kill_after:
                        # The checkpoint is durably on disk; die at the
                        # worst possible moment (crash-recovery hook).
                        os.kill(os.getpid(), signal.SIGKILL)
            if self._resume_body is not None and not self.resumed:
                raise RestoreMismatchError(
                    f"run finished without reaching checkpoint "
                    f"{self._resume_body['index']}; checkpoint and config "
                    f"disagree"
                )
            self._flush_observation()
            payloads = pool.finish()
            restarts = pool.worker_restarts
            transport_stats = pool.transport_stats()
            if (
                self.observability is not None
                and self.observability.aggregator is not None
            ):
                # Shard-transport health lands in the merged registry
                # alongside the workers' facility metrics.
                pool.publish_metrics(
                    self.observability.aggregator.registry
                )
        return self._finalize(payloads, restarts, transport_stats)

    # -- checkpoint / resume ---------------------------------------------
    def snapshot_state(self) -> dict:
        """Plain-data snapshot of every coordinator-side cursor.

        Together with the pool's directive history this is what a resumed
        replay is verified against: counters and totals, the chained
        energy digest, the arrival RNG cursor, pending (deferred/failover)
        tickets as wire tuples, the scheduler's live placement state, and
        the observability state.  The fault schedule is *not* stored -- it
        re-derives deterministically from the config seed.
        """
        return {
            "v": 1,
            "next_epoch": self.epochs_run,
            "next_request_id": self._next_request_id,
            "n_requests": self.n_requests,
            "completed": self.completed,
            "total_energy": self.total_energy,
            "total_response": self.total_response,
            "energy_digest": self._energy_digest,
            "arrival_rng": generator_state(self._arrival_rng),
            "pending": [list(ticket.to_wire()) for ticket in self._pending],
            "scheduler": self.scheduler.snapshot_state(),
            "telemetry": (
                self.observability.snapshot_state()
                if self.observability is not None else None
            ),
        }

    def _barrier_layers(self, pool: ShardPool) -> dict:
        """Flush the pending observation; snapshot coordinator + pool."""
        self._flush_observation()
        return {
            "coordinator": self.snapshot_state(),
            "pool": pool.snapshot_history(),
        }

    def _verify_at_checkpoint(self, next_epoch: int, pool: ShardPool) -> None:
        """At the checkpointed barrier, verify the replay and go live."""
        index = self._resume_body["index"]
        if next_epoch < index:
            return
        verify_replay(
            self._resume_body["layers"],
            self._barrier_layers(pool),
            f"checkpoint {index} at t={next_epoch * self.config.epoch!r}",
        )
        # The replay already holds exactly the checkpointed state, so the
        # run simply continues from here.
        self.resumed = True

    def _save_checkpoint(self, manager, next_epoch: int,
                         pool: ShardPool) -> None:
        """Persist one barrier's coordinator + pool state atomically."""
        manager.save(
            next_epoch,
            next_epoch * self.config.epoch,
            asdict(self.config),
            self._barrier_layers(pool),
        )

    # -- fingerprint rendering -------------------------------------------
    def _finalize(self, payloads: dict[int, dict], restarts: int,
                  transport_stats: dict[str, int] | None = None)\
            -> ShardRunResult:
        """Fold per-shard payloads into the four run fingerprints."""
        machine_rows = []
        batch_hash = hashlib.sha256()
        for name, _spec in self.config.machine_table():
            payload = payloads[self.shard_of[name]]
            row = payload["machines"][name]
            machine_rows.append((
                name,
                row["completed"],
                row["attributed_joules"],
                row["measured_joules"],
                row["crash_count"],
                row["alive"],
            ))
            for line in row["batch_lines"]:
                batch_hash.update(f"{name}|{line}\n".encode())
        self.late_replies = sum(
            payload["late_replies"] for payload in payloads.values()
        )
        unfinished = len(self._pending) + self.scheduler.inflight_count()
        stats = self.scheduler.stats()
        report_lines = [
            f"workload={self.config.workload}",
            f"machines={self.config.n_machines}",
            f"requests={self.n_requests}",
            f"completed={self.completed}",
            f"shed={self.scheduler.shed}",
            f"failovers={self.scheduler.failovers}",
            f"late_replies={self.late_replies}",
            f"unfinished={unfinished}",
            f"epochs={self.epochs_run}",
            f"energy={self.total_energy!r}",
            f"response={self.total_response!r}",
        ]
        report_lines.extend(
            f"stat:{key}={stats[key]!r}" for key in sorted(stats)
        )
        report_lines.extend(
            f"machine:{name}={completed}:{attributed!r}:{measured!r}:"
            f"{crashes}:{alive}"
            for name, completed, attributed, measured, crashes, alive
            in machine_rows
        )
        fingerprints = {
            "report": hashlib.sha256(
                "\n".join(report_lines).encode()
            ).hexdigest(),
            "shed": self.scheduler.shed_fingerprint(),
            "batch": batch_hash.hexdigest(),
            "energy": self._energy_digest,
        }
        telemetry_summary: dict = {}
        if self.observability is not None:
            self.observability.finalize(
                self.epochs_run * self.config.epoch, machine_rows
            )
            telemetry_summary = self.observability.summary()
        return ShardRunResult(
            config=self.config,
            n_requests=self.n_requests,
            completed=self.completed,
            shed=self.scheduler.shed,
            failovers=self.scheduler.failovers,
            late_replies=self.late_replies,
            unfinished=unfinished,
            epochs=self.epochs_run,
            worker_restarts=restarts,
            total_energy_joules=self.total_energy,
            total_response_seconds=self.total_response,
            scheduler_stats=stats,
            machine_rows=machine_rows,
            fingerprints=fingerprints,
            transport_stats=dict(transport_stats or {}),
            resumed=self.resumed,
            telemetry_summary=telemetry_summary,
            observability=self.observability,
        )


def run_sharded(
    config: ShardRunConfig,
    calibrations=None,
    pool_hook=None,
    transport_plan=None,
    transport_seed=None,
    transport_limits=None,
    revive_budget: int = 3,
    checkpoint: ShardCheckpointPolicy | None = None,
) -> ShardRunResult:
    """Build and run one sharded cluster simulation."""
    return ShardedClusterRun(config, calibrations).run(
        pool_hook=pool_hook,
        transport_plan=transport_plan,
        transport_seed=transport_seed,
        transport_limits=transport_limits,
        revive_budget=revive_budget,
        checkpoint=checkpoint,
    )


def resume_sharded(
    directory: str,
    calibrations=None,
    pool_hook=None,
    transport_plan=None,
    transport_seed=None,
    transport_limits=None,
    revive_budget: int = 3,
    index: int | None = None,
    checkpoint: ShardCheckpointPolicy | None = None,
) -> ShardRunResult:
    """Rebuild a crashed coordinator from its checkpoint and continue.

    Loads the newest checkpoint in ``directory`` (or the one at
    ``index``) and rebuilds the run from the persisted config.  The run
    replays from epoch 0 with fresh workers; at the checkpointed barrier
    its coordinator + pool snapshot must match the checkpoint bit for bit
    (:class:`~repro.checkpoint.state.RestoreMismatchError` otherwise), and
    the run continues, checkpointing under ``checkpoint`` as the original
    would have.  The resumed run's fingerprints are bit-identical to the
    uninterrupted run's: recovery is invisible in every fingerprinted
    output.  ``worker_restarts`` counts only this process's revives.
    """
    from repro.checkpoint.manager import CheckpointManager

    manager = CheckpointManager(directory)
    body = (
        manager.load(manager.path_for(index))
        if index is not None
        else manager.load_latest()
    )
    run = ShardedClusterRun(
        ShardRunConfig(**body["config"]), calibrations, _resume_body=body
    )
    return run.run(
        pool_hook=pool_hook,
        transport_plan=transport_plan,
        transport_seed=transport_seed,
        transport_limits=transport_limits,
        revive_budget=revive_budget,
        checkpoint=checkpoint,
    )
