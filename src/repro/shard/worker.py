"""One shard: a worker-local cluster advanced in epochs between barriers.

A :class:`ShardWorld` owns a subset of the sharded run's machines -- each
with its own kernel and power-container facility on one shard-local
simulator -- and a host that plays the dispatcher's machine-side role:
inject delivered tickets, collect replies into the outbox, fail over
in-flight work when a machine crashes.

Shard-count invariance is by construction: machines share no state and no
RNG (all request randomness is sampled coordinator-side into the ticket),
and every cross-machine interaction goes through the coordinator with
epoch-barrier delivery even when source and destination happen to share a
shard.  Co-resident machines' events interleave on the shard simulator,
but nothing one machine does can be observed by another, so each
machine's evolution -- service times, attributed energy, reply order per
machine -- is a pure function of its own delivered directives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checkpoint.state import payload_digest
from repro.kernel import ContextTag, Message
from repro.server.cluster import ClusterMachine, HeterogeneousCluster
from repro.server.dispatch import DispatchTicket
from repro.shard.messages import (
    DIRECTIVE_CRASH,
    DIRECTIVE_INJECT,
    DIRECTIVE_RECOVER,
    CompletionRecord,
    FailoverRecord,
    validate_directive,
)
from repro.telemetry import FrameDrain, Telemetry

#: Legal per-shard telemetry modes: no handle at all, an attached but
#: disabled handle (the neutrality/overhead arm), or full frame shipping.
SHARD_TELEMETRY_MODES = ("off", "disabled", "on")


@dataclass(frozen=True)
class ShardConfig:
    """Plain-data recipe for building one shard's world.

    ``machines`` lists ``(name, spec_name)`` in cluster insertion order;
    ``workload`` names the workload kind every machine serves ("solr" or
    "chaos").  A shard rebuilt from the same config and replayed from the
    same directive history reproduces its state bit-for-bit -- the
    property worker-crash recovery rests on.

    ``telemetry`` selects the shard's observability mode: ``"off"`` (no
    handle -- the pre-telemetry code paths, byte-identical), ``"disabled"``
    (a handle with ``enabled=False`` -- one attribute check per site), or
    ``"on"`` (record everything and ship a telemetry frame each barrier).
    Frames are a pure function of config + directives, so replay after a
    worker crash regenerates them bit-for-bit.
    """

    shard_id: int
    machines: tuple[tuple[str, str], ...]
    workload: str
    telemetry: str = "off"

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError(
                f"shard_id must be non-negative, got {self.shard_id!r}"
            )
        if not self.workload:
            raise ValueError("workload must be a non-empty kind name")
        if self.telemetry not in SHARD_TELEMETRY_MODES:
            raise ValueError(
                f"telemetry mode must be one of {SHARD_TELEMETRY_MODES}, "
                f"got {self.telemetry!r}"
            )


def build_shard_workload(kind: str):
    """Construct the (deterministic) workload object for a shard."""
    if kind == "solr":
        from repro.workloads import SolrWorkload

        return SolrWorkload()
    if kind == "chaos":
        from repro.faults.harness import chaos_workload

        return chaos_workload()
    raise ValueError(f"unknown shard workload kind {kind!r}")


@dataclass
class ShardWorld:
    """A built shard: cluster, host bookkeeping, and per-epoch outboxes."""

    config: ShardConfig
    cluster: HeterogeneousCluster
    workload: object
    #: (request_id, attempt) -> (ticket, container, member).  The attempt
    #: is part of the key so a late reply from a crashed machine's copy of
    #: a request can never match a re-injected retry of the same request
    #: -- with a bare request_id key that collision is shard-dependent
    #: (the retry may or may not land in the late reply's shard).
    inflight: dict[tuple, tuple] = field(default_factory=dict)
    completions: list[tuple] = field(default_factory=list)
    failovers: list[tuple] = field(default_factory=list)
    late_replies: int = 0
    completed_per_machine: dict[str, int] = field(default_factory=dict)
    energy_per_machine: dict[str, float] = field(default_factory=dict)
    #: One shared handle per shard ("disabled"/"on" modes); tracks are
    #: machine-scoped via ``telemetry_node``, so sharing one tracer ring
    #: never mixes machines' event order within a track.
    telemetry: object = None
    drain: object = None
    epochs_run: int = 0

    @classmethod
    def build(cls, config: ShardConfig, calibrations: dict) -> "ShardWorld":
        """Assemble the shard's machines, servers, and reply plumbing."""
        from repro.hardware.specs import spec_by_name

        telemetry = None
        if config.telemetry != "off":
            # The frame drain empties the ring at every barrier, which
            # bounds it to one epoch; unbounded in between, recording is
            # lossless, so ring pressure can never cut a shard-dependent
            # slice out of the merged trace.
            telemetry = Telemetry(
                enabled=config.telemetry == "on", capacity=None
            )
        cluster = HeterogeneousCluster()
        for name, spec_name in config.machines:
            facility_kwargs = None
            if telemetry is not None:
                facility_kwargs = {
                    "telemetry": telemetry, "telemetry_node": name
                }
            cluster.add_machine(
                spec_by_name(spec_name),
                calibrations[spec_name],
                name=name,
                facility_kwargs=facility_kwargs,
            )
        workload = build_shard_workload(config.workload)
        cluster.build_workload(workload)
        world = cls(config=config, cluster=cluster, workload=workload)
        world.telemetry = telemetry
        if config.telemetry == "on":
            world.drain = FrameDrain(telemetry)
        for member in cluster.machines:
            world.completed_per_machine[member.name] = 0
            world.energy_per_machine[member.name] = 0.0
            for server in member.servers.values():
                server.client_side.on_message = world._make_reply_handler(
                    member
                )
            member.on_crash(world._handle_crash)
        return world

    # -- epoch protocol -------------------------------------------------
    def deliver(self, directives: list[tuple]) -> None:
        """Schedule one barrier's directives into the upcoming epoch.

        The coordinator sends directives pre-sorted by (time, machine,
        request id); scheduling order therefore never depends on shard
        composition, and neither does anything else -- simultaneous events
        on different machines cannot interact.
        """
        sim = self.cluster.simulator
        for directive in directives:
            kind, body = validate_directive(directive)
            if kind == DIRECTIVE_INJECT:
                ticket = DispatchTicket.from_wire(body)
                sim.schedule_at(
                    ticket.arrival, self._inject, ticket, label="shard-inject"
                )
            elif kind == DIRECTIVE_CRASH:
                machine, time = body
                member = self.cluster.by_name(machine)
                sim.schedule_at(time, member.crash, label="shard-crash")
            elif kind == DIRECTIVE_RECOVER:
                machine, time = body
                member = self.cluster.by_name(machine)
                sim.schedule_at(time, member.recover, label="shard-recover")
            else:
                raise ValueError(f"unknown directive kind {kind!r}")

    def run_epoch(self, end: float) -> tuple[list[tuple], list[tuple]]:
        """Advance to the barrier; returns sorted (completions, failovers).

        Outboxes are returned as wire tuples sorted under each record's
        canonical key and cleared for the next epoch.
        """
        self.cluster.simulator.run_epoch(end)
        self.epochs_run += 1
        completions = sorted(self.completions)
        failovers = sorted(self.failovers)
        self.completions = []
        self.failovers = []
        return completions, failovers

    def drain_frame(self):
        """This barrier's telemetry frame wire tuple (``None`` unless "on").

        Call once per barrier, after :meth:`run_epoch`: every machine's
        energy-timeline window closes first, then the drain empties the
        tracer ring and snapshots the registry, so the frame carries
        exactly this epoch's deltas.
        """
        if self.drain is None:
            return None
        for member in self.cluster.machines:
            member.facility.energy_timeline.close()
        return self.drain.drain(
            self.config.shard_id, self.epochs_run - 1
        ).to_wire()

    # -- host plumbing --------------------------------------------------
    def _inject(self, ticket: DispatchTicket) -> None:
        member = self.cluster.by_name(ticket.machine)
        if not member.alive:
            # Crashed after the coordinator routed to it (same barrier):
            # bounce the ticket back as an immediate failover.
            self.failovers.append(
                FailoverRecord(
                    time=self.cluster.simulator.now,
                    machine=member.name,
                    request_id=ticket.request_id,
                    ticket_wire=ticket.to_wire(),
                ).to_wire()
            )
            return
        spec = ticket.spec()
        container = member.facility.create_request_container(
            label=f"{ticket.workload}:{ticket.rtype}",
            meta={
                "rtype": ticket.rtype,
                "workload": ticket.workload,
                "params": dict(spec.params),
            },
        )
        member.facility.registry.incref(container.id)
        key = (ticket.request_id, ticket.attempt)
        self.inflight[key] = (ticket, container, member)
        member.servers[ticket.workload].inject(
            Message(
                nbytes=self.workload.request_bytes(),
                payload=(key, spec),
                tag=ContextTag(container_id=container.id),
            )
        )

    def _make_reply_handler(self, member: ClusterMachine):
        def on_reply(message: Message) -> None:
            (key, _spec), _result = message.payload
            entry = self.inflight.pop(key, None)
            if entry is None:
                # Crashed while serving, failed over, served anyway: the
                # late reply is counted, never double-completed.
                self.late_replies += 1
                return
            ticket, container, served_by = entry
            now = self.cluster.simulator.now
            energy = container.total_energy(served_by.facility.primary)
            served_by.facility.registry.decref(container.id)
            served_by.facility.complete_request(container)
            self.completed_per_machine[served_by.name] += 1
            self.energy_per_machine[served_by.name] += energy
            self.completions.append(
                CompletionRecord(
                    completion=now,
                    machine=served_by.name,
                    request_id=key[0],
                    rtype=ticket.rtype,
                    arrival=ticket.arrival,
                    energy_joules=energy,
                    response_time=now - ticket.arrival,
                ).to_wire()
            )

        return on_reply

    def _handle_crash(self, member: ClusterMachine) -> None:
        """Strand this machine's in-flight work into failover records."""
        now = self.cluster.simulator.now
        stranded = sorted(
            key
            for key, entry in self.inflight.items()
            if entry[2] is member
        )
        for key in stranded:
            ticket, container, served_by = self.inflight.pop(key)
            served_by.facility.registry.decref(container.id)
            served_by.facility.complete_request(container)
            self.failovers.append(
                FailoverRecord(
                    time=now,
                    machine=served_by.name,
                    request_id=key[0],
                    ticket_wire=ticket.to_wire(),
                ).to_wire()
            )

    # -- restart verification -------------------------------------------
    def state_summary(self) -> dict:
        """Compact plain-data view of shard progress (replay-verifiable).

        A shard rebuilt from its config and replayed from its directive
        history must reproduce this summary bit-for-bit; the pool verifies
        the digest after every worker restart.
        """
        summary = {
            "v": 1,
            "shard": self.config.shard_id,
            "now": self.cluster.simulator.now,
            "events": self.cluster.simulator.events_processed,
            "inflight": sorted(self.inflight),
            "late_replies": self.late_replies,
            "completed": dict(sorted(self.completed_per_machine.items())),
            "energy": dict(sorted(self.energy_per_machine.items())),
        }
        if self.drain is not None:
            # Chain digest over every frame shipped: replay verification
            # then proves a revived worker regenerated identical frames.
            summary["telemetry"] = self.drain.summary()
        return summary

    def state_digest(self) -> str:
        """SHA-256 of :meth:`state_summary` (the cheap per-epoch check)."""
        return payload_digest(self.state_summary())

    # -- end-of-run reporting -------------------------------------------
    def final_payload(self) -> dict:
        """Everything the coordinator folds into the run fingerprints."""
        machines = {}
        for member in self.cluster.machines:
            member.facility.flush()
            member.machine.checkpoint()
            primary = member.facility.primary
            containers = sorted(
                member.facility.registry.all_containers(),
                key=lambda c: c.id,
            )
            machines[member.name] = {
                "completed": self.completed_per_machine[member.name],
                "attributed_joules": self.energy_per_machine[member.name],
                "measured_joules": float(
                    member.machine.integrator.active_joules
                ),
                "crash_count": member.crash_count,
                "alive": member.alive,
                "batch_lines": [
                    f"{c.id}:{c.label}:{c.total_energy(primary)!r}:"
                    f"{c.stats.sample_count}"
                    for c in containers
                ],
            }
        return {
            "shard": self.config.shard_id,
            "late_replies": self.late_replies,
            "inflight": sorted(self.inflight),
            "machines": machines,
        }
