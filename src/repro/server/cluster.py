"""Heterogeneous cluster assembly (Section 4.4).

A :class:`HeterogeneousCluster` runs several simulated machines -- each with
its own kernel and power-container facility -- on one shared simulator, and
builds every component workload's server on every machine so the dispatcher
can place any request anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.core.calibration import CalibrationResult
from repro.core.facility import PowerContainerFacility
from repro.hardware.machine import Machine
from repro.hardware.specs import MachineSpec, build_machine
from repro.kernel import Kernel
from repro.server.stages import Server
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.base import Workload


@dataclass
class ClusterMachine:
    """One cluster member: machine + kernel + facility + per-workload servers."""

    spec: MachineSpec
    machine: Machine
    kernel: Kernel
    facility: PowerContainerFacility
    servers: dict[str, Server] = field(default_factory=dict)
    #: Active energy at the start of the measurement window.
    energy_mark: float = 0.0
    #: False while the machine is crashed: it accepts no new requests and
    #: dispatch policies must never choose it.
    alive: bool = True
    #: Times the machine has crashed (diagnostics / chaos reports).
    crash_count: int = 0
    _crash_listeners: list[Callable[["ClusterMachine"], None]] = field(
        default_factory=list, repr=False
    )
    _recover_listeners: list[Callable[["ClusterMachine"], None]] = field(
        default_factory=list, repr=False
    )

    @property
    def name(self) -> str:
        """Cluster-unique machine name."""
        return self.machine.name

    # -- failure model -------------------------------------------------
    def on_crash(self, listener: Callable[["ClusterMachine"], None]) -> None:
        """Subscribe to crash transitions (dispatchers fail over on these)."""
        self._crash_listeners.append(listener)

    def on_recover(self, listener: Callable[["ClusterMachine"], None]) -> None:
        """Subscribe to recovery transitions."""
        self._recover_listeners.append(listener)

    def crash(self) -> None:
        """The machine dies: stops accepting requests, in-flight work lost.

        The simulated hardware keeps integrating energy (a crashed box
        still draws idle power at the wall) but no new request may be
        dispatched until :meth:`recover`.
        """
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        for listener in list(self._crash_listeners):
            listener(self)

    def recover(self) -> None:
        """The machine comes back and may serve new requests again."""
        if self.alive:
            return
        self.alive = True
        for listener in list(self._recover_listeners):
            listener(self)

    def utilization(self) -> float:
        """Instantaneous fraction of busy cores (OS-visible)."""
        return self.machine.busy_core_count / self.machine.n_cores

    def mark_energy(self) -> None:
        """Start the measurement window for this machine."""
        self.machine.checkpoint()
        self.energy_mark = self.machine.integrator.active_joules

    def active_joules_since_mark(self) -> float:
        """Active energy accumulated since :meth:`mark_energy`."""
        self.machine.checkpoint()
        return self.machine.integrator.active_joules - self.energy_mark

    def snapshot_state(self) -> dict:
        """Scalar liveness state; machine, kernel and facility snapshot apart."""
        return {
            "v": 1,
            "alive": self.alive,
            "crash_count": self.crash_count,
            "energy_mark": self.energy_mark,
        }


class HeterogeneousCluster:
    """A set of machines serving the same workload components."""

    def __init__(self, simulator: Optional[Simulator] = None) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        self.machines: list[ClusterMachine] = []
        #: Name -> member index for O(1) :meth:`by_name` (hot in shard
        #: routing).  First-wins on duplicate names, matching the linear
        #: scan it replaced.
        self._by_name: dict[str, ClusterMachine] = {}

    def add_machine(
        self,
        spec: MachineSpec,
        calibration: CalibrationResult,
        name: Optional[str] = None,
        facility_kwargs: Optional[dict] = None,
        meter_factory: Optional[Callable[[Machine, Simulator], object]] = None,
    ) -> ClusterMachine:
        """Add one machine built from a spec and its calibration.

        ``meter_factory(machine, simulator)`` builds the member's power
        meter once the machine exists; the result is passed to the facility
        as its ``meter`` (so cluster members can have live per-machine
        telemetry, e.g. for the power-cap enforcer's degraded mode).
        """
        machine = build_machine(spec, self.simulator, name=name)
        kernel = Kernel(machine, self.simulator)
        kwargs = dict(facility_kwargs) if facility_kwargs else {}
        if meter_factory is not None:
            kwargs["meter"] = meter_factory(machine, self.simulator)
        facility = PowerContainerFacility(kernel, calibration, **kwargs)
        member = ClusterMachine(
            spec=spec, machine=machine, kernel=kernel, facility=facility
        )
        self.machines.append(member)
        self._by_name.setdefault(member.name, member)
        return member

    def build_workload(self, workload: "Workload") -> None:
        """Build the workload's server topology on every machine."""
        for member in self.machines:
            if workload.name in member.servers:
                raise ValueError(
                    f"workload {workload.name!r} already built on {member.name}"
                )
            member.servers[workload.name] = workload.build_server(
                member.kernel, member.facility
            )

    def by_name(self, name: str) -> ClusterMachine:
        """Look up a member machine by name (O(1) via the name index)."""
        member = self._by_name.get(name)
        if member is None:
            raise KeyError(f"no machine named {name!r} in cluster")
        return member

    def shard_partition(self, n_shards: int) -> list[list[str]]:
        """Partition member names round-robin into ``n_shards`` groups.

        Deterministic in cluster insertion order: machine ``i`` lands in
        shard ``i % n_shards``.  Sharded simulation builds one worker-local
        cluster per group; because members share no state, any grouping
        yields bit-identical per-machine results.
        """
        if n_shards < 1:
            raise ValueError("need at least one shard")
        groups: list[list[str]] = [[] for _ in range(n_shards)]
        for index, member in enumerate(self.machines):
            groups[index % n_shards].append(member.name)
        return groups

    def mark_energy(self) -> None:
        """Start the energy measurement window on every machine."""
        for member in self.machines:
            member.mark_energy()

    def total_active_joules_since_mark(self) -> float:
        """Combined active energy of all machines since the mark."""
        return sum(m.active_joules_since_mark() for m in self.machines)
