"""Chaos harness: build a world, run a fault plan, check invariants.

A chaos run assembles a small serving world (one machine with a package
meter and a pipelined synthetic workload, or a two-machine cluster behind a
dispatcher), applies a :class:`~repro.faults.plan.FaultPlan`, drives load
for the scenario's duration, and then audits the attribution stack:

* every model-trace power estimate is finite,
* every live model's coefficients are finite,
* no container carries negative energy,
* total attributed energy matches ground-truth measured energy within the
  scenario's tolerance (the paper's Fig. 8 energy-sum validation, under
  fire), and
* the scenario's expected self-healing counters actually engaged -- a run
  that "passes" because the faults never fired is a broken scenario, not a
  robust system.

Everything is seeded through :class:`repro.sim.rng.RngHub`, so one seed
fixes the workload arrivals, the fault draws, and therefore the full
report; :meth:`ChaosReport.fingerprint` renders it bit-identically for the
determinism gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from repro.core.calibration import CalibrationResult, calibrate_machines
from repro.core.facility import PowerContainerFacility
from repro.core.powercap import PowerCapEnforcer
from repro.faults.injectors import (
    ArrivalSurgeInjector,
    ClusterFaultInjector,
    MailboxFaultInjector,
    MeterFaultInjector,
    PowerCapInjector,
    TagFaultInjector,
)
from repro.faults.plan import FaultPlan, FaultTargets
from repro.hardware.events import RateProfile
from repro.hardware.meters import PackageMeter
from repro.hardware.specs import SANDYBRIDGE, build_machine
from repro.kernel import Kernel
from repro.server.cluster import HeterogeneousCluster
from repro.server.dispatch import Dispatcher, SimpleLoadBalancePolicy
from repro.server.overload import OverloadConfig, OverloadProtector
from repro.sim.engine import Simulator
from repro.sim.rng import RngHub
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads.base import OpenLoopDriver
from repro.workloads.synthetic import StageSpec, SyntheticWorkload

#: Per-spec calibration cache: chaos runs many scenarios on identical
#: machine models and calibration is by far the most expensive step.
_CALIBRATIONS: dict[str, CalibrationResult] = {}

_PARSE = RateProfile(name="chaos-parse", ipc=1.6, cache_per_cycle=0.004,
                     mem_per_cycle=0.001, hidden_watts=0.0)
_DB = RateProfile(name="chaos-db", ipc=0.8, cache_per_cycle=0.02,
                  mem_per_cycle=0.008, hidden_watts=2.0)
_RENDER = RateProfile(name="chaos-render", ipc=1.2, cache_per_cycle=0.01,
                      mem_per_cycle=0.004, hidden_watts=1.0)


def chaos_calibration(spec=SANDYBRIDGE) -> CalibrationResult:
    """Calibrate one machine model (cached per spec for the process)."""
    return chaos_calibrations([spec])[spec.name]


def chaos_calibrations(specs) -> dict[str, CalibrationResult]:
    """``{spec.name: calibration}`` in the order given, cached per spec.

    Every spec not yet cached is calibrated in one
    :func:`~repro.core.calibration.calibrate_machines` fan-out.
    """
    missing = [spec for spec in specs if spec.name not in _CALIBRATIONS]
    if missing:
        _CALIBRATIONS.update(calibrate_machines(missing))
    return {spec.name: _CALIBRATIONS[spec.name] for spec in specs}


def chaos_workload() -> SyntheticWorkload:
    """The pipelined request used by every chaos scenario.

    One inline parse, one sub-service stage over a persistent tagged
    socket (so per-segment tagging is genuinely exercised), one inline
    render -- a compact Fig. 4-style topology.
    """
    return SyntheticWorkload(
        name="chaos",
        stages=[
            StageSpec("parse", cycles=3e6, profile=_PARSE),
            StageSpec("db", cycles=8e6, profile=_DB, kind="service",
                      io_bytes=4096.0),
            StageSpec("render", cycles=6e6, profile=_RENDER),
        ],
        demand_jitter=0.15,
        n_workers=6,
    )


@dataclass
class SingleMachineWorld:
    """One metered machine serving the chaos workload under open-loop load."""

    simulator: Simulator
    machine: object
    kernel: Kernel
    facility: PowerContainerFacility
    workload: SyntheticWorkload
    server: object
    driver: OpenLoopDriver
    targets: FaultTargets
    hub: RngHub
    duration: float
    #: Optional shared telemetry handle (None = uninstrumented run).
    telemetry: object = None

    def start(self) -> None:
        """Begin request arrivals."""
        self.driver.start(self.duration)

    def measured_joules(self) -> float:
        """Ground-truth active energy over the whole run."""
        self.machine.checkpoint()
        return float(self.machine.integrator.active_joules)

    def attributed_joules(self) -> float:
        """Model-attributed energy summed over every container."""
        return float(self.facility.registry.total_energy(self.facility.primary))


@dataclass
class ClusterWorld:
    """Two machines behind a retrying dispatcher."""

    cluster: HeterogeneousCluster
    dispatcher: Dispatcher
    workload: SyntheticWorkload
    targets: FaultTargets
    hub: RngHub
    duration: float
    #: Optional shared telemetry handle (None = uninstrumented run).
    telemetry: object = None

    @property
    def simulator(self) -> Simulator:
        """The shared cluster simulator."""
        return self.cluster.simulator

    def start(self) -> None:
        """Begin request arrivals at the dispatcher."""
        self.dispatcher.start(self.duration)

    def measured_joules(self) -> float:
        """Ground-truth active energy summed over all machines."""
        total = 0.0
        for member in self.cluster.machines:
            member.machine.checkpoint()
            total += member.machine.integrator.active_joules
        return float(total)

    def attributed_joules(self) -> float:
        """Attributed energy summed over all machines' containers."""
        return float(
            sum(
                member.facility.registry.total_energy(member.facility.primary)
                for member in self.cluster.machines
            )
        )


@dataclass
class OverloadWorld(ClusterWorld):
    """A metered cluster with overload protection and a power-cap enforcer.

    Extends the plain cluster world with per-machine package meters (so the
    facility watchdogs -- and therefore the enforcer's degraded-telemetry
    mode -- are live), an :class:`~repro.server.overload.OverloadProtector`
    on the dispatcher, and a :class:`~repro.core.powercap.PowerCapEnforcer`
    driving the brownout ladder.
    """

    protector: OverloadProtector = None  # type: ignore[assignment]
    enforcer: PowerCapEnforcer = None  # type: ignore[assignment]

    def start(self) -> None:
        """Begin the cap control loop and request arrivals."""
        self.enforcer.start()
        self.dispatcher.start(self.duration)


ChaosWorld = Union[SingleMachineWorld, ClusterWorld]


def build_single_world(
    seed: int, duration: float, load_fraction: float = 0.45, telemetry=None
) -> SingleMachineWorld:
    """Assemble the single-machine chaos world with all injectors bound."""
    calibration = chaos_calibration()
    hub = RngHub(seed)
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(
        kernel,
        calibration,
        meter=PackageMeter(machine, sim, period=1e-3, delay=1e-3),
        meter_idle_watts=calibration.package_idle_watts,
        trace_period=1e-3,
        recalib_interval=0.1,
        max_delay_seconds=0.01,
        route_untagged_to_background=True,
        telemetry=telemetry,
    )
    facility.start_tracing()
    workload = chaos_workload()
    server = workload.build_server(kernel, facility)
    driver = OpenLoopDriver(
        kernel, facility, workload, server,
        load_fraction=load_fraction, rng=hub.stream("chaos-arrivals"),
    )
    targets = FaultTargets(
        meter=MeterFaultInjector(facility.meter, hub.stream("chaos-meter")),
        tags={
            "listener": TagFaultInjector(
                server.listener,
                hub.stream("chaos-tags"),
                # The tag carried the in-flight container reference; release
                # it or the container never closes (a real leak this hook
                # exists to model -- and the facility must survive).
                on_loss=facility.registry.decref,
            )
        },
        mailbox=MailboxFaultInjector(machine),
    )
    return SingleMachineWorld(
        simulator=sim, machine=machine, kernel=kernel, facility=facility,
        workload=workload, server=server, driver=driver, targets=targets,
        hub=hub, duration=duration, telemetry=telemetry,
    )


def build_cluster_world(
    seed: int, duration: float, load_fraction: float = 0.35, telemetry=None
) -> ClusterWorld:
    """Assemble the two-machine cluster chaos world."""
    calibration = chaos_calibration()
    hub = RngHub(seed)
    cluster = HeterogeneousCluster()
    for name in ("sb0", "sb1"):
        cluster.add_machine(
            SANDYBRIDGE,
            calibration,
            name=name,
            facility_kwargs=dict(telemetry=telemetry, telemetry_node=name),
        )
    workload = chaos_workload()
    cluster.build_workload(workload)
    demand = workload.mean_demand_seconds("sandybridge")
    total_cores = sum(m.machine.n_cores for m in cluster.machines)
    dispatcher = Dispatcher(
        cluster,
        [(workload, 1.0)],
        SimpleLoadBalancePolicy(),
        request_rate=load_fraction * total_cores / demand,
        rng=hub.stream("chaos-arrivals"),
        telemetry=telemetry,
    )
    targets = FaultTargets(
        cluster=ClusterFaultInjector(
            {m.name: m for m in cluster.machines}
        )
    )
    return ClusterWorld(
        cluster=cluster, dispatcher=dispatcher, workload=workload,
        targets=targets, hub=hub, duration=duration, telemetry=telemetry,
    )


def build_overload_world(
    seed: int,
    duration: float,
    load_fraction: float = 0.35,
    cap_watts: float = 95.0,
    telemetry=None,
) -> OverloadWorld:
    """Assemble the overload/brownout chaos world.

    Two metered machines behind an overload-protected dispatcher, with a
    cluster power-cap enforcer whose default ``cap_watts`` leaves headroom
    at the base load (the brownout ladder stays at full-speed until a storm
    or a squeeze pushes the cluster over).
    """
    calibration = chaos_calibration()
    hub = RngHub(seed)
    cluster = HeterogeneousCluster()
    for name in ("sb0", "sb1"):
        cluster.add_machine(
            SANDYBRIDGE,
            calibration,
            name=name,
            facility_kwargs=dict(
                meter_idle_watts=calibration.package_idle_watts,
                trace_period=1e-3,
                recalib_interval=0.1,
                max_delay_seconds=0.01,
                route_untagged_to_background=True,
                telemetry=telemetry,
                telemetry_node=name,
            ),
            meter_factory=lambda machine, sim: PackageMeter(
                machine, sim, period=1e-3, delay=1e-3
            ),
        )
    workload = chaos_workload()
    cluster.build_workload(workload)
    demand = workload.mean_demand_seconds("sandybridge")
    total_cores = sum(m.machine.n_cores for m in cluster.machines)
    request_rate = load_fraction * total_cores / demand
    protector = OverloadProtector(
        OverloadConfig(
            max_inflight=6,
            queue_depth=8,
            # Per-machine bucket: the full base cluster rate, so a 2x storm
            # saturates both machines' buckets while the base load never
            # touches them.
            bucket_rate=request_rate,
            bucket_capacity=max(8.0, request_rate * 0.02),
            deadline_budget=0.08,
        ),
        priority_rng=hub.stream("chaos-priorities"),
    )
    dispatcher = Dispatcher(
        cluster,
        [(workload, 1.0)],
        SimpleLoadBalancePolicy(),
        request_rate=request_rate,
        rng=hub.stream("chaos-arrivals"),
        overload=protector,
        telemetry=telemetry,
    )
    enforcer = PowerCapEnforcer(
        cluster, cap_watts=cap_watts, protector=protector, interval=0.02,
        telemetry=telemetry,
    )
    for member in cluster.machines:
        member.facility.start_tracing()
    targets = FaultTargets(
        cluster=ClusterFaultInjector({m.name: m for m in cluster.machines}),
        meters={
            member.name: MeterFaultInjector(
                member.facility.meter, hub.stream(f"chaos-meter-{member.name}")
            )
            for member in cluster.machines
        },
        arrivals=ArrivalSurgeInjector(dispatcher),
        powercap=PowerCapInjector(enforcer),
    )
    return OverloadWorld(
        cluster=cluster, dispatcher=dispatcher, workload=workload,
        targets=targets, hub=hub, duration=duration, telemetry=telemetry,
        protector=protector, enforcer=enforcer,
    )


@dataclass(frozen=True)
class Scenario:
    """A named chaos scenario: a world kind, a fault plan, expectations.

    ``build_plan(world, rng)`` returns the scenario's fault plan (built
    against ``world.duration`` so ``--duration-scale`` scales the fault
    windows along with the run).  ``expects`` lists counters that must
    reach a minimum value after the run -- proof the faults actually fired
    and the corresponding guard actually engaged.
    """

    name: str
    description: str
    kind: str  # "single" | "cluster" | "overload"
    duration: float
    tolerance: float
    build_plan: Callable[[ChaosWorld, np.random.Generator], FaultPlan]
    expects: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("single", "cluster", "overload"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.duration <= 0 or self.tolerance <= 0:
            raise ValueError("duration and tolerance must be positive")


@dataclass
class ChaosReport:
    """Everything one scenario run produced, renderable bit-identically."""

    scenario: str
    seed: int
    duration: float
    stats: dict[str, float] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def fingerprint(self) -> str:
        """Canonical rendering: identical runs produce identical strings.

        Floats are rendered with ``repr`` (shortest round-trip form), so
        any bitwise divergence between two same-seed runs shows up.
        """
        lines = [f"scenario={self.scenario} seed={self.seed} "
                 f"duration={self.duration!r}"]
        for key in sorted(self.stats):
            lines.append(f"{key}={self.stats[key]!r}")
        for violation in self.violations:
            lines.append(f"VIOLATION {violation}")
        return "\n".join(lines)


def _check_finite_trace(facility: PowerContainerFacility, violations: list[str]) -> None:
    _times, watts = facility.model_trace_series()
    if len(watts) and not np.isfinite(watts).all():
        bad = int(np.count_nonzero(~np.isfinite(watts)))
        violations.append(f"{bad} non-finite model-trace watts")


def _check_models(facility: PowerContainerFacility, violations: list[str]) -> None:
    for name, model in sorted(facility.models.items()):
        if not np.isfinite(model.coefficients).all():
            violations.append(f"model {name!r} has non-finite coefficients")


def _check_containers(
    facility: PowerContainerFacility, violations: list[str]
) -> None:
    primary = facility.primary
    for container in facility.registry.all_containers():
        energy = container.total_energy(primary)
        if not np.isfinite(energy):
            violations.append(
                f"container {container.id} ({container.label}) has "
                f"non-finite energy"
            )
        elif energy < -1e-6:
            violations.append(
                f"container {container.id} ({container.label}) has "
                f"negative energy {energy:.3g} J"
            )


def _check_overload(world: "OverloadWorld", violations: list[str]) -> None:
    """Audit the overload/brownout contract after a run.

    * **Exact accounting**: every arrival is in exactly one terminal or
      pending state (``arrivals == completed + shed + rejected + pending``).
      A nonzero gap means a request was silently dropped or double-counted.
    * **Cap convergence**: the brownout ladder has one rung per control
      interval, so measured power may exceed the effective cap for at most
      ``len(BROWNOUT_LADDER) - 1`` consecutive intervals before the ladder
      has escalated as far as it can; any longer streak means capping
      failed to bite.
    """
    from repro.core.powercap import BROWNOUT_LADDER

    gap = world.protector.accounting_gap()
    if gap != 0:
        violations.append(
            f"overload accounting broken: {gap:+d} arrivals unaccounted "
            f"(arrivals {world.protector.arrivals}, completed "
            f"{world.protector.completed}, shed {world.protector.shed}, "
            f"rejected {world.protector.rejected}, pending "
            f"{world.protector.pending()})"
        )
    max_streak = len(BROWNOUT_LADDER) - 1
    if world.enforcer.max_consecutive_over > max_streak:
        violations.append(
            f"power cap never converged: measured power exceeded the "
            f"effective cap for {world.enforcer.max_consecutive_over} "
            f"consecutive control intervals (ladder needs at most "
            f"{max_streak})"
        )


def _check_conservation(
    attributed: float, measured: float, tolerance: float, violations: list[str]
) -> float:
    if measured <= 0.0:
        violations.append("measured active energy is zero: nothing ran")
        return float("nan")
    error = abs(attributed - measured) / measured
    if not np.isfinite(error) or error > tolerance:
        violations.append(
            f"energy not conserved: attributed {attributed:.3f} J vs "
            f"measured {measured:.3f} J (error {error:.1%} > "
            f"tolerance {tolerance:.0%})"
        )
    return error


@dataclass
class LiveScenarioRun:
    """A chaos world that is built, faulted, and started -- but not yet run.

    :func:`prepare_scenario` stops just before the clock advances, so the
    checkpoint runner can schedule auto-checkpoint ticks on
    ``world.simulator`` first; :func:`finalize_scenario` audits and
    packages the report exactly as the one-shot path always did.
    """

    scenario: Scenario
    seed: int
    duration: float
    world: ChaosWorld
    plan: FaultPlan
    telemetry: object = None


def prepare_scenario(
    scenario: Scenario, seed: int, duration_scale: float = 1.0, telemetry=None
) -> LiveScenarioRun:
    """Build the scenario's world, apply its plan, and start arrivals."""
    if duration_scale <= 0:
        raise ValueError("duration scale must be positive")
    duration = scenario.duration * duration_scale
    if scenario.kind == "single":
        world: ChaosWorld = build_single_world(
            seed, duration, telemetry=telemetry
        )
    elif scenario.kind == "overload":
        world = build_overload_world(seed, duration, telemetry=telemetry)
    else:
        world = build_cluster_world(seed, duration, telemetry=telemetry)
    plan = scenario.build_plan(world, world.hub.stream("chaos-plan"))
    plan.apply(world.simulator, world.targets, telemetry=telemetry)
    world.start()
    return LiveScenarioRun(
        scenario=scenario, seed=seed, duration=duration, world=world,
        plan=plan, telemetry=telemetry,
    )


def finalize_scenario(live: LiveScenarioRun) -> ChaosReport:
    """Audit the invariants of a fully-run scenario world."""
    scenario, seed, duration = live.scenario, live.seed, live.duration
    world, telemetry = live.world, live.telemetry

    report = ChaosReport(scenario=scenario.name, seed=seed, duration=duration)
    violations = report.violations
    stats = report.stats
    stats.update(world.targets.export_stats())

    # Every component publishes into a private registry, never the
    # telemetry handle's: the report must not depend on telemetry mode.
    registry = MetricsRegistry()
    if isinstance(world, SingleMachineWorld):
        world.facility.flush()
        _check_finite_trace(world.facility, violations)
        _check_models(world.facility, violations)
        _check_containers(world.facility, violations)
        world.facility.publish_metrics(registry)
        stats["completed"] = float(world.driver.completed)
    else:
        for member in world.cluster.machines:
            member.facility.flush()
            _check_models(member.facility, violations)
            _check_containers(member.facility, violations)
            if isinstance(world, OverloadWorld):
                _check_finite_trace(member.facility, violations)
            member.facility.publish_metrics(registry)
        world.dispatcher.publish_metrics(registry)
        if isinstance(world, OverloadWorld):
            world.enforcer.publish_metrics(registry)
            _check_overload(world, violations)
        stats["completed"] = float(world.dispatcher.completed)
    stats.update(registry.snapshot())

    attributed = world.attributed_joules()
    measured = world.measured_joules()
    stats["attributed_joules"] = attributed
    stats["measured_joules"] = measured
    stats["relative_error"] = _check_conservation(
        attributed, measured, scenario.tolerance, violations
    )
    if stats["completed"] <= 0:
        violations.append("no requests completed: the world never served")

    for key, minimum in scenario.expects:
        observed = stats.get(key)
        if observed is None:
            violations.append(f"expected counter {key!r} missing from stats")
        elif observed < minimum:
            violations.append(
                f"expected {key} >= {minimum:g}, observed {observed:g} "
                f"(the fault or guard never engaged)"
            )

    if telemetry is not None and telemetry.enabled:
        if isinstance(world, SingleMachineWorld):
            world.facility.publish_metrics(telemetry.registry)
        else:
            for member in world.cluster.machines:
                member.facility.publish_metrics(telemetry.registry)
            world.dispatcher.publish_metrics(telemetry.registry)
            if isinstance(world, OverloadWorld):
                world.enforcer.publish_metrics(telemetry.registry)
    return report


def run_scenario(
    scenario: Scenario, seed: int, duration_scale: float = 1.0, telemetry=None
) -> ChaosReport:
    """Run one scenario end to end and audit the invariants.

    An optional :class:`~repro.telemetry.Telemetry` handle threads through
    every component (facilities, dispatcher, overload protector, power-cap
    enforcer, fault plan); after the run each component's counters are
    published into its metrics registry.  ``None`` runs bit-identically to
    the uninstrumented harness.

    Composed from :func:`prepare_scenario` + :func:`finalize_scenario`
    with the clock driven in between -- the decomposition the checkpoint
    runner uses to interleave auto-checkpoint ticks.
    """
    live = prepare_scenario(
        scenario, seed, duration_scale=duration_scale, telemetry=telemetry
    )
    live.world.simulator.run_until(live.duration)
    return finalize_scenario(live)
