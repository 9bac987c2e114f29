"""Deterministic fault injection and chaos scenarios.

This package stress-tests the attribution stack the way operators stress
production systems: by breaking things on purpose, reproducibly.

* :mod:`~repro.faults.injectors` -- seeded injectors that attach to the
  dedicated fault hooks on meters (:attr:`fault_hook`), socket endpoints
  (:attr:`tag_fault`), per-core sample mailboxes (:attr:`frozen`), and
  cluster machines (:meth:`crash`/:meth:`recover`);
* :mod:`~repro.faults.plan` -- :class:`FaultPlan`, a composable schedule of
  fault events applied on the simulated clock;
* :mod:`~repro.faults.harness` -- world builders, invariant checks, and the
  bit-identically-renderable :class:`ChaosReport`;
* :mod:`~repro.faults.scenarios` -- the named scenarios ``repro chaos``
  runs.

All randomness flows through :class:`repro.sim.rng.RngHub` streams, so one
seed fixes the workload, the faults, and the report.
"""

from repro.faults.injectors import (
    ArrivalSurgeInjector,
    ClusterFaultInjector,
    MailboxFaultInjector,
    MeterFaultInjector,
    MeterFaultProfile,
    PowerCapInjector,
    TagFaultInjector,
    schedule_meter_outage,
)
from repro.faults.plan import FaultEvent, FaultPlan, FaultTargets
from repro.faults.harness import (
    ChaosReport,
    ChaosWorld,
    ClusterWorld,
    LiveScenarioRun,
    OverloadWorld,
    Scenario,
    SingleMachineWorld,
    build_cluster_world,
    build_overload_world,
    build_single_world,
    chaos_calibration,
    chaos_calibrations,
    chaos_workload,
    finalize_scenario,
    prepare_scenario,
    run_scenario,
)
from repro.faults.scenarios import SCENARIOS, scenario_by_name

__all__ = [
    "ArrivalSurgeInjector",
    "ClusterFaultInjector",
    "MailboxFaultInjector",
    "MeterFaultInjector",
    "MeterFaultProfile",
    "PowerCapInjector",
    "TagFaultInjector",
    "schedule_meter_outage",
    "FaultEvent",
    "FaultPlan",
    "FaultTargets",
    "ChaosReport",
    "ChaosWorld",
    "ClusterWorld",
    "OverloadWorld",
    "Scenario",
    "SingleMachineWorld",
    "build_cluster_world",
    "build_overload_world",
    "build_single_world",
    "chaos_calibration",
    "chaos_calibrations",
    "chaos_workload",
    "LiveScenarioRun",
    "prepare_scenario",
    "finalize_scenario",
    "run_scenario",
    "SCENARIOS",
    "scenario_by_name",
]
