"""Parameter sweeps: load curves and machine comparisons.

The paper reports point measurements (peak/half load); operators planning
capacity want the whole curve.  :func:`load_sweep` runs a workload across
load levels on one machine and collects power, latency, and validation
error per level; :func:`machine_sweep` fixes the load and varies the
machine model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.parallel import parallel_starmap
from repro.core.calibration import CalibrationResult
from repro.hardware.specs import MachineSpec
from repro.workloads.base import Workload, run_workload


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample."""

    machine: str
    load_fraction: float
    measured_active_watts: float
    mean_response_time: float
    p95_response_time: float
    completed: int
    validation_error: float
    energy_per_request: float


def _run_point(
    workload: Workload,
    spec: MachineSpec,
    calibration: CalibrationResult,
    load: float,
    duration: float,
    seed: int,
) -> SweepPoint:
    run = run_workload(
        workload, spec, calibration,
        load_fraction=load, duration=duration, warmup=0.0, seed=seed,
    )
    results = run.driver.results
    latencies = [r.response_time for r in results] or [0.0]
    energies = [
        r.energy(run.facility.primary) for r in results
        if r.container.stats.cpu_seconds > 0
    ] or [0.0]
    measured = run.measured_active_joules / duration
    estimated = run.facility.registry.total_energy(run.facility.primary) / duration
    error = abs(estimated - measured) / measured if measured > 0 else 0.0
    return SweepPoint(
        machine=spec.name,
        load_fraction=load,
        measured_active_watts=measured,
        mean_response_time=float(np.mean(latencies)),
        p95_response_time=float(np.percentile(latencies, 95)),
        completed=len(results),
        validation_error=error,
        energy_per_request=float(np.mean(energies)),
    )


def load_sweep(
    workload: Workload,
    spec: MachineSpec,
    calibration: CalibrationResult,
    loads: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    duration: float = 4.0,
    seed: int = 0,
    jobs: int | None = None,
) -> list[SweepPoint]:
    """Sweep the offered load on one machine.

    Points are independent seeded simulations, so they fan out across
    forked workers (``jobs``; see :mod:`repro.sim.parallel`).
    Results are identical to the serial loop for any worker count.
    """
    if not loads:
        raise ValueError("need at least one load level")
    return parallel_starmap(
        _run_point,
        [(workload, spec, calibration, load, duration, seed) for load in loads],
        jobs=jobs,
    )


def machine_sweep(
    workload: Workload,
    specs_with_calibrations: list[tuple[MachineSpec, CalibrationResult]],
    load: float = 1.0,
    duration: float = 4.0,
    seed: int = 0,
    jobs: int | None = None,
) -> list[SweepPoint]:
    """Run one workload at a fixed load across machine models (in parallel)."""
    if not specs_with_calibrations:
        raise ValueError("need at least one machine")
    return parallel_starmap(
        _run_point,
        [
            (workload, spec, calibration, load, duration, seed)
            for spec, calibration in specs_with_calibrations
        ],
        jobs=jobs,
    )
