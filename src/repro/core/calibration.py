"""Offline power-model calibration from microbenchmarks (Section 4.1).

The paper calibrates each machine once with a set of microbenchmarks that
stress different subsystems -- raw CPU spin, high instruction rate, high
floating point, high last-level cache access, high memory access, disk I/O,
network I/O, and a mixed pattern -- each run at 100/75/50/25% of peak load.
Least-square regression over the collected (metrics, measured active power)
samples yields the model coefficients.

Calibration observes only what a real kernel could observe: hardware
counters, OS scheduling state (which chips had runnable tasks, which devices
were busy), and an external power measurement (the ground-truth energy
integral over the steady-state window, i.e. an ideal meter).  The hidden
power of unusual production workloads is by construction *not* represented
here -- that is the model error the online recalibration later removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.core.model import FEATURES_FULL, PowerModel
from repro.hardware.events import RateProfile
from repro.hardware.machine import Machine
from repro.hardware.occupancy import OccupancyCounter
from repro.hardware.specs import MachineSpec, build_machine
from repro.kernel import Compute, DiskIO, Kernel, NetIO, Sleep
from repro.sim.engine import Simulator
from repro.sim.parallel import parallel_starmap


@dataclass(frozen=True)
class Microbenchmark:
    """One calibration workload: a profile plus optional I/O behaviour."""

    name: str
    profile: RateProfile
    #: Bytes of disk I/O issued per 1 ms compute burst (0 = none).
    disk_bytes_per_burst: float = 0.0
    #: Bytes of network I/O issued per 1 ms compute burst (0 = none).
    net_bytes_per_burst: float = 0.0

    def make_program(
        self,
        machine: Machine,
        busy_fraction: float,
        duration: float,
        start_offset: float = 0.0,
    ) -> Generator:
        """A program producing ``busy_fraction`` utilization for ``duration``.

        ``start_offset`` staggers concurrent workers so their I/O phases
        interleave instead of running in lockstep (keeping shared devices
        busy, as concurrent real workers would).
        """

        burst_seconds = 1e-3
        burst_cycles = machine.freq_hz * burst_seconds * busy_fraction
        idle_seconds = burst_seconds * (1.0 - busy_fraction)

        def program() -> Generator:
            if start_offset > 0:
                yield Sleep(start_offset)
            elapsed = 0.0
            while elapsed < duration:
                if burst_cycles > 0:
                    yield Compute(cycles=burst_cycles, profile=self.profile)
                if self.disk_bytes_per_burst > 0:
                    yield DiskIO(nbytes=self.disk_bytes_per_burst)
                if self.net_bytes_per_burst > 0:
                    yield NetIO(nbytes=self.net_bytes_per_burst)
                if idle_seconds > 0:
                    yield Sleep(idle_seconds)
                elapsed += burst_seconds

        return program()


def calibration_microbenchmarks() -> list[Microbenchmark]:
    """The Section 4.1 microbenchmark suite."""
    return [
        Microbenchmark("cpu-spin", RateProfile("cpu-spin", ipc=1.0)),
        Microbenchmark("high-instr", RateProfile("high-instr", ipc=2.5)),
        Microbenchmark(
            "high-float",
            RateProfile("high-float", ipc=1.8, flops_per_cycle=1.0),
        ),
        Microbenchmark(
            "high-cache",
            RateProfile("high-cache", ipc=0.8, cache_per_cycle=0.02),
        ),
        Microbenchmark(
            "high-mem",
            RateProfile(
                "high-mem", ipc=0.5, cache_per_cycle=0.012, mem_per_cycle=0.01
            ),
        ),
        Microbenchmark(
            "disk-io",
            RateProfile("disk-io", ipc=0.4),
            disk_bytes_per_burst=65536,
        ),
        Microbenchmark(
            "net-io",
            RateProfile("net-io", ipc=0.4),
            # Large transfers keep the NIC near-saturated at full load so
            # the calibration observes the metric's full range.
            net_bytes_per_burst=131072,
        ),
        Microbenchmark(
            "mixed",
            RateProfile(
                "mixed",
                ipc=1.4,
                flops_per_cycle=0.3,
                cache_per_cycle=0.008,
                mem_per_cycle=0.003,
            ),
            disk_bytes_per_burst=16384,
        ),
    ]


@dataclass
class CalibrationResult:
    """Calibration samples and fitted-model factory for one machine."""

    spec: MachineSpec
    #: Sample matrix over :data:`~repro.core.model.FEATURES_FULL`.
    samples: np.ndarray
    active_watts: np.ndarray
    idle_watts: float
    #: Maximum observed value of each metric (for the C*Mmax table).
    metric_max: dict[str, float]
    #: Package power measured on an idle machine (baseline for converting
    #: on-chip meter readings to active power); 0 when no package meter.
    package_idle_watts: float = 0.0

    def fit(self, features: tuple[str, ...], label: str = "") -> PowerModel:
        """Fit a model over a feature subset of the calibration samples."""
        indexes = [FEATURES_FULL.index(name) for name in features]
        return PowerModel.fit(
            self.samples[:, indexes],
            self.active_watts,
            features,
            idle_watts=self.idle_watts,
            label=label or f"{self.spec.name}:{'+'.join(features)}",
        )

    def cmax_table(self, features: tuple[str, ...] = FEATURES_FULL) -> dict[str, float]:
        """Paper-style ``C * Mmax`` table: max active-power impact per metric."""
        model = self.fit(features)
        return {
            name: model.coefficient(name) * self.metric_max.get(name, 0.0)
            for name in features
        }


def _run_calibration_point(
    spec: MachineSpec,
    bench: Microbenchmark,
    load: float,
    duration: float,
) -> tuple[np.ndarray, float]:
    """Run one (microbenchmark, load) point; return (metrics row, watts)."""
    sim = Simulator()
    machine = build_machine(spec, sim)
    kernel = Kernel(machine, sim)
    n_cores = machine.n_cores

    # Spread the load over cores: `full` fully-busy workers plus at most one
    # partially-busy worker, each pinned so utilization is deterministic.
    total_busy = load * n_cores
    full = int(total_busy + 1e-9)
    remainder = total_busy - full
    for core_index in range(full):
        kernel.spawn(
            bench.make_program(
                machine, 1.0, duration, start_offset=core_index * 0.37e-3
            ),
            f"{bench.name}-{core_index}",
            pinned_core=core_index,
        )
    if remainder > 1e-9:
        kernel.spawn(
            bench.make_program(machine, remainder, duration),
            f"{bench.name}-part",
            pinned_core=full,
        )

    # OS-visible chip/device busy fractions on a 0.1 ms grid.
    occupancy = OccupancyCounter(machine, 1e-4)

    start_energy = machine.integrator.active_joules
    start_counters = [core.counters.read() for core in machine.cores]
    sim.run_until(duration)
    machine.checkpoint()
    chipshare, mdisk, mnet = occupancy.take()

    elapsed_cycles = machine.freq_hz * duration
    totals = {
        "nonhalt": 0.0, "ins": 0.0, "flop": 0.0, "cache": 0.0, "mem": 0.0
    }
    for core, before in zip(machine.cores, start_counters):
        delta = core.counters.read().delta_from(before)
        totals["nonhalt"] += delta.nonhalt_cycles
        totals["ins"] += delta.instructions
        totals["flop"] += delta.flops
        totals["cache"] += delta.cache_refs
        totals["mem"] += delta.mem_trans

    row = np.array(
        [
            totals["nonhalt"] / elapsed_cycles,
            totals["ins"] / elapsed_cycles,
            totals["flop"] / elapsed_cycles,
            totals["cache"] / elapsed_cycles,
            totals["mem"] / elapsed_cycles,
            chipshare,
            mdisk,
            mnet,
        ]
    )
    watts = (machine.integrator.active_joules - start_energy) / duration
    return row, watts


def calibrate_machine(
    spec: MachineSpec,
    loads: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25),
    duration: float = 0.25,
    benchmarks: list[Microbenchmark] | None = None,
) -> CalibrationResult:
    """Run the full calibration suite on one machine model.

    Every (microbenchmark, load) point and the package-idle read is one
    task of :func:`~repro.sim.parallel.parallel_starmap` over
    ``resolve_jobs()`` workers; each is a self-contained seeded
    simulation, so the result is bit-identical at any worker count.
    """
    return _calibrate([spec], loads, duration, benchmarks, jobs=None)[0]


def calibrate_machines(
    specs: list[MachineSpec] | tuple[MachineSpec, ...],
    loads: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25),
    duration: float = 0.25,
    jobs: int | None = None,
) -> dict[str, CalibrationResult]:
    """Calibrate several machine models in one fan-out over their points.

    Returns ``{spec.name: CalibrationResult}`` in the order given.  Every
    machine's points are flattened into one task list, so the workers stay
    busy until the last point of the heaviest machine; results are
    identical to calling :func:`calibrate_machine` in a loop.
    """
    specs = list(specs)
    results = _calibrate(specs, loads, duration, None, jobs=jobs)
    return {spec.name: result for spec, result in zip(specs, results)}


def _calibrate(
    specs: list[MachineSpec],
    loads: tuple[float, ...],
    duration: float,
    benchmarks: list[Microbenchmark] | None,
    jobs: int | None,
) -> list[CalibrationResult]:
    """Calibrate ``specs`` with every point of every spec one task.

    The package-idle reads go after every spec's points, so each spec's
    points start at a multiple of their count: with one read per spec in
    between (33 tasks a spec), the snake deal gave one chunk both the
    100% and 75% points of every Westmere microbenchmark.
    """
    benches = benchmarks if benchmarks is not None else calibration_microbenchmarks()
    tasks = [
        (_run_calibration_point, spec, bench, load, duration)
        for spec in specs
        for bench in benches
        for load in loads
    ]
    tasks += [(_measure_package_idle, spec) for spec in specs]
    outputs = parallel_starmap(lambda task, *args: task(*args), tasks, jobs=jobs)
    per_spec = len(benches) * len(loads)
    package_idles = outputs[len(specs) * per_spec:]
    results = []
    for index, spec in enumerate(specs):
        points = outputs[index * per_spec:(index + 1) * per_spec]
        package_idle = package_idles[index]
        samples = np.vstack([row for row, _watts in points])
        results.append(CalibrationResult(
            spec=spec,
            samples=samples,
            active_watts=np.array([watts for _row, watts in points]),
            idle_watts=spec.true_model.idle_machine_watts,
            metric_max={
                name: float(samples[:, i].max())
                for i, name in enumerate(FEATURES_FULL)
            },
            package_idle_watts=package_idle,
        ))
    return results


def _measure_package_idle(spec: MachineSpec, duration: float = 0.05) -> float:
    """Read the on-chip meter on an idle machine (calibration baseline)."""
    if not spec.has_package_meter:
        return 0.0
    from repro.hardware.meters import PackageMeter

    sim = Simulator()
    machine = build_machine(spec, sim)
    meter = PackageMeter(machine, sim, period=1e-3, delay=0.0)
    meter.start()
    sim.run_until(duration)
    return meter.mean_watts()
