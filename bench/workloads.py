"""The benchmark's workloads: build a world, run it in timed steps, check it.

Two single-machine worlds separate the paper's fine-grained alignment path
from one that skips it, and two sharded-cluster worlds separate the
steady coordinator/transport path from the telemetry and defer/shed path.
Load is generated inside the simulation (Poisson arrivals in simulated
time, an open loop), so host speed never changes what is simulated: every
run of one seed yields the same fingerprint, and only host time and
memory can move between commits.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace


def host_nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def host_workers() -> int:
    """Fork workers for the cluster workloads: ``min(2, nproc)``."""
    return min(2, host_nproc())


@dataclass
class Outcome:
    """What one run produced, reduced to what the benchmark checks."""

    n_requests: int
    completed: int
    shed: int
    unfinished: int
    fingerprint: str
    attr_err_pct: float
    #: Work counts the per-layer report divides by (simulated events,
    #: placements, transport frames, ...); all deterministic.
    counters: dict[str, float] = field(default_factory=dict)

    def closure_error(self) -> str | None:
        """Why request closure broke, or ``None`` when every arrival is
        accounted for as completed, shed or unfinished."""
        total = self.completed + self.shed + self.unfinished
        if self.n_requests != total:
            return (
                f"request closure broken: {self.n_requests} arrivals != "
                f"{self.completed} completed + {self.shed} shed + "
                f"{self.unfinished} unfinished"
            )
        return None


@dataclass(frozen=True)
class MachineWorkload:
    """One open-loop workload on one simulated machine with its meter.

    One step is ``step`` simulated seconds; a run is ``steps`` of them.
    Stepping is invisible to the simulation: a stepped run reproduces the
    one-shot ``run_workload`` bit for bit.
    """

    name: str
    spec: str
    workload: str
    step: float
    steps: int
    default_seed: int
    fingerprint: str
    quick_fingerprint: str
    load_fraction: float = 0.6
    kind: str = "machine"

    def quick(self) -> "MachineWorkload":
        """The same world at a tenth of the length."""
        return replace(self, steps=max(1, self.steps // 10),
                       fingerprint=self.quick_fingerprint)

    def setup(self, seed: int, workers: int):
        """Calibrate the machine and build the world (clock at zero)."""
        from repro.core import calibrate_machine
        from repro.hardware.specs import spec_by_name
        from repro.workloads import prepare_workload

        spec = spec_by_name(self.spec)
        calibration = calibrate_machine(spec)
        return prepare_workload(
            self.make_workload(), spec, calibration,
            load_fraction=self.load_fraction,
            duration=self.steps * self.step, warmup=0.0, seed=seed,
        )

    def make_workload(self):
        from repro.workloads import workload_by_name

        return workload_by_name(self.workload)

    def run(self, live, clock) -> Outcome:
        """Advance ``live`` step by step, ticking ``clock`` between steps."""
        simulator = live.simulator
        clock.tick()
        for index in range(1, self.steps + 1):
            simulator.run_until(index * self.step)
            clock.tick()
        run = live.finish()
        return machine_outcome(run, live.driver.snapshot_state())


def machine_outcome(run, driver_state: dict) -> Outcome:
    """Fingerprint and check a finished single-machine run.

    The fingerprint hashes the request count, every request's
    primary-approach energy and response time, and the machine's
    ground-truth active energy -- the determinism gate's inputs.
    """
    facility = run.facility
    primary = facility.primary
    results = run.driver.results
    active = run.machine.integrator.active_joules
    digest = hashlib.sha256()
    digest.update(f"n={len(results)}\n".encode())
    for result in results:
        digest.update(
            f"{result.energy(primary)!r}:{result.response_time!r}\n".encode()
        )
    digest.update(f"active={active!r}\n".encode())
    attributed = facility.registry.total_energy(primary)
    return Outcome(
        n_requests=driver_state["next_request_id"],
        completed=len(results),
        shed=0,
        unfinished=len(run.driver.inflight),
        fingerprint=digest.hexdigest(),
        attr_err_pct=100.0 * abs(attributed - active) / active,
        counters={"sim.events": float(facility.simulator.events_processed)},
    )


@dataclass(frozen=True)
class ClusterWorkload:
    """One named sharded-cluster scenario, one step per epoch barrier.

    The pool forks its workers inside the run, so worker start-up counts
    as run time, not set-up.  Results do not depend on the worker count.
    """

    name: str
    scenario: str
    n_machines: int
    n_shards: int
    duration: float
    telemetry: str
    default_seed: int
    fingerprint: str
    quick_fingerprint: str
    #: ShardRunConfig fields set on top of the scenario's own.
    overrides: tuple[tuple[str, object], ...] = ()
    kind: str = "cluster"

    def quick(self) -> "ClusterWorkload":
        """The same world at a tenth of the length."""
        return replace(self, duration=self.duration / 10,
                       fingerprint=self.quick_fingerprint)

    def config(self, seed: int, workers: int):
        """The scenario's ``ShardRunConfig`` with this workload's fields."""
        from repro.shard import SCENARIOS

        config = SCENARIOS[self.scenario](
            n_shards=self.n_shards, workers=workers, seed=seed,
            n_machines=self.n_machines, duration=self.duration,
        )
        return replace(config, telemetry=self.telemetry, **dict(self.overrides))

    def setup(self, seed: int, workers: int):
        """Calibrate every machine model and build the coordinator."""
        from repro.core import calibrate_machine
        from repro.hardware.specs import spec_by_name
        from repro.shard import ShardedClusterRun

        config = self.config(seed, workers)
        spec_names = sorted({spec for _name, spec in config.machine_table()})
        calibrations = {
            name: calibrate_machine(spec_by_name(name)) for name in spec_names
        }
        return ShardedClusterRun(config, calibrations)

    def run(self, world, clock) -> Outcome:
        """Run every epoch, ticking ``clock`` at each barrier.

        The pool hook fires before each epoch, so the gaps between hook
        calls time whole epochs.  The last epoch ends inside the pool's
        shutdown and is left out of the step samples.
        """
        pools = []

        def hook(pool, _epoch_index):
            clock.tick()
            if not pools:
                pools.append(pool)

        result = world.run(pool_hook=hook)
        summaries = pools[0].snapshot_history()["summaries"]
        attributed = sum(row[2] for row in result.machine_rows)
        measured = sum(row[3] for row in result.machine_rows)
        stats = result.transport_stats
        return Outcome(
            n_requests=result.n_requests,
            completed=result.completed,
            shed=result.shed,
            unfinished=result.unfinished,
            fingerprint=result.fingerprint(),
            attr_err_pct=100.0 * abs(attributed - measured) / measured,
            counters={
                "sim.events": float(sum(
                    summary["events"] for summary in summaries.values()
                )),
                "shard.scheduler.placements":
                    result.scheduler_stats["placed"],
                "shard.transport.frames": float(stats.get("data_sent", 0)),
                "shard.transport.retransmits":
                    float(stats.get("retransmits", 0)),
                "telemetry.frames": float(
                    result.telemetry_summary.get("frames_merged", 0)
                ),
            },
        )


#: Fingerprints are world 0's on the default seed, at full and at
#: ``--quick`` length.  Only a change meant to alter simulated results
#: may re-record them.
WORKLOADS = {
    workload.name: workload
    for workload in (
        MachineWorkload(
            name="solr-pkgmeter", spec="sandybridge", workload="solr",
            step=0.25, steps=80, default_seed=7,
            fingerprint="cf9ac6a1ea1b86cc0a1d70792c1fcab3"
                        "a423ab556131ae01a835495f0d04abaf",
            quick_fingerprint="dcdc77fe38b1c9a5118613090f447c07"
                              "61730fc889e64b54dd4d5a0a264e9833",
        ),
        MachineWorkload(
            name="rsa-wallmeter", spec="woodcrest", workload="rsa-crypto",
            step=1.0, steps=60, default_seed=7,
            fingerprint="89287f3c3eb99d57ab0c35dfcc81839d"
                        "f5a2a214f14a3ccc9d20181f6d59a4b6",
            quick_fingerprint="58379411efb7a817260d52f0870b3e5f"
                              "68a6a4a7e1c31cd0a3082a1fed2d031e",
        ),
        ClusterWorkload(
            name="cluster-steady", scenario="solr", n_machines=6,
            n_shards=4, duration=10.0, telemetry="off", default_seed=42,
            fingerprint="909ef5738ea2227fdf0aab33adbcff61"
                        "08b3b3b39e28bd9081943ab612e7cf83",
            quick_fingerprint="73852b6a5964a6486f1608419f982f08"
                              "201c479a0012c08af92d6c97b5c2ae80",
        ),
        # The scale scenario's diurnal day, flash crowd and five crashes,
        # compressed into 3.5 s on two tight racks of two machines; the
        # shorter epoch gives enough barriers per run for a p90.  Epochs
        # stay binary fractions: barrier times are sums of epochs.
        ClusterWorkload(
            name="cluster-flash", scenario="flash", n_machines=4,
            n_shards=4, duration=3.5, telemetry="on", default_seed=2013,
            fingerprint="b2a1d09e881bb0b829d9e8728c20ef40"
                        "9a8625d0d28f7aa000c26db978d09996",
            quick_fingerprint="fa3bb506835344c934864041003f5ab5"
                              "39d1226d8d980db03a02e1749aec6ff4",
            overrides=(("epoch", 0.125), ("diurnal_period", 3.5),
                       ("flash_start", 1.75), ("flash_duration", 0.5),
                       ("rack_size", 2)),
        ),
    )
}
