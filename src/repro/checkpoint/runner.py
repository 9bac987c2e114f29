"""Replay-verified checkpointed runs: periodic snapshots, bit-exact resume.

The simulation world is full of live generator frames (request programs),
closures (scheduled callbacks), and cross-references (containers inside
in-flight messages) that cannot be pickled.  Instead of serializing them,
a :class:`CheckpointedRun` exploits the engine's determinism:

* **Safe-points** are auto-checkpoint events scheduled on the simulated
  clock at ``k * checkpoint_period`` for ``k = 1..N`` -- between events by
  construction, identically placed in every run of the same config.
* **Saving** (the original run): at tick ``k``, every stateful layer's
  ``snapshot_state()`` is collected into one plain-data tree and written
  atomically by :class:`~repro.checkpoint.manager.CheckpointManager`.
* **Resuming** (a fresh process) is *replay, verify, continue*: the world
  is rebuilt from the persisted :class:`RunConfig` and *replayed from t=0*
  with the identical tick schedule.  At the checkpointed tick the replayed
  layers are snapshotted again and verified **bit-for-bit** against the
  checkpoint by :func:`~repro.checkpoint.state.verify_replay`
  (:class:`~repro.checkpoint.state.RestoreMismatchError` carries a
  field-level diff on divergence).  Nothing is restored: a
  verified replay already holds exactly the checkpointed state, so the run
  simply continues, saving ticks ``k+1...`` as the original would have.
  A layer therefore needs only ``snapshot_state()``.

The resumed run therefore finishes with exactly the event sequence, RNG
cursors, and accumulator bits of an uninterrupted run -- which
:meth:`CheckpointedRun.run` proves by returning the four fingerprints
(report, trace, shed, batch) the CI restore lane compares.

With ``checkpoint_period=None`` nothing is scheduled and nothing is
snapshotted: the disabled mode is the plain run, with zero added events.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.state import RestoreMismatchError, verify_replay

__all__ = [
    "RunConfig",
    "CheckpointedRun",
    "run_checkpointed",
    "resume_checkpointed",
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to rebuild a checkpointable world from scratch.

    ``kind`` selects the world: ``"solr"`` is the macro workload used by
    the determinism gate (same parameters as ``ci/determinism.py``);
    ``"chaos"`` runs the named fault scenario through the chaos harness.
    """

    kind: str = "solr"
    seed: int = 7
    duration: float = 1.5
    warmup: float = 0.2
    load_fraction: float = 0.6
    cal_duration: float = 0.1
    scenario: str = "meter-nan-burst"
    duration_scale: float = 1.0
    checkpoint_period: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("solr", "chaos"):
            raise ValueError(f"unknown run kind {self.kind!r}")
        if self.checkpoint_period is not None and self.checkpoint_period <= 0:
            raise ValueError("checkpoint period must be positive")

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "duration": self.duration,
            "warmup": self.warmup,
            "load_fraction": self.load_fraction,
            "cal_duration": self.cal_duration,
            "scenario": self.scenario,
            "duration_scale": self.duration_scale,
            "checkpoint_period": self.checkpoint_period,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunConfig":
        missing = {f for f in cls.__dataclass_fields__} - set(payload)
        if missing:
            raise ValueError(
                f"checkpoint config missing fields {sorted(missing)}"
            )
        return cls(**{f: payload[f] for f in cls.__dataclass_fields__})


class CheckpointedRun:
    """One world, built from a :class:`RunConfig`, run under checkpointing.

    ``on_checkpoint(index)`` fires after each checkpoint file is durably on
    disk -- the crash harness uses it to SIGKILL the process at a chosen
    epoch, guaranteeing the kill happens *after* a complete checkpoint.
    """

    def __init__(
        self,
        config: RunConfig,
        directory: Optional[str] = None,
        on_checkpoint: Optional[Callable[[int], None]] = None,
        keep: int = 4,
        _resume_body: Optional[dict] = None,
    ) -> None:
        from repro.telemetry.tracer import Telemetry

        self.config = config
        self.manager = (
            CheckpointManager(directory, keep=keep)
            if directory is not None
            else None
        )
        self.on_checkpoint = on_checkpoint
        self._resume_index = (
            _resume_body["index"] if _resume_body is not None else None
        )
        self._resume_layers = (
            _resume_body["layers"] if _resume_body is not None else None
        )
        self.resumed = False
        self.telemetry = Telemetry()
        self.layers: dict[str, object] = {}
        if config.kind == "solr":
            self._build_solr()
        else:
            self._build_chaos()
        self._schedule_checkpoints()

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------
    def _build_solr(self) -> None:
        from repro.core import calibrate_machine
        from repro.hardware import SANDYBRIDGE
        from repro.workloads import SolrWorkload, prepare_workload

        config = self.config
        self.calibration = calibrate_machine(
            SANDYBRIDGE, duration=config.cal_duration
        )
        live = prepare_workload(
            SolrWorkload(),
            SANDYBRIDGE,
            self.calibration,
            config.load_fraction,
            duration=config.duration,
            warmup=config.warmup,
            seed=config.seed,
            facility_kwargs={"telemetry": self.telemetry},
        )
        self._live = live
        self.simulator = live.simulator
        self._end = config.duration
        self.layers = {
            "sim": live.simulator,
            "hub": live.hub,
            "machine": live.machine,
            "kernel": live.kernel,
            "facility": live.facility,
            "driver": live.driver,
            "run": live,
            "telemetry": self.telemetry,
        }

    def _build_chaos(self) -> None:
        from repro.faults import (
            OverloadWorld,
            SingleMachineWorld,
            prepare_scenario,
            scenario_by_name,
        )

        config = self.config
        scenario = scenario_by_name(config.scenario)
        live = prepare_scenario(
            scenario,
            config.seed,
            duration_scale=config.duration_scale,
            telemetry=self.telemetry,
        )
        self._live = live
        world = live.world
        self.simulator = world.simulator
        self._end = live.duration
        layers: dict[str, object] = {
            "sim": world.simulator,
            "hub": world.hub,
        }
        if isinstance(world, SingleMachineWorld):
            layers.update(
                machine=world.machine,
                kernel=world.kernel,
                facility=world.facility,
                driver=world.driver,
            )
        else:
            for member in world.cluster.machines:
                layers[f"machine:{member.name}"] = member.machine
                layers[f"kernel:{member.name}"] = member.kernel
                layers[f"facility:{member.name}"] = member.facility
                layers[f"member:{member.name}"] = member
            layers["dispatcher"] = world.dispatcher
            if isinstance(world, OverloadWorld):
                layers["protector"] = world.protector
                layers["enforcer"] = world.enforcer
        layers["targets"] = world.targets
        layers["plan"] = live.plan
        layers["telemetry"] = self.telemetry
        self.layers = layers

    # ------------------------------------------------------------------
    # Auto-checkpoint safe-points
    # ------------------------------------------------------------------
    def _schedule_checkpoints(self) -> None:
        period = self.config.checkpoint_period
        if period is None:
            return
        index = 1
        while index * period < self._end - 1e-12:
            self.simulator.schedule_at(
                index * period,
                self._tick,
                index,
                label=f"auto-checkpoint-{index}",
            )
            index += 1

    def _collect(self) -> dict:
        return {name: layer.snapshot_state() for name, layer in self.layers.items()}

    def _tick(self, index: int) -> None:
        if self._resume_index is not None and not self.resumed:
            if index < self._resume_index:
                # Replaying toward the checkpointed safe-point: the original
                # run already wrote these files; rewriting identical bytes
                # would only churn the directory.
                return
            verify_replay(
                self._resume_layers,
                self._collect(),
                f"checkpoint {index} at t={self.simulator.now!r}",
            )
            # Every layer already holds exactly the checkpointed values, so
            # the verified replay simply continues from here.
            self.resumed = True
            return
        snapshot = self._collect()
        if self.manager is not None:
            self.manager.save(
                index, self.simulator.now, self.config.to_payload(), snapshot
            )
            if self.on_checkpoint is not None:
                self.on_checkpoint(index)

    # ------------------------------------------------------------------
    # Driving and fingerprinting
    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Run to the end; return the four comparison fingerprints."""
        if self.config.kind == "solr":
            result = self._live.finish()
            fingerprints = self._solr_fingerprints(result)
        else:
            from repro.faults import finalize_scenario

            self.simulator.run_until(self._end)
            report = finalize_scenario(self._live)
            fingerprints = self._chaos_fingerprints(report)
        if self._resume_index is not None and not self.resumed:
            raise RestoreMismatchError(
                f"run finished without reaching checkpoint tick "
                f"{self._resume_index}; checkpoint and config disagree"
            )
        fingerprints["resumed"] = self.resumed
        fingerprints["sim_time"] = self.simulator.now
        return fingerprints

    def _solr_fingerprints(self, result) -> dict:
        primary = result.facility.primary
        report = {
            "coefficients": tuple(
                (name, float(watts))
                for name, watts in sorted(
                    self.calibration.cmax_table().items()
                )
            ),
            "idle_watts": self.calibration.idle_watts,
            "n_requests": len(result.driver.results),
            "energies": tuple(
                r.energy(primary) for r in result.driver.results
            ),
            "response_times": tuple(
                r.response_time for r in result.driver.results
            ),
            "measured_joules": result.measured_active_joules,
        }
        rendered = "\n".join(f"{k}={report[k]!r}" for k in sorted(report))
        return {
            "kind": "solr",
            "report": _digest(rendered),
            "trace": self.telemetry.trace_fingerprint(),
            "shed": "-",
            "batch": _digest(
                "\n".join(self._batch_lines(result.facility))
            ),
            "n_requests": report["n_requests"],
        }

    def _chaos_fingerprints(self, report) -> dict:
        from repro.faults import OverloadWorld, SingleMachineWorld

        world = self._live.world
        if isinstance(world, SingleMachineWorld):
            batch_lines = self._batch_lines(world.facility)
        else:
            batch_lines = []
            for member in world.cluster.machines:
                batch_lines.extend(
                    f"{member.name}|{line}"
                    for line in self._batch_lines(member.facility)
                )
        shed = (
            world.protector.shed_fingerprint()
            if isinstance(world, OverloadWorld)
            else "-"
        )
        return {
            "kind": "chaos",
            "scenario": report.scenario,
            "report": _digest(report.fingerprint()),
            "trace": self.telemetry.trace_fingerprint(),
            "shed": shed,
            "batch": _digest("\n".join(batch_lines)),
            "passed": report.passed,
        }

    @staticmethod
    def _batch_lines(facility) -> list[str]:
        """Post-flush per-container accounting state, canonically rendered."""
        primary = facility.primary
        containers = sorted(
            facility.registry.all_containers(), key=lambda c: c.id
        )
        return [
            f"{c.id}:{c.label}:{c.total_energy(primary)!r}:"
            f"{c.stats.sample_count}"
            for c in containers
        ]


def run_checkpointed(
    config: RunConfig,
    directory: Optional[str] = None,
    on_checkpoint: Optional[Callable[[int], None]] = None,
) -> dict:
    """One-shot checkpointed run; returns the fingerprint dict."""
    return CheckpointedRun(
        config, directory=directory, on_checkpoint=on_checkpoint
    ).run()


def resume_checkpointed(
    directory: str,
    on_checkpoint: Optional[Callable[[int], None]] = None,
) -> dict:
    """Resume from the newest checkpoint in ``directory`` and run to the end.

    Loads (and fully validates) the latest checkpoint, rebuilds the world
    from its persisted config, replays to the checkpointed safe-point,
    verifies bit-for-bit, and finishes the run.
    """
    manager = CheckpointManager(directory)
    body = manager.load_latest()
    config = RunConfig.from_payload(body["config"])
    run = CheckpointedRun(
        config,
        directory=directory,
        on_checkpoint=on_checkpoint,
        _resume_body=body,
    )
    return run.run()
