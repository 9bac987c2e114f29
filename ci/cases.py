"""Every fingerprint comparison the CI lanes make, as one table of cases.

The whole reproduction rests on the simulator's promise that a given seed
and schedule replay exactly (``repro.sim.engine``).  Accidental
nondeterminism -- dict-ordering dependence, hidden global state, float
accumulation-order changes -- would silently invalidate every paper figure
while all shape-asserting tests still pass.  So the gates run each world
more than one way -- twice with the same seed, with telemetry on and off,
on 1, 2 and 4 shards, under transport weather, SIGKILLed and
resumed, before and after the perf suite -- and demand identical
fingerprints.  Floats are compared with ``==``: the runs must be
*identical*, not merely close.

A :class:`Case` is one such comparison: a reference runner, named variant
runners, the fingerprint keys every variant must reproduce, and an
optional fact check for what equality cannot show (faults actually fired,
a resume actually restored).
:func:`compare` turns a case into findings; :func:`case_table` lists every
case, and each lane in ``ci.runner`` runs its own rows.

Runners import ``repro`` when called, so this module stays stdlib-only.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ci.report import Finding
from ci.runner import run_json

#: Short but non-trivial: long enough to exercise scheduling, sockets,
#: meters, recalibration, and tens of requests.
_CAL_DURATION = 0.1
_RUN_DURATION = 1.5

#: The seeded Solr run's fingerprint (see :func:`solr_gate`).
SOLR_KEYS = (
    "coefficients", "idle_watts", "n_requests", "energies",
    "response_times", "measured_joules",
)

#: Chaos scenarios double-run by the determinism gate: one metered
#: single-machine scenario (meter faults + guards), the cluster
#: crash/failover path, and the overload world (the shed set and brownout
#: ladder must replay -- ``shed_fingerprint`` and every ``powercap_*``
#: counter are in the report).
CHAOS_SCENARIOS = ("meter-nan-burst", "cluster-crash", "arrival-storm")
CHAOS_SEED = 42

#: Brownout scenarios double-run by the overload lane.
OVERLOAD_SCENARIOS = ("arrival-storm", "cap-squeeze", "storm-during-crash")

#: The seeded flush-tick run's fingerprint (see :func:`_flush_fingerprint`).
FLUSH_KEYS = ("flush_charged", "flush_energies", "flush_samples")

#: Every field of a calibration (see :func:`calibration_fingerprint`).
CALIBRATION_KEYS = ("samples", "active_watts", "metric_max",
                    "package_idle_watts")

#: Fingerprint keys every resumed single-machine run must reproduce.
RESTORE_KEYS = ("report", "trace", "shed", "batch")

#: Fingerprint keys every sharded run must reproduce bit-for-bit.
SHARD_KEYS = ("report", "shed", "batch", "energy")

#: A sharded run's merged observability digests (telemetry on).
TELEMETRY_KEYS = ("trace_fingerprint", "alert_fingerprint", "store_fingerprint")

#: The telemetry lane's flash world: four machines through the flash
#: scenario's five crashes (failovers leave energy-timeline windows open
#: on dead machines) and, from t = 3 s, its flash crowd (alerts fire).
#: The merged tracer keeps the whole run (about 72k events), so the
#: overflow closure check reads every ``overflows`` counter.
TELEMETRY_FLASH = {"n_machines": 4, "duration": 3.5, "telemetry": "on",
                   "telemetry_capacity": 1 << 17}

#: Restore-lane crash drills: (name, ``repro run-ckpt`` arguments,
#: checkpoint index to SIGKILL after).  One Solr macro run and one chaos
#: scenario, both short enough for the merge gate but long enough to
#: cross several auto-checkpoint safe-points.
RESTORE_CASES = (
    ("solr", ["--kind", "solr", "--duration", "0.6", "--warmup", "0.1",
              "--period", "0.2"], 1),
    ("chaos", ["--kind", "chaos", "--scenario", "meter-nan-burst",
               "--duration-scale", "0.5", "--period", "0.3"], 1),
    # Checkpoint 3 is taken while the meter is stale (mid-outage), so the
    # SIGKILL/resume path must reproduce the watchdog's demotion by replay.
    ("chaos-stale", ["--kind", "chaos", "--scenario", "meter-flapping",
                     "--duration-scale", "1.0", "--period", "0.2"], 3),
)

#: Shard counts whose fingerprints must be identical in the shard lane.
SHARD_COUNTS = (1, 2, 4)

#: Transport-lane worlds and their durations (kept affordable).
TRANSPORT_DURATIONS = {"solr": 0.75, "chaos": 1.0}



@dataclass(frozen=True)
class Case:
    """One comparison: every variant must equal the reference on ``keys``.

    Runners take no arguments and return a dict of fingerprints (plus any
    facts the ``check`` reads).  ``check`` sees every output by name --
    ``"reference"`` or the variant's -- and returns problem strings.
    """

    lane: str
    name: str
    reference: Callable[[], dict]
    variants: dict[str, Callable[[], dict]]
    keys: tuple[str, ...]
    check: Callable[[dict], list[str]] | None = None


class CaseFailed(Exception):
    """A runner could not produce its fingerprints at all."""


def _finding(code: str, message: str) -> Finding:
    return Finding("ci/cases.py", 1, code, message)


def compare(case: Case, runs: dict | None = None) -> list[Finding]:
    """Run ``case`` and return its findings (empty = pass).

    The reference runs first, then each variant in order, so a variant
    may read what an earlier one left behind (a resume reads the
    checkpoints of the run it resumes).  ``runs``, when given, receives
    every output by name so a lane's other steps can reuse a run.
    """
    runs = {} if runs is None else runs
    where = f"{case.lane}/{case.name}"
    findings = []
    for name, runner in (("reference", case.reference),
                         *case.variants.items()):
        try:
            runs[name] = runner()
        except CaseFailed as exc:
            findings.append(_finding("FAIL", f"{where}: {name}: {exc}"))
            if name == "reference":
                return findings
    want = runs["reference"]
    for variant in case.variants:
        got = runs.get(variant)
        if got is None:
            continue
        for key in case.keys:
            if got[key] != want[key]:
                findings.append(_finding(
                    "DIFF",
                    f"{where}: {variant} {key} differs from the reference "
                    f"({got[key]!r:.80} vs {want[key]!r:.80})",
                ))
    if case.check is not None and len(runs) == 1 + len(case.variants):
        findings.extend(
            _finding("FACT", f"{where}: {problem}")
            for problem in case.check(runs)
        )
    return findings


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------
def solr_gate(facility_kwargs=None) -> dict:
    """Calibrate SANDYBRIDGE and run a short seeded Solr workload."""
    from repro.core import calibrate_machine
    from repro.hardware import SANDYBRIDGE
    from repro.workloads import SolrWorkload, run_workload

    calibration = calibrate_machine(SANDYBRIDGE, duration=_CAL_DURATION)
    run = run_workload(
        SolrWorkload(), SANDYBRIDGE, calibration,
        load_fraction=0.6, duration=_RUN_DURATION, warmup=0.2, seed=7,
        facility_kwargs=facility_kwargs,
    )
    primary = run.facility.primary
    return {
        "coefficients": tuple(
            (name, float(watts))
            for name, watts in sorted(calibration.cmax_table().items())
        ),
        "idle_watts": calibration.idle_watts,
        "n_requests": len(run.driver.results),
        "energies": tuple(r.energy(primary) for r in run.driver.results),
        "response_times": tuple(r.response_time for r in run.driver.results),
        "measured_joules": run.measured_active_joules,
    }


def calibration_fingerprint(jobs: int, duration: float = _CAL_DURATION) -> dict:
    """Every field of all three machine models' calibrations, calibrated
    in one fan-out over ``jobs`` workers (the samples as raw bytes)."""
    from repro.core import calibrate_machines
    from repro.hardware.specs import ALL_SPECS

    results = calibrate_machines(ALL_SPECS, duration=duration, jobs=jobs)
    results = list(results.values())
    return {
        "samples": tuple(
            (result.samples.shape, result.samples.tobytes())
            for result in results
        ),
        "active_watts": tuple(
            result.active_watts.tobytes() for result in results
        ),
        "metric_max": tuple(
            tuple(sorted(result.metric_max.items())) for result in results
        ),
        "package_idle_watts": tuple(
            result.package_idle_watts for result in results
        ),
    }


def _solr_gate_traced() -> dict:
    from repro.telemetry import Telemetry

    return solr_gate(facility_kwargs={"telemetry": Telemetry()})


def _perf_suite_then_solr_gate() -> dict:
    """The whole perf suite, then :func:`solr_gate`: a benchmark that
    leaks global state (or changes attribution math) shows up here."""
    from ci.perf import run_suite

    suite = run_suite()
    return {**solr_gate(), "suite": suite}


def _chaos(name: str, telemetry=None) -> dict:
    from repro.faults import run_scenario, scenario_by_name

    report = run_scenario(
        scenario_by_name(name), seed=CHAOS_SEED, telemetry=telemetry,
    )
    return {"report": report.fingerprint(), "violations": report.violations}


def _chaos_telemetry(name: str) -> dict:
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    run = _chaos(name, telemetry)
    run["trace"] = telemetry.trace_fingerprint()
    return run


def _flush_fingerprint() -> dict:
    """Seeded run of whole-machine ``Facility.flush`` accounting ticks
    interleaved with simulated execution, fingerprinted per container.

    The per-event path is already covered by :func:`solr_gate`; this
    samples every core at one off-grid instant, in ascending core index,
    the way every run ends, so an order or accumulation change in the
    flush path fails the gate even though no workload flushes mid-run.
    """
    from repro.core import PowerContainerFacility, calibrate_machine
    from repro.hardware import RateProfile, SANDYBRIDGE, build_machine
    from repro.kernel import Compute, Kernel
    from repro.sim import Simulator

    calibration = calibrate_machine(SANDYBRIDGE, duration=_CAL_DURATION)
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, calibration)
    spin = RateProfile(name="det-spin", ipc=1.1)
    containers = []
    for index in range(len(machine.cores)):
        container = facility.create_request_container(f"det-{index}")
        containers.append(container)

        def program():
            yield Compute(cycles=machine.freq_hz * 0.05, profile=spin)

        kernel.spawn(
            program(), f"det-spin-{index}", container_id=container.id,
            pinned_core=index,
        )
    accountants = facility.accountants.values()
    charged = 0
    now = 0.0
    # Off the facility's 1 ms OS-tick grid, so the flush sees real open
    # intervals instead of already-sampled (dt == 0) ones.
    for _ in range(40):
        now += 1.37e-3
        sim.run_until(now)
        before = sum(a.samples_taken for a in accountants)
        facility.flush()
        charged += sum(a.samples_taken for a in accountants) - before
    primary = facility.primary
    return {
        "flush_charged": charged,
        "flush_energies": tuple(c.energy(primary) for c in containers),
        "flush_samples": tuple(
            c.stats.sample_count for c in containers
        ),
    }


def _checkpointed_solr(directory: str) -> dict:
    """A shortened Solr run crossing two auto-checkpoint safe-points.

    The restore lane covers the cross-process SIGKILL path; this
    in-process run pins that collecting snapshots is invisible to the run.
    """
    from repro.checkpoint import RunConfig, run_checkpointed

    config = RunConfig(
        kind="solr", seed=7, duration=0.6, warmup=0.1, load_fraction=0.6,
        cal_duration=_CAL_DURATION, checkpoint_period=0.2,
    )
    return run_checkpointed(config, directory=directory)


def _resumed_solr(directory: str) -> dict:
    """Replay from t=0, verify every layer against the newest checkpoint
    bit-for-bit, continue with no restore step."""
    from repro.checkpoint import resume_checkpointed

    return resume_checkpointed(directory)


def _shard_output(result) -> dict:
    return {
        **result.fingerprints,
        **result.telemetry_summary,
        "resumed": result.resumed,
        "worker_restarts": result.worker_restarts,
        "transport": result.transport_stats,
        "result": result,
    }


def _sharded(world: str, **kwargs) -> dict:
    from repro.shard import run_scenario

    return _shard_output(run_scenario(world, **kwargs))


#: The in-process sharded resume world: telemetry on, so the replayed
#: aggregator, registry, store and detector state is gated too.
_SHARD_RESUME = {"n_shards": 2, "duration": 0.75, "telemetry": "on"}


def _sharded_checkpointed(directory: str) -> dict:
    from repro.shard import ShardCheckpointPolicy

    return _sharded(
        "chaos", checkpoint=ShardCheckpointPolicy(directory=directory, every=1),
        **_SHARD_RESUME,
    )


def _sharded_resumed(directory: str) -> dict:
    """Resume from the *oldest* retained barrier checkpoint, not the
    newest: replay, verify, and continue onto identical fingerprints."""
    from repro.checkpoint import CheckpointManager
    from repro.shard import resume_sharded

    earliest = min(CheckpointManager(directory).indices())
    return _shard_output(resume_sharded(directory, index=earliest))


def _sharded_worker_kill() -> dict:
    """Chaos on two fork workers, one SIGKILLed mid-run: the pool must
    replay the dead worker's shards from directive history."""
    killed = []

    def kill_hook(pool, epoch_index):
        if epoch_index == 2 and pool.parallel and not killed:
            pool.kill_worker(0)
            killed.append(epoch_index)

    run = _sharded("chaos", n_shards=4, workers=2, pool_hook=kill_hook)
    run["killed"] = bool(killed)  # False where fork is unavailable
    return run


def _cli(argv: list[str], what: str) -> dict:
    _, payload = run_json(argv)
    if payload is None:
        raise CaseFailed(f"{what} failed")
    return payload


def _cli_crash_then_resume(crash: list[str], resume: list[str]) -> dict:
    """Run ``crash`` (which SIGKILLs itself after a durable checkpoint),
    then ``resume``; returns the resumed run's payload."""
    crashed, _ = run_json(crash)
    if crashed.returncode != -signal.SIGKILL:
        raise CaseFailed(
            f"crash run exited {crashed.returncode}, expected SIGKILL"
        )
    return _cli(resume, "resume after SIGKILL")


# ---------------------------------------------------------------------------
# Fact checks
# ---------------------------------------------------------------------------
def _resumed(runs: dict) -> list[str]:
    if runs["resumed"].get("resumed"):
        return []
    return ["resumed: never restored from a checkpoint"]


def _no_violations(runs: dict) -> list[str]:
    return [f"reference: {v}" for v in runs["reference"]["violations"]]


def _overflows_closed(runs: dict) -> list[str]:
    """Every counter-overflow interrupt is counted exactly once: the
    merged per-window ``overflows`` counters sum to the merged registry's
    ``facility_*_overflow_interrupts_total`` (read from a lossless trace)."""
    from repro.telemetry.tracer import KIND_COUNTER

    problems = []
    for name, run in runs.items():
        aggregator = run["result"].observability.aggregator
        tracer = aggregator.tracer
        if tracer.dropped_events:
            problems.append(
                f"{name}: merged tracer dropped {tracer.dropped_events} events"
            )
            continue
        counted = sum(
            dict(event.args)["value"] for event in tracer.events
            if event.kind == KIND_COUNTER and event.name == "overflows"
        )
        taken = sum(
            value for key, value in aggregator.registry.snapshot().items()
            if key.startswith("facility_")
            and key.endswith("_overflow_interrupts_total")
        )
        if not taken or counted != taken:
            problems.append(
                f"{name}: merged overflows counters sum to {counted}, "
                f"registry counts {taken} overflow interrupts"
            )
    return problems


def _worker_restarted(runs: dict) -> list[str]:
    run = runs["worker-kill"]
    if run["killed"] and run["worker_restarts"] < 1:
        return ["worker-kill: recorded no worker restart"]
    return []


def _transport_faults_fired(runs: dict) -> list[str]:
    problems = []
    stats = runs["chaos-weather"]["transport"]
    faults = ("dropped", "duplicated", "reordered", "delayed", "corrupted")
    if not sum(value for key, value in stats.items()
               if key.endswith(faults)):
        problems.append("chaos-weather: the chaos preset injected no faults")
    if "corrupt" in runs:
        stats = runs["corrupt"]["transport"]
        if not (stats.get("corrupt_rejected", 0)
                + stats.get("worker_corrupt_rejected", 0)):
            problems.append(
                "corrupt: no corrupted frame was checksum-rejected"
            )
    return problems


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------
def scratch(workdir: str, lane: str, case: str) -> str:
    """The directory a case's crash drill checkpoints into."""
    return os.path.join(workdir, f"{lane}-{case}")


def _twice(lane, name, runner, keys, check=None) -> Case:
    """A seeded double-run: the rerun must replay the reference."""
    return Case(lane, name, runner, {"rerun": runner}, keys, check)


def case_table(workdir: str) -> list[Case]:
    """Every comparison case, in lane order.  Crash drills checkpoint
    under ``workdir`` (see :func:`scratch`)."""
    repro = [sys.executable, "-m", "repro"]
    ckpt = scratch(workdir, "determinism", "checkpoint-resume")
    shard_ckpt = scratch(workdir, "determinism", "shard-resume")
    cases = [
        _twice("determinism", "solr", solr_gate, SOLR_KEYS),
        *(_twice("determinism", f"chaos-{name}", partial(_chaos, name),
                 ("report",))
          for name in CHAOS_SCENARIOS),
        _twice("determinism", "flush", _flush_fingerprint, FLUSH_KEYS),
        # Calibration points fan out over forked workers; the worker count
        # must not reach a single bit.
        Case("determinism", "calibration-jobs",
             partial(calibration_fingerprint, 1),
             {f"jobs-{jobs}": partial(calibration_fingerprint, jobs)
              for jobs in (2, 3)},
             CALIBRATION_KEYS),
        Case("determinism", "checkpoint-resume",
             partial(_checkpointed_solr, ckpt),
             {"resumed": partial(_resumed_solr, ckpt)},
             (*RESTORE_KEYS, "n_requests"), _resumed),
        Case("determinism", "shard-resume",
             partial(_sharded, "chaos", **_SHARD_RESUME),
             {"checkpointed": partial(_sharded_checkpointed, shard_ckpt),
              "resumed": partial(_sharded_resumed, shard_ckpt)},
             SHARD_KEYS + TELEMETRY_KEYS, _resumed),
        *(_twice("overload", name, partial(_chaos, name), ("report",),
                 _no_violations)
          for name in OVERLOAD_SCENARIOS),
    ]
    for name in CHAOS_SCENARIOS:
        cases += [
            # Attaching a handle never changes attribution.
            Case("telemetry", f"{name}-neutral", partial(_chaos, name),
                 {"traced": partial(_chaos_telemetry, name)}, ("report",)),
            _twice("telemetry", f"{name}-trace",
                   partial(_chaos_telemetry, name), ("trace",)),
        ]
    solr = partial(_sharded, "solr", n_shards=2, duration=0.5)
    cases += [
        Case("telemetry", "solr", solr_gate, {"traced": _solr_gate_traced},
             SOLR_KEYS),
        Case("telemetry", "sharded-modes", partial(solr, telemetry="off"),
             {mode: partial(solr, telemetry=mode)
              for mode in ("store", "on")},
             SHARD_KEYS),
        # On two fork workers each epoch's observation overlaps the next
        # barrier; the merged streams must not notice.
        Case("telemetry", "sharded-workers", partial(solr, telemetry="on"),
             {"workers-2": partial(solr, workers=2, telemetry="on")},
             TELEMETRY_KEYS),
        Case("telemetry", "flash",
             partial(_sharded, "flash", n_shards=1, **TELEMETRY_FLASH),
             {"4-shards": partial(_sharded, "flash", n_shards=4,
                                  **TELEMETRY_FLASH),
              "workers-2": partial(_sharded, "flash", n_shards=4, workers=2,
                                   **TELEMETRY_FLASH)},
             SHARD_KEYS + TELEMETRY_KEYS + ("events_merged",),
             _overflows_closed),
    ]
    for name, args, kill_after in RESTORE_CASES:
        run = [*repro, "run-ckpt", *args]
        directory = scratch(workdir, "restore", name)
        cases.append(Case(
            "restore", name, partial(_cli, run, "clean checkpointed run"),
            {"resumed": partial(
                _cli_crash_then_resume,
                [*run, "--dir", directory,
                 "--kill-after-checkpoint", str(kill_after)],
                [*repro, "resume", "--dir", directory],
            )},
            RESTORE_KEYS, _resumed,
        ))
    for world in ("solr", "chaos"):
        variants = {
            f"{n}-shards": partial(_sharded, world, n_shards=n)
            for n in SHARD_COUNTS[1:]
        }
        if world == "chaos":
            variants["worker-kill"] = _sharded_worker_kill
        cases.append(Case(
            "shard", world, partial(_sharded, world, n_shards=SHARD_COUNTS[0]),
            variants, SHARD_KEYS,
            _worker_restarted if world == "chaos" else None,
        ))
    for world, duration in TRANSPORT_DURATIONS.items():
        weather = partial(_sharded, world, n_shards=2, duration=duration)
        variants = {"chaos-weather": partial(weather, transport="chaos")}
        if world == "chaos":
            variants["corrupt"] = partial(weather, transport="corrupt")
        cases.append(Case(
            "transport", world, weather, variants, SHARD_KEYS,
            _transport_faults_fired,
        ))
    # Coordinator SIGKILL right after a barrier checkpoint (one worker
    # already SIGKILLed and revived in the same run), resumed over the CLI.
    lossy = [*repro, "shard", "--scenario", "chaos", "--shards", "4",
             "--workers", "2", "--duration", "1.0", "--transport", "lossy"]
    directory = scratch(workdir, "transport", "cli-resume")
    cases += [
        Case("transport", "cli-resume", partial(_cli, lossy, "clean lossy run"),
             {"resumed": partial(
                 _cli_crash_then_resume,
                 [*lossy, "--ckpt-dir", directory, "--ckpt-every", "1",
                  "--kill-after-checkpoint", "1", "--kill-worker-at", "1"],
                 [*repro, "shard", "--resume", "--ckpt-dir", directory,
                  "--transport", "lossy"],
             )},
             SHARD_KEYS, _resumed),
        Case("perf", "solr-guard", solr_gate,
             {"after-suite": _perf_suite_then_solr_gate}, SOLR_KEYS),
    ]
    return cases
