"""Determinism gate: the same seeded experiment twice, bit for bit.

The whole reproduction rests on the simulator's promise that a given seed
and schedule replay exactly (``repro.sim.engine``).  Accidental nondeterminism
-- dict-ordering dependence, hidden global state, float accumulation-order
changes -- would silently invalidate every paper figure while all
shape-asserting tests still pass.  This lane:

1. calibrates the same machine twice and demands identical coefficients;
2. runs a short seeded Solr workload twice and demands identical request
   counts, per-request energies, response times, and measured joules;
3. runs representative chaos scenarios (``repro.faults``) twice and demands
   bit-identical report fingerprints -- fault injection draws randomness
   too, and a chaos run that cannot replay cannot be debugged;
4. runs a checkpointed Solr experiment, resumes it from its newest
   checkpoint (``repro.checkpoint``), and demands the resumed run's
   report/trace/shed/batch fingerprints match the uninterrupted run's;
5. runs a sharded chaos world with telemetry on clean, under barrier
   checkpointing, and resumed from an early checkpoint (``repro.shard``),
   and demands all three land on identical report/shed/batch/energy
   fingerprints and identical trace/alert/store fingerprints -- so the
   replayed aggregator, registry, store and detector state is gated too.

Everything is compared with ``==`` on floats: the runs must be *identical*,
not merely close.

Run:  ``python -m ci determinism``
"""

from __future__ import annotations

from ci.report import Finding

#: Short but non-trivial: long enough to exercise scheduling, sockets,
#: meters, recalibration, and tens of requests.
_CAL_DURATION = 0.1
_RUN_DURATION = 1.5


def _run_once(facility_kwargs=None):
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
    fingerprint = {
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
    return fingerprint


#: Chaos scenarios double-run by the gate: one metered single-machine
#: scenario (meter faults + guards), the cluster crash/failover path, and
#: the overload world (the shed set and brownout ladder must replay --
#: ``shed_fingerprint`` and every ``powercap_*`` counter are in the report).
_CHAOS_SCENARIOS = ("meter-nan-burst", "cluster-crash", "arrival-storm")
_CHAOS_SEED = 42


def _chaos_fingerprints() -> dict[str, str]:
    from repro.faults import run_scenario, scenario_by_name

    return {
        name: run_scenario(
            scenario_by_name(name), seed=_CHAOS_SEED
        ).fingerprint()
        for name in _CHAOS_SCENARIOS
    }


def _batch_fingerprint():
    """Seeded batch-engine run: synchronous ``sample_all`` accounting ticks
    interleaved with simulated execution, fingerprinted per container.

    The per-event path is already covered by the Solr double-run above;
    this exercises the vectorized :class:`BatchAccountingEngine` pass
    (``Facility.flush`` / sharded-sweep ticks) end to end, so a batch
    kernel that picks up accumulation-order or dtype nondeterminism fails
    the gate even though no workload driver calls it on every sample.
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
    charged = 0
    now = 0.0
    # Off the facility's 1 ms OS-tick grid, so the batch pass sees real
    # open intervals instead of already-sampled (dt == 0) ones.
    for _ in range(40):
        now += 1.37e-3
        sim.run_until(now)
        charged += facility.batch_engine.sample_all(sim.now)
    primary = facility.primary
    return {
        "batch_charged": charged,
        "batch_energies": tuple(c.energy(primary) for c in containers),
        "batch_samples": tuple(
            c.stats.sample_count for c in containers
        ),
    }


def _checkpoint_fingerprints():
    """Checkpointed Solr run + in-place resume: both fingerprint dicts.

    A shortened run (the restore CI lane covers the cross-process SIGKILL
    path) that crosses two auto-checkpoint safe-points, then resumes from
    the newest checkpoint in the same process.  Snapshot collection must be
    invisible to the run, and the resume -- replay from t=0, verify every
    layer's ``snapshot_state`` against the checkpoint bit-for-bit, continue
    with no restore step -- must land on the same report/trace/shed/batch
    digests; any layer whose snapshot drifts from its replay fails here.
    """
    import shutil
    import tempfile

    from repro.checkpoint import (
        RunConfig,
        resume_checkpointed,
        run_checkpointed,
    )

    config = RunConfig(
        kind="solr", seed=7, duration=0.6, warmup=0.1, load_fraction=0.6,
        cal_duration=_CAL_DURATION, checkpoint_period=0.2,
    )
    directory = tempfile.mkdtemp(prefix="repro-determinism-ckpt-")
    try:
        oneshot = run_checkpointed(config, directory=directory)
        resumed = resume_checkpointed(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return oneshot, resumed


def _shard_resume_fingerprints():
    """Sharded chaos run three ways: clean, checkpointed, and resumed.

    The transport CI lane covers the cross-process coordinator SIGKILL;
    this in-process case pins the snapshot discipline itself: collecting
    barrier checkpoints must not perturb the run, and a coordinator
    resumed from the *oldest retained* checkpoint (not the newest) must
    replay, verify, and continue onto identical fingerprints.  Telemetry
    is on, so the observability layers are replayed and verified too.
    """
    import shutil
    import tempfile

    from repro.checkpoint import CheckpointManager
    from repro.shard import (
        ShardCheckpointPolicy,
        resume_sharded,
        run_scenario,
    )

    directory = tempfile.mkdtemp(prefix="repro-determinism-shard-")
    try:
        clean = run_scenario(
            "chaos", n_shards=2, duration=0.75, telemetry="on"
        )
        checkpointed = run_scenario(
            "chaos", n_shards=2, duration=0.75, telemetry="on",
            checkpoint=ShardCheckpointPolicy(directory=directory, every=1),
        )
        earliest = min(CheckpointManager(directory).indices())
        resumed = resume_sharded(directory, index=earliest)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return clean, checkpointed, resumed


def run_determinism(root: str):
    """Lane entry point -> (ok, findings, detail)."""
    first = _run_once()
    second = _run_once()
    findings = []
    for key in first:
        if first[key] != second[key]:
            findings.append(Finding(
                "ci/determinism.py", 1, "NDET",
                f"{key} differs between identically-seeded runs "
                f"({first[key]!r:.80} vs {second[key]!r:.80})",
            ))
    chaos_first = _chaos_fingerprints()
    chaos_second = _chaos_fingerprints()
    for name in _CHAOS_SCENARIOS:
        if chaos_first[name] != chaos_second[name]:
            findings.append(Finding(
                "ci/determinism.py", 1, "NDET",
                f"chaos scenario {name!r} fingerprint differs between "
                f"identically-seeded runs",
            ))
    batch_first = _batch_fingerprint()
    batch_second = _batch_fingerprint()
    for key in batch_first:
        if batch_first[key] != batch_second[key]:
            findings.append(Finding(
                "ci/determinism.py", 1, "NDET",
                f"{key} differs between identically-seeded batch-engine "
                f"runs",
            ))
    ckpt_oneshot, ckpt_resumed = _checkpoint_fingerprints()
    for key in ("report", "trace", "shed", "batch", "n_requests"):
        if ckpt_oneshot[key] != ckpt_resumed[key]:
            findings.append(Finding(
                "ci/determinism.py", 1, "NDET",
                f"checkpoint-resume {key} fingerprint differs from the "
                f"uninterrupted run ({ckpt_resumed[key]!r} vs "
                f"{ckpt_oneshot[key]!r})",
            ))
    if not ckpt_resumed.get("resumed"):
        findings.append(Finding(
            "ci/determinism.py", 1, "NDET",
            "checkpoint resume never restored from a checkpoint",
        ))
    shard_clean, shard_ckpt, shard_resumed = _shard_resume_fingerprints()
    for label, run in (("checkpointed", shard_ckpt),
                       ("resumed", shard_resumed)):
        for key in ("report", "shed", "batch", "energy"):
            if run.fingerprints[key] != shard_clean.fingerprints[key]:
                findings.append(Finding(
                    "ci/determinism.py", 1, "NDET",
                    f"shard coordinator-{label} {key} fingerprint differs "
                    f"from the uninterrupted sharded run",
                ))
        for key in ("trace_fingerprint", "alert_fingerprint",
                    "store_fingerprint"):
            if run.telemetry_summary[key] \
                    != shard_clean.telemetry_summary[key]:
                findings.append(Finding(
                    "ci/determinism.py", 1, "NDET",
                    f"shard coordinator-{label} {key} differs from the "
                    f"uninterrupted sharded run",
                ))
    if not shard_resumed.resumed:
        findings.append(Finding(
            "ci/determinism.py", 1, "NDET",
            "shard coordinator resume never verified a checkpoint",
        ))
    detail = (f"{first['n_requests']} requests, "
              f"{len(first['coefficients'])} coefficients, "
              f"{len(_CHAOS_SCENARIOS)} chaos fingerprints + "
              f"{len(batch_first['batch_energies'])} batch-engine "
              f"containers + checkpoint-resume identity + shard "
              f"coordinator-resume identity compared")
    return not findings, findings, detail
