"""Coordinator crash recovery: barrier checkpoints, resume identity,
and the scheduler's snapshot/restore discipline."""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.checkpoint import CheckpointManager
from repro.checkpoint.state import CorruptCheckpointError
from repro.server.dispatch import DispatchTicket
from repro.shard import (
    ShardCheckpointPolicy,
    ShardRunConfig,
    resume_sharded,
    run_sharded,
)
from repro.shard.scheduler import MachineSlot, PowerAwareScheduler
from repro.shard.transport import lossy_preset

KEYS = ("report", "shed", "batch", "energy")


def _config(**overrides) -> ShardRunConfig:
    values = dict(
        workload="chaos",
        n_machines=4,
        n_shards=2,
        duration=0.75,
        epoch=0.25,
        seed=17,
        load_fraction=0.4,
        rack_size=3,
        oversub_fraction=0.8,
        faults=2,
        fault_outage=0.3,
    )
    values.update(overrides)
    return ShardRunConfig(**values)


# -- scheduler snapshot/restore ----------------------------------------
def _scheduler() -> PowerAwareScheduler:
    slots = [
        MachineSlot(f"m{i}", "archA", i // 2, 4, 5.0, 40.0)
        for i in range(4)
    ]
    return PowerAwareScheduler(
        slots, rack_caps={0: 60.0, 1: 60.0},
        bootstrap_joules={"archA": 2.0}, epoch_seconds=0.25,
    )


def _ticket(request_id: int, arrival: float = 0.1) -> DispatchTicket:
    return DispatchTicket(
        request_id=request_id, workload="solr", rtype="query",
        params={}, arrival=arrival, machine="",
    )


def test_scheduler_snapshot_round_trip():
    original = _scheduler()
    placed, _ = original.place([_ticket(i) for i in range(6)], 0)
    assert placed
    original.note_crashed("m1")
    state = original.snapshot_state()

    restored = _scheduler()
    restored.restore_state(state)
    assert restored.snapshot_state() == original.snapshot_state()
    # The rebuilt heaps must pick the same winner as the live ones.
    next_original, _ = original.place([_ticket(100, 0.5)], 1)
    next_restored, _ = restored.place([_ticket(100, 0.5)], 1)
    assert [t.machine for t in next_restored] == \
        [t.machine for t in next_original]


def test_scheduler_rejects_unknown_snapshot_version():
    with pytest.raises(ValueError):
        _scheduler().restore_state({"v": 99})


# -- in-process checkpoint/resume identity -----------------------------
def test_checkpoint_and_resume_land_on_clean_fingerprints(
    calibrations, tmp_path
):
    clean = run_sharded(_config(), calibrations=calibrations)
    checkpointed = run_sharded(
        _config(), calibrations=calibrations,
        checkpoint=ShardCheckpointPolicy(directory=str(tmp_path), every=1),
    )
    assert checkpointed.fingerprints == clean.fingerprints
    assert not checkpointed.resumed
    for index in CheckpointManager(str(tmp_path)).indices():
        resumed = resume_sharded(
            str(tmp_path), calibrations=calibrations, index=index,
        )
        assert resumed.resumed
        for key in KEYS:
            assert resumed.fingerprints[key] == clean.fingerprints[key], \
                (index, key)


def test_telemetry_survives_checkpoint_and_resume(calibrations, tmp_path):
    """Every checkpoint holds each observation up to its barrier, so a
    resume from any of them lands on the uninterrupted telemetry."""
    keys = ("trace_fingerprint", "alert_fingerprint", "store_fingerprint",
            "events_merged", "frames_merged")
    clean = run_sharded(_config(telemetry="on"), calibrations=calibrations)
    run_sharded(
        _config(telemetry="on"), calibrations=calibrations,
        checkpoint=ShardCheckpointPolicy(directory=str(tmp_path), every=1),
    )
    indices = CheckpointManager(str(tmp_path)).indices()
    assert len(indices) == 4
    for index in indices:
        resumed = resume_sharded(
            str(tmp_path), calibrations=calibrations, index=index,
        )
        for key in keys:
            assert resumed.telemetry_summary[key] \
                == clean.telemetry_summary[key], (index, key)


def test_resume_under_transport_weather(calibrations, tmp_path):
    clean = run_sharded(_config(), calibrations=calibrations)
    run_sharded(
        _config(), calibrations=calibrations,
        checkpoint=ShardCheckpointPolicy(directory=str(tmp_path), every=1),
    )
    earliest = min(CheckpointManager(str(tmp_path)).indices())
    resumed = resume_sharded(
        str(tmp_path), calibrations=calibrations, index=earliest,
        transport_plan=lossy_preset(), transport_seed=5,
    )
    assert resumed.resumed
    for key in KEYS:
        assert resumed.fingerprints[key] == clean.fingerprints[key], key


def test_corrupt_checkpoint_is_rejected(calibrations, tmp_path):
    run_sharded(
        _config(), calibrations=calibrations,
        checkpoint=ShardCheckpointPolicy(directory=str(tmp_path), every=1),
    )
    newest = sorted(tmp_path.iterdir())[-1]
    raw = bytearray(newest.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    newest.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpointError):
        resume_sharded(str(tmp_path), calibrations=calibrations)


def test_resume_from_missing_directory_is_refused_not_created(tmp_path):
    directory = tmp_path / "typo" / "ckpt"
    with pytest.raises(CorruptCheckpointError, match=re.escape(str(directory))):
        resume_sharded(str(directory))
    assert not directory.exists()


# -- the cross-process SIGKILL path ------------------------------------
@pytest.mark.slow
def test_cli_coordinator_sigkill_then_resume(tmp_path):
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(root, "src"),
    )
    case = [
        sys.executable, "-m", "repro", "shard",
        "--scenario", "chaos", "--shards", "4", "--workers", "2",
        "--duration", "1.0", "--transport", "lossy",
    ]

    def last_json(argv):
        proc = subprocess.run(
            argv, cwd=root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        return proc, (
            json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode == 0 else None
        )

    _, clean = last_json(case)
    assert clean is not None
    crashed, _ = last_json(
        case + ["--ckpt-dir", str(tmp_path), "--ckpt-every", "1",
                "--kill-after-checkpoint", "1", "--kill-worker-at", "1"],
    )
    assert crashed.returncode == -signal.SIGKILL
    _, resumed = last_json(
        [sys.executable, "-m", "repro", "shard", "--resume",
         "--ckpt-dir", str(tmp_path), "--transport", "lossy"],
    )
    assert resumed is not None
    assert resumed["resumed"] is True
    for key in KEYS:
        assert resumed[key] == clean[key], key
