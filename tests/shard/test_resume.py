"""Coordinator crash recovery: barrier checkpoints, resume identity,
and the replay verification that rejects a checkpoint the run disagrees
with."""

import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.checkpoint import CheckpointManager
from repro.checkpoint.state import (
    CorruptCheckpointError,
    RestoreMismatchError,
)
from repro.shard import (
    ShardCheckpointPolicy,
    ShardRunConfig,
    resume_sharded,
    run_sharded,
)
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


def _resave(directory: str, edit) -> None:
    """Re-save the newest checkpoint with ``edit(body)`` applied; the file
    digest is valid, so only replay verification can catch the edit."""
    manager = CheckpointManager(directory)
    body = manager.load_latest()
    edit(body)
    manager.save(
        body["index"], body["sim_time"], body["config"], body["layers"],
    )


def test_tampered_coordinator_state_fails_verification(
    calibrations, tmp_path
):
    run_sharded(
        _config(), calibrations=calibrations,
        checkpoint=ShardCheckpointPolicy(directory=str(tmp_path), every=1),
    )

    def bump_shed(body):
        body["layers"]["coordinator"]["scheduler"]["counters"]["shed"] += 1

    _resave(str(tmp_path), bump_shed)
    with pytest.raises(
        RestoreMismatchError,
        match=re.escape("['scheduler']['counters']['shed']"),
    ):
        resume_sharded(str(tmp_path), calibrations=calibrations)


def test_checkpoint_past_the_last_epoch_is_never_reached(
    calibrations, tmp_path
):
    run_sharded(
        _config(), calibrations=calibrations,
        checkpoint=ShardCheckpointPolicy(directory=str(tmp_path), every=1),
    )

    def move_past_end(body):
        body["index"] += 100

    _resave(str(tmp_path), move_past_end)
    with pytest.raises(RestoreMismatchError, match="without reaching"):
        resume_sharded(str(tmp_path), calibrations=calibrations)


# -- the cross-process SIGKILL path ------------------------------------
_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
_CASE = [
    "--scenario", "chaos", "--shards", "4", "--workers", "2",
    "--duration", "1.0", "--transport", "lossy",
]


def _shard_cli(args):
    """Run ``repro shard`` with ``args``; return the process and, on
    success, its fingerprint JSON line."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "shard", *args], cwd=_ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src")),
        text=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    return proc, (
        json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0 else None
    )


@pytest.mark.slow
def test_cli_coordinator_sigkill_then_resume(tmp_path):
    _, clean = _shard_cli(_CASE)
    assert clean is not None
    crashed, _ = _shard_cli(
        _CASE + ["--ckpt-dir", str(tmp_path), "--ckpt-every", "1",
                 "--kill-after-checkpoint", "1", "--kill-worker-at", "1"],
    )
    assert crashed.returncode == -signal.SIGKILL
    _, resumed = _shard_cli(
        ["--resume", "--ckpt-dir", str(tmp_path), "--transport", "lossy"],
    )
    assert resumed is not None
    assert resumed["resumed"] is True
    for key in KEYS:
        assert resumed[key] == clean[key], key


@pytest.mark.slow
def test_cli_resumed_run_keeps_checkpointing_through_a_second_crash(
    tmp_path
):
    _, clean = _shard_cli(_CASE)
    assert clean is not None
    crashed, _ = _shard_cli(
        _CASE + ["--ckpt-dir", str(tmp_path), "--kill-after-checkpoint", "1"],
    )
    assert crashed.returncode == -signal.SIGKILL
    resume = ["--resume", "--ckpt-dir", str(tmp_path), "--transport", "lossy"]
    crashed_again, _ = _shard_cli(resume + ["--kill-after-checkpoint", "2"])
    assert crashed_again.returncode == -signal.SIGKILL
    assert (tmp_path / "checkpoint-000002.ckpt").exists()
    _, resumed = _shard_cli(resume)
    assert resumed is not None
    assert resumed["resumed"] is True
    for key in KEYS:
        assert resumed[key] == clean[key], key
