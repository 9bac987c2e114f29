"""Checkpointed runs: resume identity, tamper detection, disabled mode."""

import re

import pytest

from repro.checkpoint import (
    CheckpointManager,
    CheckpointedRun,
    CorruptCheckpointError,
    RestoreMismatchError,
    RunConfig,
    resume_checkpointed,
    run_checkpointed,
)

FINGERPRINT_KEYS = ("report", "trace", "shed", "batch")


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------
def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown run kind"):
        RunConfig(kind="mystery")


def test_nonpositive_period_rejected():
    with pytest.raises(ValueError, match="must be positive"):
        RunConfig(checkpoint_period=0.0)


def test_config_payload_roundtrip(quick_config):
    clone = RunConfig.from_payload(quick_config.to_payload())
    assert clone == quick_config


def test_config_missing_field_rejected(quick_config):
    payload = quick_config.to_payload()
    del payload["seed"]
    with pytest.raises(ValueError, match="missing fields.*seed"):
        RunConfig.from_payload(payload)


# ---------------------------------------------------------------------------
# Solr resume identity
# ---------------------------------------------------------------------------
def test_solr_resume_matches_uninterrupted(tmp_path, quick_config):
    directory = str(tmp_path / "ckpt")
    oneshot = run_checkpointed(quick_config, directory=directory)
    assert oneshot["resumed"] is False
    resumed = resume_checkpointed(directory)
    assert resumed["resumed"] is True
    for key in FINGERPRINT_KEYS + ("n_requests", "sim_time"):
        assert resumed[key] == oneshot[key], key


def test_checkpoints_written_at_every_safe_point(tmp_path, quick_config):
    directory = str(tmp_path / "ckpt")
    seen = []
    run_checkpointed(
        quick_config, directory=directory, on_checkpoint=seen.append,
    )
    # duration 0.5 / period 0.2 -> safe-points at 0.2 and 0.4.
    assert seen == [1, 2]
    assert CheckpointManager(directory).indices() == [1, 2]


def test_disabled_mode_schedules_and_saves_nothing(tmp_path):
    config = RunConfig(
        kind="solr", duration=0.4, warmup=0.1, cal_duration=0.05,
        checkpoint_period=None,
    )
    directory = str(tmp_path / "ckpt")
    fingerprints = run_checkpointed(config, directory=directory)
    assert fingerprints["resumed"] is False
    assert CheckpointManager(directory).indices() == []


def test_checkpointing_is_invisible_to_the_run(tmp_path, quick_config):
    """Fingerprints with checkpointing on equal fingerprints with it off,
    and the only events checkpointing adds are the safe-point ticks
    themselves -- the disabled mode is exactly the plain run (the <= 1.05x
    overhead budget holds structurally: zero extra simulated work)."""
    disabled = CheckpointedRun(RunConfig(**{
        **quick_config.to_payload(), "checkpoint_period": None,
    }))
    plain = disabled.run()
    enabled = CheckpointedRun(quick_config, directory=str(tmp_path / "ckpt"))
    checkpointed = enabled.run()
    for key in FINGERPRINT_KEYS + ("n_requests",):
        assert checkpointed[key] == plain[key], key
    # duration 0.5 / period 0.2 -> exactly two auto-checkpoint events.
    assert (enabled.simulator.snapshot_state()["event_count"]
            == disabled.simulator.snapshot_state()["event_count"] + 2)


# ---------------------------------------------------------------------------
# Divergence detection
# ---------------------------------------------------------------------------
def test_tampered_layer_state_fails_verification(tmp_path, quick_config):
    directory = str(tmp_path / "ckpt")
    run_checkpointed(quick_config, directory=directory)
    manager = CheckpointManager(directory)
    body = manager.load_latest()
    body["layers"]["sim"]["event_count"] += 1
    manager.save(
        body["index"], body["sim_time"], body["config"], body["layers"],
    )
    with pytest.raises(RestoreMismatchError, match=r"sim\['event_count'\]"):
        resume_checkpointed(directory)


def test_resume_from_missing_directory_is_refused_not_created(tmp_path):
    directory = tmp_path / "typo" / "ckpt"
    with pytest.raises(CorruptCheckpointError, match=re.escape(str(directory))):
        resume_checkpointed(str(directory))
    assert not directory.exists()
    assert not directory.parent.exists()


def test_resume_with_shorter_run_never_reaches_tick(tmp_path, quick_config):
    directory = str(tmp_path / "ckpt")
    run_checkpointed(quick_config, directory=directory)
    manager = CheckpointManager(directory)
    body = manager.load_latest()
    run = CheckpointedRun(quick_config, _resume_body=body)
    run._resume_index = 99  # a tick the schedule never fires
    with pytest.raises(RestoreMismatchError, match="without reaching"):
        run.run()


# ---------------------------------------------------------------------------
# Chaos resume identity (one per world shape)
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("scenario", [
    "meter-nan-burst",   # single-machine world
    "cluster-crash",     # cluster world + dispatcher
    "arrival-storm",     # overload world: protector + enforcer + shed set
])
def test_chaos_resume_matches_uninterrupted(tmp_path, scenario):
    config = RunConfig(
        kind="chaos", seed=42, scenario=scenario, duration_scale=0.5,
        checkpoint_period=0.3,
    )
    directory = str(tmp_path / "ckpt")
    oneshot = run_checkpointed(config, directory=directory)
    resumed = resume_checkpointed(directory)
    assert resumed["resumed"] is True
    for key in FINGERPRINT_KEYS + ("passed",):
        assert resumed[key] == oneshot[key], key
