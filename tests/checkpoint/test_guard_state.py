"""A resumed run never re-trusts a meter the original run had demoted.

The meter-health watchdog and the recalibration guard both carry "when do
we try again" state -- the ``stale`` flag with its fallback coefficients,
and the guard's backoff deadline.  Resume is replay-and-verify, so that
state is rebuilt by the replay itself and then checked against the
checkpoint: a resume from a checkpoint taken while the meter was stale
must reproduce the uninterrupted run, and a checkpoint whose watchdog or
guard state disagrees with the replay must be refused, naming the field.
"""

import copy

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointManager,
    CheckpointedRun,
    RestoreMismatchError,
    RunConfig,
    resume_checkpointed,
)
from repro.core.recalibration import RecalibrationGuard

FINGERPRINT_KEYS = ("report", "trace", "shed", "batch", "passed")

#: ``meter-flapping`` kills and revives the meter repeatedly; with a 0.2 s
#: period some safe-points fall inside an outage, after the watchdog has
#: declared the meter stale.
FLAPPING = RunConfig(
    kind="chaos", seed=42, scenario="meter-flapping", duration_scale=1.0,
    checkpoint_period=0.2,
)


@pytest.fixture(scope="module")
def flapping(tmp_path_factory):
    """The uninterrupted run's fingerprints and every checkpoint it saved."""
    directory = str(tmp_path_factory.mktemp("flapping"))
    fingerprints = CheckpointedRun(
        FLAPPING, directory=directory, keep=1000,
    ).run()
    manager = CheckpointManager(directory)
    bodies = [manager.load(manager.path_for(i)) for i in manager.indices()]
    return fingerprints, bodies


def _stale_bodies(bodies):
    return [
        body for body in bodies
        if body["layers"]["facility"]["health"]["meter_state"] == "stale"
    ]


def _resave(tmp_path, body):
    """Write ``body`` as the only checkpoint of a fresh directory."""
    directory = str(tmp_path / "tampered")
    CheckpointManager(directory).save(
        body["index"], body["sim_time"], body["config"], body["layers"],
    )
    return directory


@pytest.mark.slow
def test_resume_from_stale_meter_checkpoint_matches_uninterrupted(flapping):
    fingerprints, bodies = flapping
    stale = _stale_bodies(bodies)
    assert stale, "no checkpoint fell inside a meter outage"
    for body in stale:
        resumed = CheckpointedRun(FLAPPING, _resume_body=body).run()
        assert resumed["resumed"] is True
        for key in FINGERPRINT_KEYS + ("sim_time",):
            assert resumed[key] == fingerprints[key], (body["index"], key)


def test_flipped_meter_state_is_refused(tmp_path, flapping):
    _, bodies = flapping
    body = copy.deepcopy(_stale_bodies(bodies)[0])
    body["layers"]["facility"]["health"]["meter_state"] = "ok"
    directory = _resave(tmp_path, body)
    with pytest.raises(
        RestoreMismatchError,
        match=r"facility\['health'\]\['meter_state'\]",
    ):
        resume_checkpointed(directory)


def test_changed_guard_backoff_is_refused(tmp_path, flapping):
    _, bodies = flapping
    body = copy.deepcopy(bodies[0])
    recalibrators = body["layers"]["facility"]["recalibrators"]
    name, state = next(
        (name, state) for name, state in sorted(recalibrators.items())
        if state["guard"] is not None
    )
    state["guard"]["skip_remaining"] += 3
    directory = _resave(tmp_path, body)
    with pytest.raises(
        RestoreMismatchError,
        match=(
            rf"facility\['recalibrators'\]\['{name}'\]"
            r"\['guard'\]\['skip_remaining'\]"
        ),
    ):
        resume_checkpointed(directory)


def test_rejected_guard_backs_off_for_a_fixed_window():
    guard = RecalibrationGuard(backoff_initial=2, backoff_max=16)
    holdout_X = np.eye(3)
    holdout_y = np.ones(3)
    current = np.array([1.0, 1.0, 1.0])
    absurd = np.full(3, 1e9)  # drift far beyond the bound -> rejected
    assert guard.evaluate(absurd, current, holdout_X, holdout_y) is False
    assert guard.rejected_count == 1
    # The backoff deadline is exact: skip the next two refit rounds, then
    # re-engage.
    window = [guard.should_skip() for _ in range(4)]
    assert window == [True, True, False, False]


def test_accepted_vector_becomes_last_good():
    guard = RecalibrationGuard()
    holdout_X = np.eye(2)
    holdout_y = np.array([2.0, 3.0])
    good = np.array([2.0, 3.0])
    assert guard.evaluate(good, np.zeros(2), holdout_X, holdout_y) is True
    assert guard.last_good is not None
    np.testing.assert_array_equal(guard.last_good, good)
    assert guard.accepted_count == 1
