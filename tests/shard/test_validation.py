"""Constructor validation and the bounded revive/quarantine ladder.

Every impossible parameter must die at construction with a clear
``ValueError`` (not mid-run), and a worker whose transport never heals
must end in a terminal :class:`WorkerQuarantinedError` carrying its
diagnostic replay verdict -- never an unbounded revive loop.
"""

import pytest

from repro.shard import (
    ShardCheckpointPolicy,
    ShardConfig,
    ShardPool,
    ShardRunConfig,
    TransportFaultPlan,
    WorkerQuarantinedError,
    run_sharded,
)


@pytest.mark.parametrize("kwargs", [
    {"n_machines": 0},
    {"n_shards": 0},
    {"workers": 0},
    {"rack_size": 0},
    {"epoch": 0.0},
    {"epoch": -0.25},
    {"duration": -1.0},
    {"load_fraction": -0.1},
    {"oversub_fraction": 0.0},
    {"max_defers": -1},
    {"faults": -1},
    {"fault_outage": -0.5},
    {"max_drain_epochs": -1},
])
def test_run_config_rejects_impossible_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ShardRunConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"every": 0},
    {"keep": 0},
    {"kill_after": 0},
])
def test_checkpoint_policy_rejects_impossible_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ShardCheckpointPolicy(directory="/tmp/x", **kwargs)


@pytest.mark.parametrize("kwargs,match", [
    ({"shard_id": -1}, "shard_id"),
    ({"workload": ""}, "workload"),
])
def test_shard_config_rejects_impossible_values(kwargs, match):
    values = dict(
        shard_id=0, machines=(("m0", "sandybridge"),), workload="solr"
    )
    values.update(kwargs)
    with pytest.raises(ValueError, match=match):
        ShardConfig(**values)


def _one_shard():
    return [ShardConfig(0, (("m0", "sandybridge"),), "solr")]


def test_pool_rejects_empty_configs(calibrations):
    with pytest.raises(ValueError, match="at least one shard"):
        ShardPool([], calibrations)


def test_pool_rejects_zero_workers(calibrations):
    with pytest.raises(ValueError, match="workers"):
        ShardPool(_one_shard(), calibrations, workers=0)


# -- quarantine ladder -------------------------------------------------
_BLACKOUT = TransportFaultPlan().drop_window(0, 10_000, 1.0)


def test_unhealable_transport_quarantines_with_diagnosis(calibrations):
    config = ShardRunConfig(
        workload="solr", n_machines=2, n_shards=1, duration=0.5,
        epoch=0.25, seed=5, load_fraction=0.3, rack_size=2,
        oversub_fraction=0.8,
    )
    with pytest.raises(WorkerQuarantinedError) as excinfo:
        run_sharded(
            config, calibrations=calibrations, transport_plan=_BLACKOUT,
        )
    err = excinfo.value
    assert err.worker_index == 0
    assert err.shard_ids == [0]
    assert err.revives == 3
    # The transport was at fault, not the state: the diagnostic replay
    # (which bypasses the fault channels) found nothing diverged.
    assert err.digest_diff == []
    assert "replay state intact" in str(err)
