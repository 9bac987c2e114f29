"""Shard-count invariance: the tentpole property, pinned by hypothesis.

An N-shard run must produce bit-identical ``report``/``shed``/``batch``/
``energy`` fingerprints to the 1-shard run for any N, any seed, any
machine count -- and the property must survive worker processes dying
mid-epoch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ShardRunConfig, run_sharded
from repro.shard.scenario import chaos_world_config

KEYS = ("report", "shed", "batch", "energy")


def _config(seed, n_machines, n_shards, workload="solr", **overrides):
    values = dict(
        workload=workload,
        n_machines=n_machines,
        n_shards=n_shards,
        duration=0.5,
        epoch=0.25,
        seed=seed,
        load_fraction=0.4,
        rack_size=3,
        oversub_fraction=0.8,
    )
    values.update(overrides)
    return ShardRunConfig(**values)


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_machines=st.integers(min_value=3, max_value=6),
    n_shards=st.sampled_from((2, 3, 4)),
)
def test_sharded_fingerprints_match_single_shard(seed, n_machines, n_shards):
    baseline = run_sharded(_config(seed, n_machines, 1))
    sharded = run_sharded(_config(seed, n_machines, n_shards))
    for key in KEYS:
        assert sharded.fingerprints[key] == baseline.fingerprints[key], key
    assert sharded.n_requests == baseline.n_requests
    assert sharded.completed == baseline.completed


@pytest.mark.slow
@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_shards=st.sampled_from((2, 3, 4)),
)
def test_chaos_invariance_through_failover(seed, n_shards):
    baseline = run_sharded(
        _config(seed, 5, 1, workload="chaos", faults=2, fault_outage=0.3)
    )
    sharded = run_sharded(
        _config(seed, 5, n_shards, workload="chaos", faults=2,
                fault_outage=0.3)
    )
    assert sharded.fingerprints == baseline.fingerprints


def test_decimal_epoch_barriers_meet_exactly():
    """``epoch=0.1`` is not a binary fraction: an epoch's end computed as
    ``start + epoch`` overshot the next epoch's start (1.3000000000000003
    against 1.3) and scheduled that epoch's arrivals in the past."""
    from dataclasses import replace

    from repro.shard.scenario import diurnal_flash_config

    def config(n_shards):
        return replace(
            diurnal_flash_config(n_shards=n_shards, n_machines=4,
                                 duration=1.0),
            epoch=0.1, rack_size=2,
        )

    baseline = run_sharded(config(1))
    sharded = run_sharded(config(2))
    assert baseline.completed > 0
    assert sharded.fingerprints == baseline.fingerprints


def test_worker_count_does_not_change_fingerprints():
    serial = run_sharded(_config(11, 4, 4, workers=1))
    parallel = run_sharded(_config(11, 4, 4, workers=2))
    assert parallel.fingerprints == serial.fingerprints
    assert parallel.worker_restarts == 0


def test_worker_kill_mid_epoch_recovers_bit_identically():
    """SIGKILL one fork worker mid-run: the pool must replay the dead
    worker's shards from directive history, digest-verify the replayed
    state, and finish with fingerprints identical to the clean run."""
    config = chaos_world_config(n_shards=4, workers=2, duration=1.0)
    clean = run_sharded(chaos_world_config(n_shards=4, workers=1,
                                           duration=1.0))
    killed = {"done": False}

    def hook(pool, epoch_index):
        if epoch_index == 2 and pool.parallel and not killed["done"]:
            pool.kill_worker(0)
            killed["done"] = True

    result = run_sharded(config, pool_hook=hook)
    if not killed["done"]:
        pytest.skip("fork start method unavailable")
    assert result.worker_restarts >= 1
    assert result.fingerprints == clean.fingerprints


def test_worker_kill_with_corrupted_digest_is_rejected():
    """Replay verification is real: corrupting the recorded digest makes
    the post-restart replay fail with the checkpoint layer's
    RestoreMismatchError (diff machinery, not a silent continue)."""
    from repro.checkpoint.state import RestoreMismatchError

    config = chaos_world_config(n_shards=2, workers=2, duration=1.0)
    state = {"armed": False}

    def hook(pool, epoch_index):
        if epoch_index == 2 and pool.parallel and not state["armed"]:
            shard_id = pool.configs[0].shard_id
            if shard_id in pool._digests:
                pool._digests[shard_id] = "0" * 64
                pool._summaries[shard_id] = dict(
                    pool._summaries[shard_id], late_replies=999
                )
                pool.kill_worker(0)
                state["armed"] = True

    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("fork start method unavailable")
    with pytest.raises(RestoreMismatchError, match="replay diverged"):
        run_sharded(config, pool_hook=hook)
    assert state["armed"]


def test_serial_pool_rejects_kill_worker():
    from repro.shard.pool import ShardPool
    from repro.shard.worker import ShardConfig
    from repro.faults.harness import chaos_calibration
    from repro.hardware.specs import spec_by_name

    calibrations = {
        "sandybridge": chaos_calibration(spec_by_name("sandybridge"))
    }
    pool = ShardPool(
        [ShardConfig(0, (("m0", "sandybridge"),), "solr")],
        calibrations, workers=1,
    )
    with pytest.raises(RuntimeError):
        pool.kill_worker(0)
    pool.close()  # serial close is a no-op, must not raise
