"""The transport tentpole property, pinned by hypothesis.

Under *any* seeded :class:`TransportFaultPlan` whose probabilities stay
below 1 (so retransmits converge), a sharded run either produces
fingerprints bit-identical to the fault-free run or dies with a *typed*
transport/restore error -- it must never complete with divergent
fingerprints.  Both invariance worlds are exercised: the happy-path Solr
macro world and the chaos world (machine crashes + failover in the loop),
because a transport bug that only bites during failover replay is exactly
the kind this property exists to catch.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.state import RestoreMismatchError
from repro.shard import (
    ShardRunConfig,
    TransportError,
    TransportFaultPlan,
    run_sharded,
)

KEYS = ("report", "shed", "batch", "energy")

#: Epoch horizon random plans cover (run epochs + drain headroom).
_PLAN_EPOCHS = 10


def _config(world: str, workers: int = 1) -> ShardRunConfig:
    values = dict(
        workload="solr",
        n_machines=4,
        n_shards=2,
        workers=workers,
        duration=0.5,
        epoch=0.25,
        seed=13,
        load_fraction=0.4,
        rack_size=3,
        oversub_fraction=0.8,
    )
    if world == "chaos":
        values.update(workload="chaos", faults=2, fault_outage=0.3)
    return ShardRunConfig(**values)


@functools.lru_cache(maxsize=None)
def _baseline(world: str):
    return run_sharded(_config(world)).fingerprints


@settings(max_examples=8, deadline=None)
@given(
    plan_seed=st.integers(min_value=0, max_value=2**32 - 1),
    transport_seed=st.integers(min_value=0, max_value=2**16),
    world=st.sampled_from(("solr", "chaos")),
    workers=st.sampled_from((1, 2)),
)
def test_random_weather_never_diverges(plan_seed, transport_seed, world,
                                       workers):
    # Random plans' windows match every worker, so at ``workers=2`` both
    # links take faults in the same barrier rounds.
    plan = TransportFaultPlan.random(
        np.random.default_rng(plan_seed), _PLAN_EPOCHS,
        max_windows=3, max_prob=0.5,
    )
    try:
        result = run_sharded(
            _config(world, workers), transport_plan=plan,
            transport_seed=transport_seed,
        )
    except (TransportError, RestoreMismatchError):
        # A typed failure is an acceptable outcome; silent divergence
        # below is not.
        return
    for key in KEYS:
        assert result.fingerprints[key] == _baseline(world)[key], key


@settings(max_examples=3, deadline=None)
@given(plan_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_same_plan_same_seed_replays_identical_stats(plan_seed):
    """The fault schedule itself is a pure function of its seeds."""
    plan_a = TransportFaultPlan.random(
        np.random.default_rng(plan_seed), _PLAN_EPOCHS
    )
    plan_b = TransportFaultPlan.random(
        np.random.default_rng(plan_seed), _PLAN_EPOCHS
    )
    first = run_sharded(
        _config("solr"), transport_plan=plan_a, transport_seed=3
    )
    second = run_sharded(
        _config("solr"), transport_plan=plan_b, transport_seed=3
    )
    assert first.transport_stats == second.transport_stats
    assert first.fingerprints == second.fingerprints
