"""Cluster-scale telemetry invariance: the observability tentpole.

Three guarantees over the sharded stack:

* **neutrality** -- report/shed/batch/energy fingerprints are
  bit-identical with telemetry on, off, or "store";
* **merge invariance** -- the merged ``trace_fingerprint()``, every
  store query, and ``alert_fingerprint()`` are identical across shard
  counts {1, 2, 4}, hypothesis-drawn seeds included;
* **crash transparency** -- a seeded mid-run worker SIGKILL (replay
  recovery) leaves all of the above bit-identical.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.shard import ShardRunConfig, run_sharded

SHARD_COUNTS = (1, 2, 4)

#: Every digest the observability layer must reproduce bit-for-bit.
TELEMETRY_KEYS = (
    "trace_fingerprint", "alert_fingerprint", "store_fingerprint",
)


def _config(seed, n_shards, telemetry="on", **overrides):
    values = dict(
        workload="solr",
        n_machines=6,
        n_shards=n_shards,
        duration=0.5,
        epoch=0.25,
        seed=seed,
        load_fraction=0.4,
        rack_size=3,
        oversub_fraction=0.8,
        telemetry=telemetry,
    )
    values.update(overrides)
    return ShardRunConfig(**values)


def _query_surface(result):
    """Every deterministic query output the store must reproduce."""
    store = result.observability.store
    return (
        store.store_fingerprint(),
        tuple(tuple(row.items()) for row in store.top_energy()),
        tuple(sorted(
            (rtype, tuple(sorted(values.items())))
            for rtype, values in store.joules_percentiles().items()
        )),
        tuple(
            (rack, tuple(map(tuple, points)))
            for rack, points in sorted(store.rack_power_series().items())
        ),
        tuple(map(tuple, store.window_table())),
    )


def _run_counting_events(config):
    """``run_sharded`` plus each shard's simulated event count."""
    pools = []

    def hook(pool, _epoch_index):
        if not pools:
            pools.append(pool)

    result = run_sharded(config, pool_hook=hook)
    summaries = pools[0].snapshot_history()["summaries"]
    events = {shard: summary["events"] for shard, summary in summaries.items()}
    return result, events


def test_telemetry_modes_never_change_run_fingerprints():
    """Telemetry changes no fingerprint and schedules no simulator event
    (energy-timeline windows close inline, never on a timer)."""
    baseline, baseline_events = _run_counting_events(
        _config(42, 2, telemetry="off")
    )
    for mode in ("store", "on"):
        result, events = _run_counting_events(_config(42, 2, telemetry=mode))
        assert result.fingerprints == baseline.fingerprints, mode
        assert events == baseline_events, mode
    assert baseline.observability is None
    assert baseline.telemetry_summary == {}


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       capacity=st.sampled_from((65536, 200)))
@example(seed=42, capacity=200)
def test_merged_telemetry_invariant_across_shard_counts(seed, capacity):
    """``capacity=200`` fills a shard's tracer ring inside one epoch;
    recording between barriers must stay lossless anyway."""
    results = {
        n: run_sharded(_config(seed, n, telemetry_capacity=capacity))
        for n in SHARD_COUNTS
    }
    baseline = results[1]
    for n in SHARD_COUNTS[1:]:
        for key in TELEMETRY_KEYS:
            assert (results[n].telemetry_summary[key]
                    == baseline.telemetry_summary[key]), (key, n)
        assert (results[n].telemetry_summary["events_merged"]
                == baseline.telemetry_summary["events_merged"])
        assert _query_surface(results[n]) == _query_surface(baseline)


#: The merged digests of ``_config(42, 2)``, recorded independently of
#: the code under test: a rendering or merge change that still agrees
#: with itself across shard counts fails here.  The trace digest and
#: event count are those of the v3 merge chain (per-window container
#: energy timelines and per-window core overflow counts;
#: ``test_energy_timeline`` proves the windows exact).
PINNED_SEED_42 = {
    "trace_fingerprint": "704ad0b46cb326a2",
    "alert_fingerprint": "e3b0c44298fc1c14",
    "store_fingerprint": "94b98c892dc28553",
    "events_merged": 5650,
}


@pytest.mark.parametrize("capacity", (65536, 200))
def test_merged_digests_pinned(capacity):
    summary = run_sharded(
        _config(42, 2, telemetry_capacity=capacity)
    ).telemetry_summary
    assert {key: summary[key] for key in PINNED_SEED_42} == PINNED_SEED_42


def test_store_mode_matches_frames_mode_on_store_outputs():
    """Mode "store" (no frames) must roll up the completion stream to
    the same store/alert digests as mode "on" -- only the merged trace
    is extra."""
    frames = run_sharded(_config(11, 2, telemetry="on"))
    store_only = run_sharded(_config(11, 2, telemetry="store"))
    assert (store_only.telemetry_summary["store_fingerprint"]
            == frames.telemetry_summary["store_fingerprint"])
    assert (store_only.telemetry_summary["alert_fingerprint"]
            == frames.telemetry_summary["alert_fingerprint"])
    assert store_only.telemetry_summary["trace_fingerprint"] is None
    assert store_only.observability.aggregator is None


def test_merged_telemetry_survives_worker_sigkill():
    """SIGKILL one fork worker mid-run: replay recovery must regenerate
    the dead worker's frames bit-for-bit (the drain is a pure function
    of directives), leaving every merged digest identical."""
    chaos = dict(workload="chaos", n_machines=6, faults=2,
                 fault_outage=0.3, duration=1.0)
    clean = run_sharded(_config(7, 4, workers=1, **chaos))
    killed = {"done": False}

    def hook(pool, epoch_index):
        if epoch_index == 2 and pool.parallel and not killed["done"]:
            pool.kill_worker(0)
            killed["done"] = True

    result = run_sharded(_config(7, 4, workers=2, **chaos),
                         pool_hook=hook)
    if not killed["done"]:
        pytest.skip("fork start method unavailable")
    assert result.worker_restarts >= 1
    assert result.fingerprints == clean.fingerprints
    assert result.telemetry_summary == clean.telemetry_summary
    assert _query_surface(result) == _query_surface(clean)


def test_frame_chain_digest_gates_replay():
    """The worker's frame-chain digest lives inside ``state_summary()``,
    so replay verification rejects divergent telemetry the same way it
    rejects divergent physics."""
    from repro.shard.worker import ShardConfig, ShardWorld

    config = ShardConfig(
        0, (("m0", "sandybridge"),), "solr", telemetry="on",
    )
    world = ShardWorld.build(config, _calibrations())
    world.run_epoch(0.25)
    frame = world.drain_frame()
    assert frame is not None
    summary = world.state_summary()
    assert summary["telemetry"]["frames"] == 1
    # An identically-driven world ships the identical chain; draining
    # is part of the epoch protocol, so the summaries match exactly.
    twin = ShardWorld.build(config, _calibrations())
    twin.run_epoch(0.25)
    assert twin.drain_frame() == frame
    assert twin.state_summary() == summary


def _calibrations():
    from repro.faults.harness import chaos_calibration
    from repro.hardware.specs import spec_by_name

    return {"sandybridge": chaos_calibration(spec_by_name("sandybridge"))}
