"""Shared fixtures for checkpoint/restore tests."""

import pytest


@pytest.fixture
def quick_config():
    """A short checkpointed Solr config crossing two safe-points."""
    from repro.checkpoint import RunConfig

    return RunConfig(
        kind="solr", seed=7, duration=0.5, warmup=0.1, load_fraction=0.6,
        cal_duration=0.05, checkpoint_period=0.2,
    )
