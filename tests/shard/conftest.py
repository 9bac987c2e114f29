"""Shared fixtures for sharded-simulation tests.

Calibration is the expensive step, and :func:`chaos_calibrations` caches
per spec for the process, so warming all three specs once (in one
fan-out) keeps every test in this package fast.
"""

import pytest

from repro.faults.harness import chaos_calibrations
from repro.hardware.specs import spec_by_name
from repro.shard.coordinator import SPEC_CYCLE


@pytest.fixture(scope="session")
def calibrations():
    return chaos_calibrations([spec_by_name(name) for name in SPEC_CYCLE])
