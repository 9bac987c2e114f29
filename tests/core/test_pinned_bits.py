"""Pinned bits of calibration and of the facility's model trace.

Both read the OS-visible busy fractions (chip active, disk busy, NIC
busy) that the hardware occupancy counter keeps.  The digests below were
recorded with a periodic sampler that ticked the same grid, so they pin
that the counter's counts equal the ticker's, bit for bit.
"""

import hashlib

from ci.cases import calibration_fingerprint
from repro.core import calibrate_machine
from repro.core.model import FEATURES_FULL
from repro.hardware.specs import SANDYBRIDGE, WESTMERE
from repro.workloads import workload_by_name
from repro.workloads.base import run_workload

CALIBRATION_SHA256 = (
    "ac6baacadca11424b6bdbcfddede014821798c4634ee69ef8beecf38494834f3"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_three_model_calibration_bits_are_pinned():
    fingerprint = calibration_fingerprint(1, duration=0.25)
    assert _sha256(repr(fingerprint).encode()) == CALIBRATION_SHA256


def _trace_digests(name, spec, duration):
    calibration = calibrate_machine(spec, duration=0.1)
    run = run_workload(
        workload_by_name(name), spec, calibration, 0.5,
        duration=duration, warmup=0.5, seed=3,
    )
    rows = run.facility.model_trace_rows()
    _times, watts = run.facility.model_trace_series()
    return rows, _sha256(rows.tobytes()), _sha256(watts.tobytes())


def test_wall_metered_webwork_trace_is_pinned():
    """Westmere's wall meter: a 0.25 s trace period over the 1 ms grid,
    so an instant at a trace time belongs to the next interval."""
    rows, rows_sha, watts_sha = _trace_digests("webwork", WESTMERE, 3.0)
    assert len(rows) == 12
    assert rows[:, FEATURES_FULL.index("mdisk")].max() > 0.0
    assert rows_sha == (
        "f14d8b9699d5efd7193674e810584d2deafaff6761d1c0d37267ee0b4888d065"
    )
    assert watts_sha == (
        "e6b113fb22cab2f0acbfa841ddcb1dc7744c8dfdf81160c64ed05858aa96075d"
    )


def test_package_metered_gae_hybrid_trace_is_pinned():
    """SandyBridge's package meter: trace period equal to the grid's."""
    rows, rows_sha, watts_sha = _trace_digests("gae-hybrid", SANDYBRIDGE, 1.0)
    assert len(rows) == 999
    assert rows_sha == (
        "0e0f93d95a58fe5edb16766739e40ce0f2011716264102f00e0dbfa280d15547"
    )
    assert watts_sha == (
        "301802a9737619156d67533e18d556b5e86b3f1aaa096ac9b61f6cac553a4202"
    )
