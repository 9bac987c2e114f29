"""Tests for offline calibration (Section 4.1)."""

import numpy as np
import pytest

from repro.core import calibrate_machine, calibration_microbenchmarks
from repro.core.model import FEATURES_EQ1, FEATURES_EQ2, FEATURES_FULL
from repro.hardware import SANDYBRIDGE, WOODCREST


@pytest.fixture(scope="module")
def sb_calibration():
    return calibrate_machine(SANDYBRIDGE, duration=0.2)


def test_suite_covers_paper_benchmarks():
    names = {b.name for b in calibration_microbenchmarks()}
    assert {"cpu-spin", "high-instr", "high-float", "high-cache",
            "high-mem", "disk-io", "net-io", "mixed"} <= names


def test_sample_matrix_shape(sb_calibration):
    n_benches = len(calibration_microbenchmarks())
    assert sb_calibration.samples.shape == (n_benches * 4, len(FEATURES_FULL))
    assert len(sb_calibration.active_watts) == n_benches * 4


def test_all_powers_positive(sb_calibration):
    assert (sb_calibration.active_watts > 0).all()


def test_metrics_within_physical_bounds(sb_calibration):
    mcore = sb_calibration.samples[:, FEATURES_FULL.index("mcore")]
    assert (mcore >= 0).all()
    assert (mcore <= SANDYBRIDGE.n_cores + 1e-6).all()
    chipshare = sb_calibration.samples[:, FEATURES_FULL.index("mchipshare")]
    assert (chipshare <= SANDYBRIDGE.n_chips + 1e-6).all()


def test_full_fit_recovers_true_coefficients_closely(sb_calibration):
    """Calibration workloads have no hidden power, so the fitted model
    should recover the physical coefficients well."""
    model = sb_calibration.fit(FEATURES_FULL)
    true = SANDYBRIDGE.true_model
    assert model.coefficient("mcore") == pytest.approx(true.w_core, rel=0.15)
    assert model.coefficient("mchipshare") == pytest.approx(
        true.maintenance_watts, rel=0.25
    )
    assert model.coefficient("mdisk") == pytest.approx(
        true.disk_active_watts, rel=0.25
    )


def test_fitted_model_predicts_calibration_points(sb_calibration):
    model = sb_calibration.fit(FEATURES_FULL)
    indexes = [FEATURES_FULL.index(f) for f in FEATURES_FULL]
    predicted = sb_calibration.samples[:, indexes] @ model.coefficients
    errors = np.abs(predicted - sb_calibration.active_watts)
    relative = errors / sb_calibration.active_watts
    assert relative.mean() < 0.05


def test_eq1_fit_has_larger_residuals_than_eq2(sb_calibration):
    """Without the chip-share term the fit must absorb maintenance power
    into core-level coefficients, worsening the residuals (approach #1)."""

    def residual(features):
        model = sb_calibration.fit(features)
        idx = [FEATURES_FULL.index(f) for f in features]
        predicted = sb_calibration.samples[:, idx] @ model.coefficients
        return np.abs(predicted - sb_calibration.active_watts).mean()

    assert residual(FEATURES_EQ1) > residual(FEATURES_EQ2)


def test_cmax_table_matches_paper_scale(sb_calibration):
    """Section 4.1 published table, reproduced within tolerance."""
    table = sb_calibration.cmax_table(FEATURES_FULL)
    assert table["mcore"] == pytest.approx(33.1, rel=0.2)
    assert table["mchipshare"] == pytest.approx(5.6, rel=0.5)
    assert table["mcache"] == pytest.approx(13.9, rel=0.35)
    assert table["mmem"] == pytest.approx(8.2, rel=0.35)


def test_idle_watts_recorded(sb_calibration):
    assert sb_calibration.idle_watts == pytest.approx(26.1)


def test_woodcrest_calibration_sees_two_chips():
    result = calibrate_machine(
        WOODCREST,
        loads=(1.0, 0.5),
        duration=0.1,
        benchmarks=calibration_microbenchmarks()[:3],
    )
    chipshare = result.samples[:, FEATURES_FULL.index("mchipshare")]
    # At full load both chips are active.
    assert chipshare.max() == pytest.approx(2.0, abs=0.1)


def test_load_levels_scale_power(sb_calibration):
    """Within one benchmark, higher load level must draw more power."""
    n_loads = 4
    spin = sb_calibration.active_watts[:n_loads]  # loads 1.0, .75, .5, .25
    assert spin[0] > spin[1] > spin[2] > spin[3]


def test_chaos_calibrations_fan_out_once_and_cache(monkeypatch):
    """Every uncached spec goes into one ``calibrate_machines`` call, and
    the process cache serves the rest in the order asked."""
    from repro.faults import harness
    from repro.hardware import SANDYBRIDGE, WESTMERE

    calls = []

    def fake_calibrate_machines(specs):
        calls.append([spec.name for spec in specs])
        return {spec.name: f"calibration of {spec.name}" for spec in specs}

    monkeypatch.setattr(harness, "_CALIBRATIONS", {"woodcrest": "cached"})
    monkeypatch.setattr(harness, "calibrate_machines", fake_calibrate_machines)
    specs = [WESTMERE, WOODCREST, SANDYBRIDGE]
    expected = {
        "westmere": "calibration of westmere",
        "woodcrest": "cached",
        "sandybridge": "calibration of sandybridge",
    }
    assert harness.chaos_calibrations(specs) == expected
    assert list(harness.chaos_calibrations(specs)) == list(expected)
    assert harness.chaos_calibration(SANDYBRIDGE) == expected["sandybridge"]
    assert calls == [["westmere", "sandybridge"]]
