"""Tests for the linear power model (Eq. 1/2) and its fitting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import PowerModel, FEATURES_EQ1, FEATURES_EQ2
from repro.core.model import ALL_FEATURES


def _row(**metrics):
    """A feature row over ``ALL_FEATURES``, zero where not given."""
    return np.array([metrics.get(name, 0.0) for name in ALL_FEATURES])


def test_active_power_is_linear_combination():
    model = PowerModel(("mcore", "mins"), np.array([10.0, 2.0]))
    row = _row(mcore=0.5, mins=1.0)
    assert model.active_power_row(row) == pytest.approx(10.0 * 0.5 + 2.0)


def test_active_power_clamped_at_zero():
    model = PowerModel(("mcore",), np.array([0.0]))
    assert model.active_power_row(_row(mcore=1.0)) == 0.0


def test_unknown_feature_rejected():
    with pytest.raises(ValueError):
        PowerModel(("mcore", "bogus"), np.array([1.0, 2.0]))


def test_coefficient_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        PowerModel(("mcore",), np.array([1.0, 2.0]))


def test_coefficient_lookup():
    model = PowerModel(("mcore", "mmem"), np.array([3.0, 7.0]))
    assert model.coefficient("mmem") == 7.0
    assert model.coefficient("mins") == 0.0  # not in feature set


def test_eq1_excludes_chipshare():
    assert "mchipshare" not in FEATURES_EQ1
    assert "mchipshare" in FEATURES_EQ2


def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(0)
    truth = np.array([8.0, 1.5, 170.0])
    features = ("mcore", "mins", "mcache")
    X = rng.uniform(0, 1, size=(50, 3)) * np.array([1.0, 2.5, 0.02])
    y = X @ truth
    model = PowerModel.fit(X, y, features)
    assert np.allclose(model.coefficients, truth, rtol=1e-8)


def test_fit_clamps_negative_coefficients():
    # Degenerate target forcing a negative coefficient in the raw fit.
    X = np.array([[1.0, 1.0], [1.0, 0.5], [1.0, 0.0], [1.0, 0.75]])
    y = np.array([1.0, 1.5, 2.0, 1.25])  # decreasing in second feature
    model = PowerModel.fit(X, y, ("mcore", "mins"))
    assert (model.coefficients >= 0).all()


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError):
        PowerModel.fit(np.ones((1, 2)), np.ones(1), ("mcore", "mins"))


def test_fit_shape_validation():
    with pytest.raises(ValueError):
        PowerModel.fit(np.ones((5, 3)), np.ones(5), ("mcore", "mins"))
    with pytest.raises(ValueError):
        PowerModel.fit(np.ones((5, 2)), np.ones(4), ("mcore", "mins"))


def test_weighted_fit_prefers_heavier_samples():
    features = ("mcore",)
    X = np.array([[1.0], [1.0]])
    y = np.array([10.0, 20.0])
    heavy_first = PowerModel.fit(X, y, features, sample_weights=np.array([100.0, 1.0]))
    heavy_second = PowerModel.fit(X, y, features, sample_weights=np.array([1.0, 100.0]))
    assert heavy_first.coefficient("mcore") < heavy_second.coefficient("mcore")


def test_update_coefficients_swaps_values():
    model = PowerModel(("mcore",), np.array([1.0]))
    model.update_coefficients(np.array([5.0]))
    assert model.coefficient("mcore") == 5.0
    with pytest.raises(ValueError):
        model.update_coefficients(np.array([1.0, 2.0]))


def test_copy_is_independent():
    model = PowerModel(("mcore",), np.array([1.0]), label="a")
    clone = model.copy(label="b")
    clone.update_coefficients(np.array([9.0]))
    assert model.coefficient("mcore") == 1.0
    assert clone.label == "b"


def test_batch_matches_scalar_path():
    """Each row view of an ``(n, 8)`` batch gives the scalar ``coef . x``,
    through the prefix slice and through the gather of a non-prefix
    feature set alike."""
    rows = np.array([
        _row(mcore=0.5, mins=1.0, mcache=7.0),
        _row(mcore=1.0, mins=2.5),
        _row(),
    ])
    prefix = PowerModel(("mcore", "mins"), np.array([10.0, 2.0]))
    gathered = PowerModel(("mins", "mcore"), np.array([2.0, 10.0]))
    assert prefix._prefix_len == 2 and gathered._prefix_len == 0
    for row in rows:
        expected = 10.0 * row[0] + 2.0 * row[1]
        assert prefix.active_power_row(row) == pytest.approx(expected)
        assert gathered.active_power_row(row) == pytest.approx(expected)


def test_metric_sample_vector_projection_order():
    """A metric row is projected in the model's feature order."""
    row = _row(mcore=1.0, mins=2.0, mcache=3.0)
    assert PowerModel(("mcache", "mcore"), np.array([1.0, 0.0])) \
        .active_power_row(row) == 3.0
    assert PowerModel(("mcache", "mcore"), np.array([0.0, 1.0])) \
        .active_power_row(row) == 1.0


@given(
    coef=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=2),
    m=st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2),
)
def test_property_power_nonnegative_and_monotone_in_metrics(coef, m):
    model = PowerModel(("mcore", "mins"), np.array(coef))
    base = model.active_power_row(_row(mcore=m[0], mins=m[1]))
    bigger = model.active_power_row(_row(mcore=m[0] + 0.1, mins=m[1]))
    assert base >= 0
    assert bigger >= base
