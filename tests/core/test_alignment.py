"""Tests for Eq. 4 cross-correlation alignment."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import align_series, cross_correlation, estimate_delay
from repro.core.alignment import correlation_curve


def _phased_signal(n, period=40, amplitude=5.0, base=30.0, seed=0):
    """A square-ish power signal with distinct phases."""
    rng = np.random.default_rng(seed)
    phases = (np.arange(n) // period) % 2
    return base + amplitude * phases + rng.normal(0, 0.2, n)


def test_zero_delay_detected():
    signal = _phased_signal(400)
    assert estimate_delay(signal, signal, max_delay_samples=50) == 0


def test_known_delay_recovered():
    model = _phased_signal(400)
    delay = 12
    measured = model[:-delay]  # measurement lags: last 12 model samples unseen
    est = estimate_delay(measured, model, max_delay_samples=50)
    assert est == delay


def test_delay_recovered_with_level_error():
    """A badly calibrated model misjudges levels but tracks transitions;
    alignment must still find the right delay (the paper's key insight)."""
    model = _phased_signal(400)
    delay = 7
    measured = (model * 1.8 + 10.0)[:-delay]  # scaled + offset measurement
    est = estimate_delay(measured, model, max_delay_samples=30)
    assert est == delay


def test_delay_recovered_despite_noise():
    rng = np.random.default_rng(3)
    model = _phased_signal(600, seed=1)
    delay = 20
    measured = model[:-delay] + rng.normal(0, 1.0, 600 - delay)
    est = estimate_delay(measured, model, max_delay_samples=40)
    assert abs(est - delay) <= 1


def test_cross_correlation_rejects_negative_delay():
    with pytest.raises(ValueError):
        cross_correlation(np.ones(5), np.ones(5), -1)


def test_cross_correlation_beyond_series_is_zero():
    assert cross_correlation(np.ones(5), np.ones(5), 10) == 0.0


def test_correlation_curve_length():
    curve = correlation_curve(np.ones(50), np.ones(50), 10)
    assert len(curve) == 11


def test_align_series_pairs_matching_intervals():
    model = np.arange(10, dtype=float)
    measured = model[:-3] * 2  # delay of 3 samples
    m, mod = align_series(measured, model, delay_samples=3)
    assert len(m) == len(mod) == 7
    assert np.allclose(m, mod * 2)


def test_align_series_zero_delay_identity():
    a = np.arange(5, dtype=float)
    m, mod = align_series(a, a, 0)
    assert np.allclose(m, mod)


def test_align_series_empty_inputs():
    m, mod = align_series(np.array([]), np.array([]), 0)
    assert len(m) == 0 and len(mod) == 0


def test_align_series_rejects_negative_delay():
    with pytest.raises(ValueError):
        align_series(np.ones(5), np.ones(5), -2)


def test_align_unequal_lengths_right_aligned():
    model = np.arange(20, dtype=float)
    measured = np.array([17.0, 18.0, 19.0])  # most recent three, no delay
    m, mod = align_series(measured, model, 0)
    assert np.allclose(mod, [17.0, 18.0, 19.0])


@settings(max_examples=30)
@given(delay=st.integers(min_value=0, max_value=25))
def test_property_any_delay_recovered(delay):
    model = _phased_signal(500, period=23, seed=9)
    measured = model if delay == 0 else model[:-delay]
    assert estimate_delay(measured, model, max_delay_samples=30) == delay


# ---------------------------------------------------------------------------
# The curve against the per-delay definition
# ---------------------------------------------------------------------------

_series = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=0,
    max_size=64,
)


@settings(max_examples=120)
@given(measured=_series, modeled=_series, max_delay=st.integers(0, 90))
def test_vectorized_curve_matches_loop_oracle(measured, modeled, max_delay):
    """The curve is :func:`cross_correlation` at every delay, exactly;
    empty series and delays past either series' end included."""
    measured = np.array(measured)
    modeled = np.array(modeled)
    curve = correlation_curve(measured, modeled, max_delay)
    assert curve.shape == (max_delay + 1,)
    for delay in range(max_delay + 1):
        assert curve[delay] == cross_correlation(measured, modeled, delay)


def test_correlation_curve_rejects_negative_delay():
    with pytest.raises(ValueError):
        correlation_curve(np.ones(5), np.ones(5), -1)


def test_correlation_curve_empty_series_is_zero():
    assert np.all(correlation_curve(np.array([]), np.ones(5), 3) == 0.0)
    assert np.all(correlation_curve(np.ones(5), np.array([]), 3) == 0.0)


def test_delay_search_at_package_meter_shape_allocates_no_fft_workspace():
    """One round's delay search over 20 s of 1 ms history (10 delays) costs
    the two centred copies of the series, not 2^16-point spectra."""
    rng = np.random.default_rng(3)
    measured = 20.0 + rng.normal(size=20_000)
    modeled = 19.0 + rng.normal(size=20_000)
    estimate_delay(measured, modeled, 10)
    tracemalloc.start()
    try:
        estimate_delay(measured, modeled, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
