"""Measurement/model trace alignment via cross-correlation (Eq. 4).

Meter readings arrive with an unknown delay (meter reporting latency plus
data-path latency; about 1 ms for the SandyBridge on-chip meter and about
1.2 s for a Wattsup meter over USB).  A poorly calibrated model may misjudge
power *levels* yet still track power *transitions*, so the correct delay is
the shift that maximizes the cross-correlation between the measurement
series and the model-estimate series::

    CrossCorr(t) = sum_i  P_measure(i) * P_model(i + t)        (Eq. 4)

All series here are uniform-period sample arrays, oldest first; delays are
expressed in sample periods (integers) or seconds (floats) as noted.
"""

from __future__ import annotations

import numpy as np


def cross_correlation(
    measured: np.ndarray, modeled: np.ndarray, delay_samples: int
) -> float:
    """Eq. 4 cross-correlation at one hypothetical delay.

    A delay of ``d`` samples means measurement sample ``i`` describes the
    interval the model estimated ``d`` samples earlier.  The score is
    normalized by the number of matching samples so different delays (with
    different overlap lengths) are comparable.
    """
    measured = np.asarray(measured, dtype=float)
    modeled = np.asarray(modeled, dtype=float)
    if delay_samples < 0:
        raise ValueError("delay must be non-negative")
    if delay_samples >= len(modeled):
        return 0.0
    shifted_model = (
        modeled[: len(modeled) - delay_samples]
        if delay_samples > 0
        else modeled
    )
    n = min(len(measured), len(shifted_model))
    if n == 0:
        return 0.0
    a = measured[-n:]
    b = shifted_model[-n:]
    # A single-threaded product, not ``np.dot``: BLAS splits a long dot
    # over threads, so its rounding depends on the host's core count, and
    # on a loaded host each split waits for a busy core (on a 2-core host:
    # stalls of 8-17 ms on 20,000-sample dots; this product takes 14 us).
    return float(np.einsum("i,i->", a, b) / n)


def correlation_curve_reference(
    measured: np.ndarray, modeled: np.ndarray, max_delay_samples: int
) -> np.ndarray:
    """Loop-form curve: one :func:`cross_correlation` call per delay.

    This is the executable definition of the curve.  Each delay is one
    inner product over views of the two series, so it allocates nothing
    but the curve and costs O(delays x samples): :func:`correlation_curve`
    returns it as is for short delay windows, and it is the test oracle
    for the FFT path.
    """
    return np.array(
        [
            cross_correlation(measured, modeled, d)
            for d in range(max_delay_samples + 1)
        ]
    )


#: Longest delay window (in samples) the ``"auto"`` curve computes by
#: direct per-delay products.  On a 2-core x86-64 host (numpy 2.4.6) the
#: direct-vs-FFT crossover sits at 16 delays for 1,000-sample series, 40
#: for 4,000 and above 200 for 20,000; below 1,000 samples it drops to
#: 6-8 delays, where either path takes about 50 us.  The alignment's
#: windows are 10 delays for the 1 ms package meter and 8 for the wall
#: meter.
_DIRECT_MAX_DELAY = 12


def correlation_curve(
    measured: np.ndarray,
    modeled: np.ndarray,
    max_delay_samples: int,
    method: str = "auto",
) -> np.ndarray:
    """Cross-correlation at every delay in ``[0, max_delay_samples]``.

    Two strategies, selected by ``method``:

    * ``"auto"`` -- for a delay window of at most ``_DIRECT_MAX_DELAY``
      samples, :func:`correlation_curve_reference` itself (bit-identical
      to the definition, O(delays x samples), no workspace); ``"fft"``
      for longer windows.
    * ``"fft"`` -- the un-normalized curve is a slice of the full linear
      cross-correlation, computed with three real FFTs; O((L+M) log(L+M))
      regardless of the number of delays.  Rounding error is that of the
      FFT, ~1e-13 relative to the correlation magnitude.
    """
    measured = np.asarray(measured, dtype=float)
    modeled = np.asarray(modeled, dtype=float)
    if max_delay_samples < 0:
        raise ValueError("delay must be non-negative")
    if method not in ("auto", "fft"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and max_delay_samples <= _DIRECT_MAX_DELAY:
        return correlation_curve_reference(measured, modeled, max_delay_samples)
    curve = np.zeros(max_delay_samples + 1)
    if len(measured) and len(modeled):
        _curve_fft(measured, modeled, max_delay_samples, curve)
    return curve


def _curve_fft(
    measured: np.ndarray,
    modeled: np.ndarray,
    max_delay_samples: int,
    curve: np.ndarray,
) -> None:
    """FFT curve: every Eq. 4 numerator is one lag of the full correlation.

    ``numerator(d) = sum_i measured[i] * modeled[i + L - M - d]``, i.e. lag
    ``L - M - d`` of the linear cross-correlation, which equals index
    ``L - 1 - d`` of ``convolve(modeled, reversed(measured))``.
    """
    n_measured = len(measured)
    n_modeled = len(modeled)
    size = 1 << (n_modeled + n_measured - 1).bit_length()
    spectrum = np.fft.rfft(modeled, size) * np.fft.rfft(measured[::-1], size)
    conv = np.fft.irfft(spectrum, size)
    dmax = min(max_delay_samples, n_modeled - 1)
    delays = np.arange(dmax + 1)
    overlaps = np.minimum(n_measured, n_modeled - delays)
    curve[: dmax + 1] = conv[n_modeled - 1 - delays] / overlaps


def estimate_delay(
    measured: np.ndarray,
    modeled: np.ndarray,
    max_delay_samples: int,
) -> int:
    """Most likely measurement delay, in sample periods.

    Fluctuation *patterns* drive the alignment, so both series are centered
    (mean-subtracted) before correlating; otherwise a large DC component
    rewards delay 0 regardless of pattern match.
    """
    measured = np.asarray(measured, dtype=float)
    modeled = np.asarray(modeled, dtype=float)
    measured_c = measured - measured.mean() if len(measured) else measured
    modeled_c = modeled - modeled.mean() if len(modeled) else modeled
    curve = correlation_curve(measured_c, modeled_c, max_delay_samples)
    return int(np.argmax(curve))


def align_series(
    measured: np.ndarray,
    modeled: np.ndarray,
    delay_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair each measurement with the model sample it actually describes.

    Returns ``(measured', modeled')`` arrays of equal length where
    ``measured'[i]`` and ``modeled'[i]`` cover the same physical interval.
    These pairs feed the online recalibration regression.
    """
    measured = np.asarray(measured, dtype=float)
    modeled = np.asarray(modeled, dtype=float)
    if delay_samples < 0:
        raise ValueError("delay must be non-negative")
    if delay_samples > 0:
        modeled = modeled[: len(modeled) - delay_samples]
    n = min(len(measured), len(modeled))
    if n == 0:
        return np.array([]), np.array([])
    return measured[-n:], modeled[-n:]
