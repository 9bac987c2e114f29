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


def correlation_curve(
    measured: np.ndarray, modeled: np.ndarray, max_delay_samples: int
) -> np.ndarray:
    """Cross-correlation at every delay in ``[0, max_delay_samples]``.

    One :func:`cross_correlation` call per delay: each is an inner product
    over views of the two series, so the curve allocates nothing but
    itself and costs O(delays x samples).  The alignment's windows are 10
    delays for the 1 ms package meter and 8 for the wall meter.
    """
    if max_delay_samples < 0:
        raise ValueError("delay must be non-negative")
    measured = np.asarray(measured, dtype=float)
    modeled = np.asarray(modeled, dtype=float)
    return np.array(
        [
            cross_correlation(measured, modeled, d)
            for d in range(max_delay_samples + 1)
        ]
    )


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
