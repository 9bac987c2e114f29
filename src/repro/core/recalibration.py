"""Online model recalibration from aligned measurements (Section 3.2).

Aligned (measurement, model-metrics) pairs are appended to the original
offline calibration samples and the linear model is refitted with
least-square regression, weighing offline and online samples equally in the
square-error minimization target -- the paper's stated policy.  The refitted
coefficients replace the live model's, so subsequent per-request accounting
immediately benefits (validation approach #3, Fig. 8).

Real meters misbehave: they deliver NaN readings after firmware hiccups,
negative deltas across counter resets, and wild spikes while flapping.  Two
defenses keep a bad meter from poisoning the live model:

* :meth:`OnlineRecalibrator.add_pairs` rejects non-finite or negative
  measured watts and non-finite metric rows before they enter the sample
  window (``rejected_sample_count`` tracks how many were discarded);
* a :class:`RecalibrationGuard` validates every candidate refit -- finite
  coefficients, bounded drift from the last accepted fit, and no large
  regression of the held-out (offline-calibration) error -- and rolls the
  model back to the last good coefficients with exponential backoff when a
  refit is rejected.

The paper reports one recalibration costs about 16 microseconds of linear
algebra; :data:`RECALIBRATION_CPU_SECONDS` records that figure for the
overhead assessment benchmark.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.model import PowerModel

#: Paper-reported CPU cost of one least-square refit (Section 3.5).
RECALIBRATION_CPU_SECONDS = 16e-6


class RecalibrationGuard:
    """Validates candidate refits and backs off after rejections.

    A candidate coefficient vector is accepted only when

    1. every coefficient is finite,
    2. its drift from the last accepted vector is bounded
       (``||c_new - c_good||_2 <= max_relative_drift * (||c_good||_2 + 1)``),
       and
    3. its RMSE on the held-out offline calibration set does not regress
       by more than ``max_error_regression``x relative to the last accepted
       vector's RMSE.  The offline fit is often near-exact (RMSE ~ 0), which
       would make any ratio test vacuous, so the limit has a floor of
       ``error_floor_fraction`` of the mean held-out power: a refit that
       moves offline error within that band is a legitimate adaptation to
       online conditions, not a regression.

    After a rejection the guard tells the recalibrator to skip the next
    ``backoff`` refit rounds; the backoff doubles on consecutive rejections
    up to ``backoff_max`` and resets to ``backoff_initial`` on acceptance --
    so a persistently sick meter costs almost no refit work, but a healthy
    meter re-engages quickly.
    """

    def __init__(
        self,
        max_relative_drift: float = 10.0,
        max_error_regression: float = 2.0,
        error_floor_fraction: float = 0.15,
        error_floor_watts: float = 0.5,
        backoff_initial: int = 1,
        backoff_max: int = 64,
    ) -> None:
        if max_relative_drift <= 0 or max_error_regression <= 0:
            raise ValueError("guard bounds must be positive")
        if backoff_initial < 1 or backoff_max < backoff_initial:
            raise ValueError("backoff range must satisfy 1 <= initial <= max")
        self.max_relative_drift = max_relative_drift
        self.max_error_regression = max_error_regression
        self.error_floor_fraction = error_floor_fraction
        self.error_floor_watts = error_floor_watts
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self.accepted_count = 0
        self.rejected_count = 0
        self.skipped_count = 0
        #: Reason string of the most recent rejection (diagnostics).
        self.last_rejection: Optional[str] = None
        #: Last accepted coefficient vector (None until the first accept).
        self.last_good: Optional[np.ndarray] = None
        self._backoff = backoff_initial
        self._skip_remaining = 0

    # ------------------------------------------------------------------
    def should_skip(self) -> bool:
        """True while a post-rejection backoff window is active."""
        if self._skip_remaining > 0:
            self._skip_remaining -= 1
            self.skipped_count += 1
            return True
        return False

    def evaluate(
        self,
        candidate: np.ndarray,
        current: np.ndarray,
        holdout_X: np.ndarray,
        holdout_y: np.ndarray,
    ) -> bool:
        """Accept or reject a candidate refit against the current vector."""
        reason = self._validate(candidate, current, holdout_X, holdout_y)
        if reason is None:
            self.accepted_count += 1
            self.last_good = np.asarray(candidate, dtype=float).copy()
            self._backoff = self.backoff_initial
            return True
        self.rejected_count += 1
        self.last_rejection = reason
        self._skip_remaining = self._backoff
        self._backoff = min(self._backoff * 2, self.backoff_max)
        return False

    def _validate(
        self,
        candidate: np.ndarray,
        current: np.ndarray,
        holdout_X: np.ndarray,
        holdout_y: np.ndarray,
    ) -> Optional[str]:
        candidate = np.asarray(candidate, dtype=float)
        current = np.asarray(current, dtype=float)
        if not np.isfinite(candidate).all():
            return "non-finite coefficients"
        drift = float(np.linalg.norm(candidate - current))
        allowed = self.max_relative_drift * (float(np.linalg.norm(current)) + 1.0)
        if drift > allowed:
            return f"coefficient drift {drift:.3g} exceeds bound {allowed:.3g}"
        current_rmse = _rmse(holdout_X, current, holdout_y)
        candidate_rmse = _rmse(holdout_X, candidate, holdout_y)
        limit = max(
            current_rmse * self.max_error_regression,
            self.error_floor_fraction * float(np.mean(np.abs(holdout_y))),
            self.error_floor_watts,
        )
        if candidate_rmse > limit:
            return (
                f"held-out RMSE {candidate_rmse:.3g} W regresses past "
                f"{limit:.3g} W"
            )
        return None

    def export_stats(self) -> dict[str, float]:
        """Counters for health reporting (merged by the facility)."""
        return {
            "guard_accepted": float(self.accepted_count),
            "guard_rejected": float(self.rejected_count),
            "guard_skipped": float(self.skipped_count),
        }

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "accepted_count": self.accepted_count,
            "rejected_count": self.rejected_count,
            "skipped_count": self.skipped_count,
            "last_rejection": self.last_rejection,
            "last_good": (
                self.last_good.tolist() if self.last_good is not None else None
            ),
            "backoff": self._backoff,
            "skip_remaining": self._skip_remaining,
        }


def _rmse(X: np.ndarray, coef: np.ndarray, y: np.ndarray) -> float:
    residual = X @ coef - y
    return float(np.sqrt(np.mean(residual * residual)))


class OnlineRecalibrator:
    """Maintains calibration samples and refits a live model on demand."""

    def __init__(
        self,
        model: PowerModel,
        offline_samples: np.ndarray,
        offline_watts: np.ndarray,
        max_online_samples: int = 2000,
        offline_weight: float = 1.0,
        online_weight: float = 1.0,
        guard: Optional[RecalibrationGuard] = None,
    ) -> None:
        offline_samples = np.asarray(offline_samples, dtype=float)
        offline_watts = np.asarray(offline_watts, dtype=float)
        if offline_samples.ndim != 2 or offline_samples.shape[1] != len(model.features):
            raise ValueError("offline sample matrix does not match model features")
        if offline_samples.shape[0] != offline_watts.shape[0]:
            raise ValueError("offline sample and power counts differ")
        self.model = model
        self._offline_X = offline_samples
        self._offline_y = offline_watts
        if max_online_samples < 0:
            raise ValueError("max_online_samples must be non-negative")
        self.max_online_samples = max_online_samples
        #: Online pairs in a fixed ring, allocated by the first
        #: :meth:`add_pairs`: ``_online_len`` pairs starting at row
        #: ``_online_start`` (the oldest), wrapping at the end.  The start
        #: only moves once the ring is full.
        self._online_X = np.empty((0, len(model.features)))
        self._online_y = np.empty(0)
        self._online_start = 0
        self._online_len = 0
        self.offline_weight = offline_weight
        self.online_weight = online_weight
        self.guard = guard
        #: Coefficients the model was built with (the offline fit) -- the
        #: fallback of last resort when no refit was ever accepted.
        self.offline_coefficients = model.coefficients
        self.recalibration_count = 0
        #: Online samples rejected at ingestion (non-finite or negative).
        self.rejected_sample_count = 0
        #: Refits vetoed by the guard (model kept its last good vector).
        self.rolled_back_count = 0

    @property
    def online_sample_count(self) -> int:
        """Number of online samples currently retained."""
        return self._online_len

    def _oldest_first(self, ring: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The retained part of ``ring`` as two views, oldest pair first."""
        start = self._online_start
        return ring[start : self._online_len], ring[:start]

    def add_pairs(self, metric_rows: np.ndarray, measured_watts: np.ndarray) -> None:
        """Add aligned online (metrics, measured active power) pairs.

        Pairs with non-finite metric rows, or non-finite or negative
        measured watts, are discarded and counted: one NaN sample would
        otherwise poison every subsequent least-square refit (NaN in, NaN
        coefficients out), and negative active power is physically
        meaningless (a meter glitch, not a measurement).
        """
        metric_rows = np.asarray(metric_rows, dtype=float)
        measured_watts = np.asarray(measured_watts, dtype=float)
        if metric_rows.ndim != 2 or metric_rows.shape[1] != len(self.model.features):
            raise ValueError("online sample matrix does not match model features")
        n = min(len(metric_rows), len(measured_watts))
        metric_rows = metric_rows[:n]
        measured_watts = measured_watts[:n]
        keep = (
            np.isfinite(measured_watts)
            & (measured_watts >= 0.0)
            & np.isfinite(metric_rows).all(axis=1)
        )
        rows = metric_rows[keep]
        watts = measured_watts[keep]
        self.rejected_sample_count += n - len(watts)
        capacity = self.max_online_samples
        if len(self._online_y) != capacity:
            self._online_X = np.empty((capacity, len(self.model.features)))
            self._online_y = np.empty(capacity)
        if len(watts) >= capacity:
            # The batch alone fills the window: keep its newest pairs.
            self._online_X[:] = rows[len(watts) - capacity :]
            self._online_y[:] = watts[len(watts) - capacity :]
            self._online_start = 0
            self._online_len = capacity
            return
        end = (self._online_start + self._online_len) % capacity
        first = min(len(watts), capacity - end)
        self._online_X[end : end + first] = rows[:first]
        self._online_y[end : end + first] = watts[:first]
        self._online_X[: len(watts) - first] = rows[first:]
        self._online_y[: len(watts) - first] = watts[first:]
        overflow = max(0, self._online_len + len(watts) - capacity)
        self._online_start = (self._online_start + overflow) % capacity
        self._online_len = min(capacity, self._online_len + len(watts))

    def last_good_coefficients(self) -> np.ndarray:
        """The most recent trusted coefficient vector.

        The guard's last accepted vector when one exists, the offline fit
        otherwise.  Meter-health watchdogs restore this on fallback.
        """
        if self.guard is not None and self.guard.last_good is not None:
            return self.guard.last_good.copy()
        return self.offline_coefficients.copy()

    def recalibrate(self) -> np.ndarray:
        """Refit the model from offline + online samples; returns new coefs.

        With no online samples this is a no-op returning current
        coefficients (the offline fit is already optimal for offline data).
        When a :class:`RecalibrationGuard` is attached, the candidate fit is
        validated first; a rejected candidate leaves the live model on its
        current (last good) coefficients and starts the guard's backoff.
        """
        if not self._online_len:
            return self.model.coefficients
        if self.guard is not None and self.guard.should_skip():
            return self.model.coefficients
        X = np.concatenate((self._offline_X, *self._oldest_first(self._online_X)))
        y = np.concatenate((self._offline_y, *self._oldest_first(self._online_y)))
        weights = np.concatenate(
            [
                np.full(len(self._offline_y), self.offline_weight),
                np.full(self._online_len, self.online_weight),
            ]
        )
        fitted = PowerModel.fit(
            X,
            y,
            self.model.features,
            idle_watts=self.model.idle_watts,
            label=self.model.label,
            sample_weights=weights,
        )
        candidate = fitted.coefficients
        if self.guard is not None and not self.guard.evaluate(
            candidate, self.model.coefficients, self._offline_X, self._offline_y
        ):
            self.rolled_back_count += 1
            return self.model.coefficients
        self.model.update_coefficients(candidate)
        self.recalibration_count += 1
        return self.model.coefficients

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Online sample window, counters, live and guard coefficients.

        The offline calibration matrix is construction-time input (rebuilt
        identically on replay) and deliberately not captured.
        """
        return {
            "v": 1,
            "online": [
                [row, watts]
                for row, watts in zip(
                    np.concatenate(self._oldest_first(self._online_X)).tolist(),
                    np.concatenate(self._oldest_first(self._online_y)).tolist(),
                )
            ],
            "recalibration_count": self.recalibration_count,
            "rejected_sample_count": self.rejected_sample_count,
            "rolled_back_count": self.rolled_back_count,
            "model_coefficients": self.model.coefficients.tolist(),
            "guard": (
                self.guard.snapshot_state() if self.guard is not None else None
            ),
        }
