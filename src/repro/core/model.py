"""The linear event-driven power model (paper Eq. 1 and Eq. 2).

Active power is modelled as a linear function of hardware-event metrics::

    P_active = C_core*M_core + C_ins*M_ins + C_float*M_float
             + C_cache*M_cache + C_mem*M_mem            (Eq. 1)
             + C_chipshare*M_chipshare                  (Eq. 2 adds this)

with optional disk/network terms for the full-system model (Section 3.3).
The same coefficient vector serves both granularities the paper uses:

* **machine-level**, when the metrics sum event rates over all cores (used
  for calibration fitting and for the model trace compared against meters);
* **per-task**, when the metrics come from the core the task runs on (used
  by the per-request accountants).

Models are immutable except through :meth:`PowerModel.update_coefficients`,
which online recalibration (Section 3.2) uses to swap in refitted values.
"""

from __future__ import annotations

import numpy as np

#: All modelled metrics, in canonical coefficient order.
ALL_FEATURES = (
    "mcore",
    "mins",
    "mfloat",
    "mcache",
    "mmem",
    "mchipshare",
    "mdisk",
    "mnet",
)

#: Eq. 1 features: core-level events only (validation approach #1).
FEATURES_EQ1 = ("mcore", "mins", "mfloat", "mcache", "mmem")

#: Eq. 2 features: Eq. 1 plus the shared-chip-power share metric.
FEATURES_EQ2 = FEATURES_EQ1 + ("mchipshare",)

#: Full-system features including peripheral activity.
FEATURES_FULL = FEATURES_EQ2 + ("mdisk", "mnet")


class PowerModel:
    """A calibrated linear active-power model over a feature subset."""

    def __init__(
        self,
        features: tuple[str, ...],
        coefficients: np.ndarray,
        idle_watts: float = 0.0,
        label: str = "model",
    ) -> None:
        unknown = set(features) - set(ALL_FEATURES)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (len(features),):
            raise ValueError(
                f"coefficient shape {coefficients.shape} does not match "
                f"{len(features)} features"
            )
        self.features = tuple(features)
        self._coef = coefficients.copy()
        # Hot-path machinery for :meth:`active_power_row`: positions of
        # this model's features within ALL_FEATURES, a reusable gather
        # buffer, and a fast-path length when the features are a
        # canonical-order prefix (they are for every paper feature set) --
        # a contiguous slice of the caller's row then feeds the dot
        # directly, with no gather copy at all.  The reduction stays
        # ``coef @ buf`` -- BLAS and a pure-Python loop round differently,
        # and attribution must stay bit-identical.
        self._buf = np.empty(len(self.features), dtype=float)
        self._all_indexes = np.array(
            [ALL_FEATURES.index(f) for f in self.features], dtype=np.intp
        )
        prefix = len(features) if self.features == ALL_FEATURES[: len(features)] else 0
        self._prefix_len = prefix
        #: Constant idle power measured at calibration time (Cidle).  Not
        #: part of the active-power estimate; recorded for completeness and
        #: for converting measured full power to active power.
        self.idle_watts = idle_watts
        self.label = label

    @property
    def coefficients(self) -> np.ndarray:
        """Copy of the current coefficient vector (aligned with features)."""
        return self._coef.copy()

    @property
    def coef_view(self) -> np.ndarray:
        """The live coefficient vector itself, for hot paths.

        Callers must treat the array as read-only; mutating it would bypass
        :meth:`update_coefficients`.  Do not hold on to the reference across
        recalibrations -- updates swap in a fresh array.
        """
        return self._coef

    def coefficient(self, feature: str) -> float:
        """Coefficient of one feature (0.0 when the feature is not used)."""
        if feature not in self.features:
            return 0.0
        return float(self._coef[self.features.index(feature)])

    def active_power_row(self, row: np.ndarray) -> float:  # hot-path
        """Active power from a feature row laid out over ``ALL_FEATURES``,
        clamped >= 0.

        ``mcore`` is non-halt cycles per elapsed cycle; ``mins``/
        ``mfloat``/``mcache``/``mmem`` are events per elapsed cycle;
        ``mchipshare`` is the Eq. 3 share of chip maintenance power;
        ``mdisk``/``mnet`` are device utilization fractions.  The caller
        keeps one reusable 8-slot row (or a row view of an ``(n, 8)``
        matrix) and this method projects it onto the model's feature
        subset: a contiguous slice for a prefix feature set, a gather copy
        otherwise, both holding the same values for the ``coef @ buf``
        ddot.
        """
        k = self._prefix_len
        if k:
            watts = float(self._coef @ row[:k])
        else:
            buf = self._buf
            np.take(row, self._all_indexes, out=buf)
            watts = float(self._coef @ buf)
        return max(watts, 0.0)

    def update_coefficients(self, coefficients: np.ndarray) -> None:
        """Swap in recalibrated coefficients (same feature set)."""
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != self._coef.shape:
            raise ValueError("coefficient vector shape mismatch")
        self._coef = coefficients.copy()

    def copy(self, label: str | None = None) -> "PowerModel":
        """Independent copy (recalibration never mutates the original)."""
        return PowerModel(
            self.features,
            self._coef,
            idle_watts=self.idle_watts,
            label=label if label is not None else self.label,
        )

    @staticmethod
    def fit(
        samples: np.ndarray,
        active_watts: np.ndarray,
        features: tuple[str, ...],
        idle_watts: float = 0.0,
        label: str = "fitted",
        sample_weights: np.ndarray | None = None,
    ) -> "PowerModel":
        """Least-square-fit a model from (feature-vector, power) pairs.

        ``samples`` is an ``(n, len(features))`` matrix.  Weighted fitting
        supports the recalibration policy of weighing offline and online
        samples equally (Section 3.2).  Coefficients are clamped at zero:
        a negative event-power contribution is physically meaningless and
        only arises from collinear calibration inputs.
        """
        samples = np.asarray(samples, dtype=float)
        active_watts = np.asarray(active_watts, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != len(features):
            raise ValueError("sample matrix shape does not match features")
        if samples.shape[0] != active_watts.shape[0]:
            raise ValueError("sample and power counts differ")
        if samples.shape[0] < len(features):
            raise ValueError(
                f"need at least {len(features)} samples, got {samples.shape[0]}"
            )
        if sample_weights is not None:
            weights = np.sqrt(np.asarray(sample_weights, dtype=float))
            samples = samples * weights[:, None]
            active_watts = active_watts * weights
        coef, *_ = np.linalg.lstsq(samples, active_watts, rcond=None)
        coef = np.clip(coef, 0.0, None)
        return PowerModel(features, coef, idle_watts=idle_watts, label=label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(
            f"{name}={c:.3g}" for name, c in zip(self.features, self._coef)
        )
        return f"PowerModel({self.label!r}: {terms}, idle={self.idle_watts:.3g})"
