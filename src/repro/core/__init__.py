"""Power containers -- the paper's contribution.

This package implements the three key techniques of the paper on top of the
simulated hardware (:mod:`repro.hardware`) and kernel (:mod:`repro.kernel`):

1. :mod:`~repro.core.model`, :mod:`~repro.core.chipshare`,
   :mod:`~repro.core.accounting` -- event-driven multicore power attribution
   with shared chip maintenance power (Eq. 1-3);
2. :mod:`~repro.core.alignment`, :mod:`~repro.core.recalibration`,
   :mod:`~repro.core.calibration` -- offline model calibration plus
   measurement-aligned online recalibration (Eq. 4);
3. :mod:`~repro.core.container`, :mod:`~repro.core.registry`,
   :mod:`~repro.core.facility` -- on-the-fly request tracking and
   per-request power/energy statistics.

Management case studies build on these:
:mod:`~repro.core.conditioning` (fair power capping via per-request
duty-cycle modulation) and :mod:`~repro.core.distribution`
(heterogeneity-aware request placement).
"""

from repro.core.model import PowerModel, FEATURES_EQ1, FEATURES_EQ2
from repro.core.chipshare import ChipShareEstimator
from repro.core.container import ContainerStats, PowerContainer
from repro.core.registry import BACKGROUND_CONTAINER_ID, ContainerRegistry
from repro.core.alignment import (
    align_series,
    correlation_curve,
    correlation_curve_reference,
    cross_correlation,
    estimate_delay,
)
from repro.core.recalibration import OnlineRecalibrator, RecalibrationGuard
from repro.core.calibration import (
    CalibrationResult,
    calibrate_machine,
    calibrate_machines,
    calibration_microbenchmarks,
)
from repro.core.accounting import CoreAccountant, ObserverEffect
from repro.core.facility import (
    ApproachConfig,
    FacilityHealth,
    PowerContainerFacility,
)
from repro.core.conditioning import PowerConditioner
from repro.core.distribution import EnergyProfileTable
from repro.core.anomaly import (
    AnomalyReport,
    DetectingConditionerBridge,
    PowerAnomalyDetector,
)
from repro.core.budget import EnergyBudgetConditioner
from repro.core.clients import ClientEnergyLedger, ClientUsage
from repro.core.dvfs import DvfsConditioner
from repro.core.powercap import (
    BROWNOUT_LADDER,
    BrownoutTransition,
    PowerCapEnforcer,
)

__all__ = [
    "PowerModel",
    "FEATURES_EQ1",
    "FEATURES_EQ2",
    "ChipShareEstimator",
    "ContainerStats",
    "PowerContainer",
    "BACKGROUND_CONTAINER_ID",
    "ContainerRegistry",
    "align_series",
    "correlation_curve",
    "correlation_curve_reference",
    "cross_correlation",
    "estimate_delay",
    "OnlineRecalibrator",
    "RecalibrationGuard",
    "CalibrationResult",
    "calibrate_machine",
    "calibrate_machines",
    "calibration_microbenchmarks",
    "CoreAccountant",
    "ObserverEffect",
    "ApproachConfig",
    "FacilityHealth",
    "PowerContainerFacility",
    "PowerConditioner",
    "EnergyProfileTable",
    "AnomalyReport",
    "DetectingConditionerBridge",
    "PowerAnomalyDetector",
    "ClientEnergyLedger",
    "ClientUsage",
    "DvfsConditioner",
    "EnergyBudgetConditioner",
    "BROWNOUT_LADDER",
    "BrownoutTransition",
    "PowerCapEnforcer",
]
