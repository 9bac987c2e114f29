"""Experiment drivers and statistics for the paper's tables and figures."""

from repro.analysis.stats import (
    distribution_histogram,
    relative_error,
    summarize,
)
from repro.analysis.validation import ValidationOutcome, validate_workload
from repro.analysis.prediction import (
    PredictionOutcome,
    predict_at_new_composition,
)
from repro.analysis.experiments import (
    incremental_power_curve,
    measure_workload_power,
    request_power_samples,
    request_energy_samples,
    gae_background_split,
)
from repro.analysis.reporting import render_table
from repro.analysis.conditioning_experiment import (
    ConditioningOutcome,
    run_conditioning_experiment,
)
from repro.analysis.export import (
    export_power_traces_csv,
    export_requests_csv,
    export_requests_json,
    request_records,
    write_csv,
)
from repro.analysis.sweeps import SweepPoint, load_sweep, machine_sweep
from repro.analysis.distribution_experiment import run_all_distribution_policies

__all__ = [
    "distribution_histogram",
    "relative_error",
    "summarize",
    "ValidationOutcome",
    "validate_workload",
    "PredictionOutcome",
    "predict_at_new_composition",
    "incremental_power_curve",
    "measure_workload_power",
    "request_power_samples",
    "request_energy_samples",
    "gae_background_split",
    "render_table",
    "ConditioningOutcome",
    "run_conditioning_experiment",
    "export_power_traces_csv",
    "export_requests_csv",
    "export_requests_json",
    "request_records",
    "write_csv",
    "SweepPoint",
    "load_sweep",
    "machine_sweep",
    "run_all_distribution_policies",
]
