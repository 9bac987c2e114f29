"""Experiment drivers and statistics for the paper's tables and figures.

Every name below is loaded from its module on first access, so importing
one ``repro.analysis.*`` module (or one name from the package) loads only
that module and what it imports.
"""

import importlib

#: Exported name -> the ``repro.analysis`` module defining it.
_EXPORTS = {
    "distribution_histogram": "stats",
    "relative_error": "stats",
    "summarize": "stats",
    "ValidationOutcome": "validation",
    "validate_workload": "validation",
    "PredictionOutcome": "prediction",
    "predict_at_new_composition": "prediction",
    "incremental_power_curve": "experiments",
    "measure_workload_power": "experiments",
    "request_power_samples": "experiments",
    "request_energy_samples": "experiments",
    "gae_background_split": "experiments",
    "render_table": "reporting",
    "ConditioningOutcome": "conditioning_experiment",
    "run_conditioning_experiment": "conditioning_experiment",
    "export_power_traces_csv": "export",
    "export_requests_csv": "export",
    "export_requests_json": "export",
    "request_records": "export",
    "write_csv": "export",
    "SweepPoint": "sweeps",
    "load_sweep": "sweeps",
    "machine_sweep": "sweeps",
    "run_all_distribution_policies": "distribution_experiment",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
