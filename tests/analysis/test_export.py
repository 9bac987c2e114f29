"""Tests for CSV/JSON export of experiment data."""

import csv
import json

import pytest

from repro.analysis.export import (
    export_power_traces_csv,
    export_requests_csv,
    export_requests_json,
    request_records,
    write_csv,
)
from repro.hardware import SANDYBRIDGE
from repro.workloads import SolrWorkload, run_workload


@pytest.fixture(scope="module")
def small_run(sb_cal):
    return run_workload(
        SolrWorkload(), SANDYBRIDGE, sb_cal,
        load_fraction=0.4, duration=1.5, warmup=0.0,
    )


def test_write_csv_round_trip(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, "x"], [2, "y"]])
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows == [["a", "b"], ["1", "x"], ["2", "y"]]


def test_write_csv_creates_directories(tmp_path):
    path = write_csv(tmp_path / "deep" / "dir" / "t.csv", ["a"], [[1]])
    assert path.exists()


def test_request_records_fields(small_run):
    records = request_records(small_run.driver.results)
    assert records
    record = records[0]
    for key in ("rtype", "response_time", "energy_joules",
                "mean_power_watts", "mean_duty_ratio"):
        assert key in record
    assert record["completion"] >= record["arrival"]


def test_export_requests_csv(tmp_path, small_run):
    path = export_requests_csv(tmp_path / "req.csv", small_run.driver.results)
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(small_run.driver.results)
    assert float(rows[0]["energy_joules"]) >= 0


def test_export_requests_csv_empty_raises(tmp_path):
    with pytest.raises(ValueError):
        export_requests_csv(tmp_path / "x.csv", [])


def test_export_requests_json(tmp_path, small_run):
    path = export_requests_json(tmp_path / "req.json", small_run.driver.results)
    data = json.loads(path.read_text())
    assert len(data) == len(small_run.driver.results)
    assert {"rtype", "energy_joules"} <= set(data[0])


def test_export_power_traces_with_meter(tmp_path, small_run):
    facility = small_run.facility
    path = export_power_traces_csv(
        tmp_path / "trace.csv", facility, meter=facility.meter
    )
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    times, _watts = facility.model_trace_series()
    assert len(rows) == len(times) > 0
    measured = [r["measured_watts"] for r in rows if r["measured_watts"]]
    assert measured, "meter samples must align with some trace rows"
