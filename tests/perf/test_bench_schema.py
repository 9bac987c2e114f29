"""BENCH_perf.json schema 2: ratio fields, migration, regression gates.

Schema 1 stored the ratio benchmarks' machine-independent ratios *in* the
``seconds`` field, which made them look like multi-second wall times to
anything consuming the file.  Schema 2 keeps ``seconds`` as a wall time
everywhere and adds an explicit ``ratio`` field; these tests pin the
writer, the schema-1 migration, and the ``check_regressions`` contract on
both fields.
"""

import json

from repro.perf import (
    BenchResult,
    check_regressions,
    load_bench_json,
    write_bench_json,
)
from repro.perf.suite import (
    MAX_TELEMETRY_DISABLED_RATIO,
    MIN_ACCOUNTING_RATIO,
    MIN_CORRELATION_RATIO,
    MIN_SHARD_SPEEDUP_2_WORKERS,
    _TELEMETRY_ITERATIONS,
)


def _results(**overrides):
    """A minimal healthy suite result set (ratios well inside bounds)."""
    results = {
        "micro-event-vector": BenchResult(
            "micro-event-vector", "micro", 0.010,
        ),
        "micro-correlation-vs-oracle-ratio": BenchResult(
            "micro-correlation-vs-oracle-ratio", "micro", 0.0002,
            ratio=MIN_CORRELATION_RATIO * 4,
        ),
        "micro-accounting-vs-oracle-ratio": BenchResult(
            "micro-accounting-vs-oracle-ratio", "micro", 0.0005,
            ratio=MIN_ACCOUNTING_RATIO * 4,
        ),
        "micro-telemetry-disabled-ratio": BenchResult(
            "micro-telemetry-disabled-ratio", "micro", 0.05, ratio=1.0,
        ),
        "macro-solr-workload": BenchResult(
            "macro-solr-workload", "macro", 0.13,
        ),
    }
    results.update(overrides)
    return results


def test_write_emits_schema_2_with_ratio_fields(tmp_path):
    path = str(tmp_path / "bench.json")
    payload = write_bench_json(_results(), path)
    assert payload["schema"] == 2
    benchmarks = payload["benchmarks"]
    entry = benchmarks["micro-correlation-vs-oracle-ratio"]
    assert entry["seconds"] == 0.0002  # a wall time, not the ratio
    assert entry["ratio"] == MIN_CORRELATION_RATIO * 4
    assert "ratio" not in benchmarks["macro-solr-workload"]
    # Round trip through the loader: schema 2 passes through unchanged.
    assert load_bench_json(path) == json.load(open(path))


def test_load_migrates_schema_1_ratios(tmp_path):
    legacy = {
        "schema": 1,
        "benchmarks": {
            "micro-correlation-vs-oracle-ratio": {
                "kind": "micro",
                "seconds": 18.52,  # the smuggled ratio
                "vectorized_seconds": 0.0002,
                "reference_seconds": 0.0037,
            },
            "micro-telemetry-disabled-ratio": {
                "kind": "micro",
                "seconds": 1.01,
                "bare_samples_per_sec": 200_000.0,
            },
            "macro-solr-workload": {"kind": "macro", "seconds": 0.29},
        },
    }
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    migrated = load_bench_json(str(path))
    assert migrated["schema"] == 2
    correlation = migrated["benchmarks"]["micro-correlation-vs-oracle-ratio"]
    assert correlation["ratio"] == 18.52
    assert correlation["seconds"] == 0.0002
    telemetry = migrated["benchmarks"]["micro-telemetry-disabled-ratio"]
    assert telemetry["ratio"] == 1.01
    assert telemetry["seconds"] == _TELEMETRY_ITERATIONS / 200_000.0
    # Non-ratio entries are untouched.
    assert migrated["benchmarks"]["macro-solr-workload"]["seconds"] == 0.29


def test_load_migration_without_throughput_disables_wall_check(tmp_path):
    legacy = {
        "schema": 1,
        "benchmarks": {
            "micro-correlation-vs-oracle-ratio": {
                "kind": "micro", "seconds": 18.52,
            },
        },
    }
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(legacy))
    migrated = load_bench_json(str(path))
    entry = migrated["benchmarks"]["micro-correlation-vs-oracle-ratio"]
    assert entry["ratio"] == 18.52
    assert entry["seconds"] == 0.0

    results = {
        "micro-correlation-vs-oracle-ratio": BenchResult(
            "micro-correlation-vs-oracle-ratio", "micro", 999.0,
            ratio=MIN_CORRELATION_RATIO * 2,
        ),
    }
    # A huge wall time passes because the migrated baseline has none.
    assert check_regressions(results, str(path)) == []


def _committed(tmp_path):
    path = str(tmp_path / "committed.json")
    write_bench_json(_results(), path)
    return path


def test_check_regressions_passes_healthy_run(tmp_path):
    assert check_regressions(_results(), _committed(tmp_path)) == []


def test_check_regressions_flags_wall_time(tmp_path):
    slow = _results(**{
        "macro-solr-workload": BenchResult(
            "macro-solr-workload", "macro", 10.0,
        ),
    })
    problems = check_regressions(slow, _committed(tmp_path))
    assert len(problems) == 1
    assert "macro-solr-workload" in problems[0]


def test_check_regressions_flags_ratio_floor(tmp_path):
    bad = _results(**{
        "micro-accounting-vs-oracle-ratio": BenchResult(
            "micro-accounting-vs-oracle-ratio", "micro", 0.0005,
            ratio=MIN_ACCOUNTING_RATIO / 2,
        ),
    })
    problems = check_regressions(bad, _committed(tmp_path))
    assert len(problems) == 1
    assert "below required" in problems[0]


def test_check_regressions_flags_ratio_budget(tmp_path):
    bad = _results(**{
        "micro-telemetry-disabled-ratio": BenchResult(
            "micro-telemetry-disabled-ratio", "micro", 0.05,
            ratio=MAX_TELEMETRY_DISABLED_RATIO * 2,
        ),
    })
    problems = check_regressions(bad, _committed(tmp_path))
    assert len(problems) == 1
    assert "exceeds budget" in problems[0]


def test_check_regressions_flags_missing_ratio(tmp_path):
    bad = _results(**{
        "micro-accounting-vs-oracle-ratio": BenchResult(
            "micro-accounting-vs-oracle-ratio", "micro", 0.0005,
        ),
    })
    problems = check_regressions(bad, _committed(tmp_path))
    assert problems == [
        "micro-accounting-vs-oracle-ratio: no ratio was measured"
    ]


def test_sharded_speedup_floors_follow_core_count(tmp_path, monkeypatch):
    from repro.analysis import parallel

    def sharded(two, four):
        return _results(**{
            "macro-cluster-sharded": BenchResult(
                "macro-cluster-sharded", "macro", 2.0,
                throughput={"speedup_2_workers": two}, ratio=four,
            ),
        })

    committed = str(tmp_path / "committed.json")
    write_bench_json(sharded(two=1.8, four=3.0), committed)
    slow = sharded(two=MIN_SHARD_SPEEDUP_2_WORKERS - 0.2, four=1.3)
    monkeypatch.setattr(parallel, "available_cores", lambda: 1)
    assert check_regressions(slow, committed) == []
    monkeypatch.setattr(parallel, "available_cores", lambda: 2)
    problems = check_regressions(slow, committed)
    assert len(problems) == 1
    assert "2-worker speedup" in problems[0]
    assert check_regressions(
        sharded(two=MIN_SHARD_SPEEDUP_2_WORKERS + 0.1, four=1.3), committed
    ) == []
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    problems = check_regressions(slow, committed)
    assert len(problems) == 2
    assert "4-worker speedup" in problems[1]


def test_committed_bench_json_is_schema_2_with_real_wall_times():
    """The repo-root BENCH_perf.json must carry explicit ratios and keep
    every ``seconds`` field a plausible wall time (< 60 s)."""
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    payload = load_bench_json(os.path.join(root, "BENCH_perf.json"))
    assert payload["schema"] == 2
    for name, entry in payload["benchmarks"].items():
        assert entry["seconds"] < 60.0, name
        if "ratio" in entry:
            assert entry["ratio"] > 0.0, name
