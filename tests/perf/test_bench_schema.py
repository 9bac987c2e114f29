"""BENCH_perf.json schema 2: ratio fields and the regression gates.

Schema 2 keeps ``seconds`` as a wall time everywhere and carries each
ratio benchmark's machine-independent quantity in an explicit ``ratio``
field; these tests pin the writer and the ``check_regressions`` contract
on both fields.
"""

import json
import os

from ci.perf import (
    MAX_TELEMETRY_DISABLED_RATIO,
    MAX_TELEMETRY_FRAME_ON_RATIO,
    MIN_CORRELATION_RATIO,
    MIN_SHARD_SPEEDUP_2_WORKERS,
    BenchResult,
    check_regressions,
    load_bench_json,
    write_bench_json,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


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
        "micro-telemetry-disabled-ratio": BenchResult(
            "micro-telemetry-disabled-ratio", "micro", 0.05, ratio=1.0,
        ),
        "micro-simulator-queue": BenchResult(
            "micro-simulator-queue", "micro", 0.13,
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
    assert "ratio" not in benchmarks["micro-simulator-queue"]
    # Round trip through the loader.
    assert load_bench_json(path) == json.load(open(path))


def _committed(tmp_path):
    path = str(tmp_path / "committed.json")
    write_bench_json(_results(), path)
    return path


def test_check_regressions_passes_healthy_run(tmp_path):
    assert check_regressions(_results(), _committed(tmp_path)) == []


def test_check_regressions_flags_every_dropped_benchmark():
    """A run that drops benchmarks must not drop their bounds with them:
    against the committed file, a one-benchmark run flags all the rest."""
    committed = os.path.join(ROOT, "BENCH_perf.json")
    partial = {"micro-event-vector": _results()["micro-event-vector"]}
    problems = check_regressions(partial, committed)
    dropped = set(load_bench_json(committed)["benchmarks"]) - set(partial)
    assert len(dropped) == 8
    assert len(problems) == len(dropped)
    assert {problem.split(":")[0] for problem in problems} == dropped
    assert all("not produced by this run" in p for p in problems)


def test_check_regressions_flags_wall_time(tmp_path):
    slow = _results(**{
        "micro-simulator-queue": BenchResult(
            "micro-simulator-queue", "micro", 10.0,
        ),
    })
    problems = check_regressions(slow, _committed(tmp_path))
    assert len(problems) == 1
    assert "micro-simulator-queue" in problems[0]


def test_check_regressions_flags_ratio_floor(tmp_path):
    bad = _results(**{
        "micro-correlation-vs-oracle-ratio": BenchResult(
            "micro-correlation-vs-oracle-ratio", "micro", 0.0002,
            ratio=MIN_CORRELATION_RATIO / 2,
        ),
    })
    problems = check_regressions(bad, _committed(tmp_path))
    assert len(problems) == 1
    assert "below required" in problems[0]


def test_check_regressions_flags_ratio_budget(tmp_path):
    committed = str(tmp_path / "committed.json")
    for name, budget in (
        ("micro-telemetry-disabled-ratio", MAX_TELEMETRY_DISABLED_RATIO),
        ("micro-telemetry-frame-on-ratio", MAX_TELEMETRY_FRAME_ON_RATIO),
    ):
        bad = _results(**{
            name: BenchResult(name, "micro", 0.05, ratio=budget * 2),
        })
        write_bench_json(bad, committed)
        problems = check_regressions(bad, committed)
        assert len(problems) == 1
        assert problems[0].startswith(f"{name}: ratio")
        assert "exceeds budget" in problems[0]


def test_check_regressions_flags_missing_ratio(tmp_path):
    bad = _results(**{
        "micro-correlation-vs-oracle-ratio": BenchResult(
            "micro-correlation-vs-oracle-ratio", "micro", 0.0002,
        ),
    })
    problems = check_regressions(bad, _committed(tmp_path))
    assert problems == [
        "micro-correlation-vs-oracle-ratio: no ratio was measured"
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
    payload = load_bench_json(os.path.join(ROOT, "BENCH_perf.json"))
    assert payload["schema"] == 2
    for name, entry in payload["benchmarks"].items():
        assert entry["seconds"] < 60.0, name
        if "ratio" in entry:
            assert entry["ratio"] > 0.0, name
