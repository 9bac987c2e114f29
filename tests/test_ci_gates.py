"""The CI toolkit's own machinery.

Covers the ``H101`` hot-path comprehension lint rule, the docs lane's
``D302`` API-table check, the perf lane's ``--trend`` history writer,
the case-table comparator every fingerprint lane runs through, and the
stdlib-only import contract of ``ci.runner`` -- all live under ``ci/``
and have no other automated coverage.
"""

import json
import os
import subprocess
import sys

from ci import perf
from ci.cases import Case, CaseFailed, case_table, compare
from ci.docscheck import _check_api_tables
from ci.lint import lint_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _lint_codes(tmp_path, source):
    path = tmp_path / "sample.py"
    path.write_text(source)
    return [f.code for f in lint_file(str(path), str(tmp_path))]


def test_h101_flags_comprehension_in_marked_function(tmp_path):
    codes = _lint_codes(
        tmp_path,
        "def gather(xs):  # hot-path\n"
        "    return [x + 1 for x in xs]\n",
    )
    assert codes == ["H101"]


def test_h101_flags_dict_comprehension_and_multiline_def(tmp_path):
    codes = _lint_codes(
        tmp_path,
        "def gather(  # hot-path\n"
        "    xs,\n"
        "):\n"
        "    return {x: x + 1 for x in xs}\n",
    )
    assert codes == ["H101"]


def test_h101_ignores_unmarked_functions(tmp_path):
    codes = _lint_codes(
        tmp_path,
        "def cold(xs):\n"
        "    return [x + 1 for x in xs]\n",
    )
    assert codes == []


def test_every_hot_path_marked_function_lints_clean():
    """The shipped tree must satisfy its own H101 rule."""
    from ci.lint import iter_python_files

    findings = []
    for path in iter_python_files(os.path.join(ROOT, "src")):
        findings += [
            f for f in lint_file(path, ROOT) if f.code == "H101"
        ]
    assert findings == []


def test_d302_flags_each_stale_name_beside_a_resolving_one(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "api.md").write_text(
        "## `repro.shard`\n\n"
        "| item | purpose |\n"
        "|---|---|\n"
        "| `ShardPool`, `NoSuchPool` | one live name, one stale |\n"
        "| `run_sharded(config)` → `{name: ShardRunResult}` | prose |\n"
        "| `transport.channel_seed` | qualified by submodule |\n"
    )
    findings = _check_api_tables(str(tmp_path))
    assert [(f.code, f.line) for f in findings] == [("D302", 5)]
    assert "NoSuchPool" in findings[0].message


def test_trend_history_appends_one_json_line_per_run(tmp_path):
    results = {
        "micro-simulator-queue": perf.BenchResult(
            "micro-simulator-queue", "micro", 0.13,
        ),
        "micro-correlation-vs-oracle-ratio": perf.BenchResult(
            "micro-correlation-vs-oracle-ratio", "micro", 0.0002, ratio=9.0,
        ),
    }
    path = str(tmp_path / "results" / "BENCH_history.jsonl")
    perf.append_trend_history(results, [], path)
    perf.append_trend_history(
        results, ["micro-simulator-queue: too slow"], path,
    )
    lines = [
        json.loads(line)
        for line in open(path).read().splitlines()
    ]
    assert len(lines) == 2
    first, second = lines
    assert first["threshold"] == perf.TREND_THRESHOLD
    assert first["problems"] == []
    assert first["benchmarks"]["micro-simulator-queue"]["seconds"] == 0.13
    assert (
        first["benchmarks"]["micro-correlation-vs-oracle-ratio"]["ratio"]
        == 9.0
    )
    assert "ratio" not in first["benchmarks"]["micro-simulator-queue"]
    assert second["problems"] == ["micro-simulator-queue: too slow"]


def _reference():
    return {"a": 1, "b": (2.0, 3.0), "fact": 0}


def _case(variants, check=None):
    return Case("lane", "case", _reference, variants, ("a", "b"), check)


def test_identical_runs_give_no_findings():
    assert compare(_case({"rerun": _reference, "other": _reference})) == []


def test_one_differing_key_gives_one_named_finding():
    findings = compare(_case({
        "rerun": lambda: {"a": 1, "b": (2.0, 3.0)},
        "drifted": lambda: {"a": 1, "b": (2.0, 3.0000000000000004)},
    }))
    assert len(findings) == 1
    message = findings[0].message
    assert message.startswith("lane/case: drifted b differs")
    assert findings[0].code == "DIFF"


def test_failed_fact_check_gives_a_finding():
    def fact(runs):
        return [] if runs["rerun"]["fact"] > 0 else ["rerun: no fact fired"]

    findings = compare(_case({"rerun": _reference}, fact))
    assert [(f.code, f.message) for f in findings] == [
        ("FACT", "lane/case: rerun: no fact fired"),
    ]


def test_failed_runner_is_a_finding_and_skips_its_comparison():
    def crash():
        raise CaseFailed("crash run exited 0, expected SIGKILL")

    runs = {}
    findings = compare(
        _case({"resumed": crash, "rerun": lambda: {"a": 2, "b": ()}}), runs,
    )
    assert [f.message for f in findings] == [
        "lane/case: resumed: crash run exited 0, expected SIGKILL",
        "lane/case: rerun a differs from the reference (2 vs 1)",
        "lane/case: rerun b differs from the reference (() vs (2.0, 3.0))",
    ]
    assert set(runs) == {"reference", "rerun"}


def test_case_table_names_are_unique_per_lane(tmp_path):
    cases = case_table(str(tmp_path))
    names = [(case.lane, case.name) for case in cases]
    assert len(names) == len(set(names))
    assert {case.lane for case in cases} == {
        "determinism", "overload", "telemetry", "restore", "shard",
        "transport", "perf",
    }
    assert all(case.variants and case.keys for case in cases)


def test_ci_runner_imports_neither_numpy_nor_repro():
    """``python -m ci lint``/``docs`` must run before numpy is installed."""
    code = (
        "import sys, ci.runner, ci.cases\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] in ('numpy', 'repro'))\n"
        "print(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
