"""CI lane orchestration: subprocess lanes, the lanes that run rows of the
fingerprint case table (:mod:`ci.cases`), and the combined merge gate."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from functools import partial

from ci.report import Finding, Reporter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Examples executed by the ``examples`` lane, in README order.
EXAMPLES = (
    "quickstart.py",
    "request_tracing.py",
    "power_virus_isolation.py",
    "heterogeneous_cluster.py",
    "energy_billing.py",
    "custom_service.py",
)


def _run(argv: list[str], extra_env=None) -> subprocess.CompletedProcess:
    """Run ``argv`` from the repo root with ``src`` importable; output
    (stdout and stderr together) is captured."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env.update(extra_env or {})
    return subprocess.run(
        argv, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _subprocess_lane(argv: list[str], label: str, extra_env=None):
    proc = _run(argv, extra_env)
    if proc.returncode == 0:
        return True, [], label
    tail = "\n".join(proc.stdout.splitlines()[-30:])
    print(tail)
    return False, [Finding(
        label, 0, "EXIT", f"exited with status {proc.returncode}",
    )], label


def run_json(argv: list[str]):
    """Run a CLI subprocess; return (process, parsed-last-line-or-None)."""
    proc = _run(argv, {"CI": "true"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return proc, json.loads(lines[-1])
        except ValueError:
            pass
    return proc, None


def run_tests(full: bool = False):
    """tier-1 pytest lane; ``full`` includes tests marked ``slow``."""
    argv = [sys.executable, "-m", "pytest", "tests", "-q",
            "-p", "no:cacheprovider"]
    if not full:
        argv += ["-m", "not slow"]
    label = "pytest tests" + ("" if full else " -m 'not slow'")
    return _subprocess_lane(argv, label, extra_env={"CI": "true"})


def run_figures():
    """Regenerate every paper table/figure benchmark."""
    argv = [sys.executable, "-m", "pytest", "benchmarks", "-q",
            "-p", "no:cacheprovider"]
    return _subprocess_lane(argv, "pytest benchmarks", extra_env={"CI": "true"})


def run_bench():
    """The repo benchmark's own tests: every workload's ``--quick`` run."""
    argv = [sys.executable, "-m", "pytest", "bench", "-q",
            "-p", "no:cacheprovider"]
    return _subprocess_lane(argv, "pytest bench", extra_env={"CI": "true"})


def run_chaos():
    """Chaos lane: every fault scenario must pass its invariants."""
    argv = [sys.executable, "-m", "repro", "chaos", "--all", "--seed", "42"]
    return _subprocess_lane(argv, "repro chaos --all --seed 42",
                            extra_env={"CI": "true"})


def _compare_lane(lane: str, after=None):
    """Run ``lane``'s rows of the case table, then its other steps.

    ``after(runs, workdir) -> findings`` is the lane's non-comparison
    step; ``runs`` maps each case name to its runners' outputs, and
    ``workdir`` still holds the crash drills' checkpoints.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ci.cases import case_table, compare

    findings = []
    runs: dict = {}
    with tempfile.TemporaryDirectory(prefix=f"repro-ci-{lane}-") as workdir:
        rows = [case for case in case_table(workdir) if case.lane == lane]
        for case in rows:
            findings += compare(case, runs.setdefault(case.name, {}))
        if after is not None:
            findings += after(runs, workdir)
    comparisons = sum(len(case.variants) * len(case.keys) for case in rows)
    detail = f"cases: {len(rows)}, fingerprint comparisons: {comparisons}"
    return not findings, findings, detail


def run_determinism():
    """Seeded double-runs plus in-process checkpoint/resume identity."""
    return _compare_lane("determinism")


def run_overload():
    """Brownout scenarios double-run, plus the CLI demo.

    The shed set, the brownout ladder, and every admission counter are in
    the report fingerprint, so a nondeterministic shedding decision fails
    even if both runs pass their invariants.
    """
    def demo(runs, workdir):
        return _subprocess_lane(
            [sys.executable, "-m", "repro", "overload", "--seed", "42"],
            "repro overload --seed 42", extra_env={"CI": "true"},
        )[1]

    return _compare_lane("overload", demo)


def run_telemetry():
    """Telemetry neutrality and trace determinism, single-machine and
    sharded, plus the dashboard the bench workflow uploads."""
    def export_dashboard(runs, workdir):
        on = runs["sharded-workers"]["reference"]["result"]
        path = os.path.join(ROOT, "results", "dashboard-ci.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(on.observability.store.dashboard_json(
                meta={"lane": "telemetry", "scenario": "solr", "shards": 2},
                alerts=on.observability.engine.alert_table(),
            ))
        return []

    return _compare_lane("telemetry", export_dashboard)


def run_restore():
    """Kill checkpointed runs mid-flight, resume, compare; then flip one
    byte in the newest Solr checkpoint and demand the resume is
    *rejected* with a diagnostic, never silently loaded."""
    def corrupt_checkpoint(runs, workdir):
        from ci.cases import scratch

        directory = scratch(workdir, "restore", "solr")
        names = sorted(os.listdir(directory)) if os.path.isdir(directory) \
            else []
        if not names:
            return []
        path = os.path.join(directory, names[-1])
        with open(path, "rb") as handle:
            raw = bytearray(handle.read())
        raw[len(raw) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(raw)
        proc, _ = run_json(
            [sys.executable, "-m", "repro", "resume", "--dir", directory],
        )
        if proc.returncode == 0:
            problem = "corrupt checkpoint was silently loaded"
        elif "digest mismatch" not in proc.stdout:
            problem = ("corrupt checkpoint rejection lacks a diagnostic "
                       "(no 'digest mismatch' in output)")
        else:
            return []
        return [Finding("ci/runner.py", 1, "RESTORE", problem)]

    return _compare_lane("restore", corrupt_checkpoint)


def run_shard():
    """Shard-count invariance plus pool-worker-kill recovery."""
    return _compare_lane("shard")


def run_transport():
    """Lossy-channel invariance plus coordinator SIGKILL/resume."""
    return _compare_lane("transport")


def run_perf_lane(trend: bool = False, write: str | None = None):
    """The perf suite's bounds, bracketed by the determinism guard.

    The guard case runs the seeded Solr gate before and after the suite;
    the two must be identical.  Then :func:`ci.perf.check_regressions`
    holds the suite to the committed ``BENCH_perf.json``: the wall-time
    threshold (tightened under ``trend``), the oracle ratios, the
    telemetry budgets and the shard speedup floors.  ``trend`` also
    appends a line to the history file; ``write`` saves the fresh
    results as a new baseline file.
    """
    def bounds(runs, workdir):
        from ci import perf

        results = runs["solr-guard"]["after-suite"]["suite"]
        problems = perf.check_regressions(
            results, os.path.join(ROOT, "BENCH_perf.json"),
            perf.TREND_THRESHOLD if trend else perf.DEFAULT_THRESHOLD,
        )
        if trend:
            perf.append_trend_history(
                results, problems, os.path.join(ROOT, perf.TREND_HISTORY),
            )
        if write:
            perf.write_bench_json(results, write)
        return [Finding("BENCH_perf.json", 1, "PERF", p) for p in problems]

    return _compare_lane("perf", bounds)


def run_examples():
    """Every example script end-to-end in quick mode, each its own process."""
    findings = []
    for name in EXAMPLES:
        path = os.path.join(ROOT, "examples", name)
        ok, lane_findings, _ = _subprocess_lane(
            [sys.executable, path], f"examples/{name}",
            extra_env={"REPRO_QUICK": "1"},
        )
        if not ok:
            findings.extend(lane_findings)
    return not findings, findings, f"{len(EXAMPLES)} examples"


#: The merge gate (``all``) in run order, and what ``all --fast`` keeps.
MERGE_GATE = (
    "lint", "docs", "test", "examples", "chaos", "overload", "telemetry",
    "restore", "shard", "transport", "bench", "perf", "determinism",
)
FAST_GATE = ("lint", "docs", "test", "determinism")


def main(argv: list[str] | None = None) -> int:
    import argparse

    lanes = {
        "lint": (run_lint_lane, "AST lint over the repository"),
        "docs": (run_docs_lane, "docs/README cross-reference check"),
        "determinism": (run_determinism, "seeded double-run equality gate"),
        "test": (run_tests, "tier-1 pytest lane"),
        "examples": (run_examples, "run every example in quick mode"),
        "figures": (run_figures, "regenerate the paper tables/figures"),
        "bench": (run_bench,
                  "the repo benchmark's tests (--quick workload runs)"),
        "chaos": (run_chaos, "fault-injection scenarios + invariants"),
        "overload": (run_overload,
                     "overload/brownout scenarios double-run + the CLI demo"),
        "perf": (run_perf_lane,
                 "benchmark regression check + fingerprint guard"),
        "telemetry": (run_telemetry, "trace-fingerprint double-run + "
                                     "telemetry-neutrality gate"),
        "restore": (run_restore, "SIGKILL/resume fingerprint identity + "
                                 "corrupt-file rejection"),
        "shard": (run_shard,
                  "shard-count invariance + pool-worker-kill recovery"),
        "transport": (run_transport, "lossy-transport fingerprint "
                                     "invariance + coordinator "
                                     "SIGKILL/resume identity + "
                                     "corrupt-frame rejection"),
    }
    parser = argparse.ArgumentParser(
        prog="python -m ci",
        description=sys.modules["ci"].__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="lane", required=True)
    parsers = {
        name: sub.add_parser(name, help=help_text)
        for name, (_, help_text) in lanes.items()
    }
    parsers["lint"].add_argument(
        "--fix", action="store_true",
        help="rewrite tab-indent/trailing-whitespace/final-newline findings",
    )
    parsers["test"].add_argument(
        "--full", action="store_true", help="include tests marked slow",
    )
    parsers["perf"].add_argument(
        "--trend", action="store_true",
        help="nightly mode: the tighter trend threshold, plus a summary "
             "line appended to results/BENCH_history.jsonl",
    )
    parsers["perf"].add_argument(
        "--write", metavar="PATH",
        help="also write this run's results as a BENCH_perf.json baseline",
    )
    sub.add_parser(
        "all", help="the merge gate: " + " + ".join(MERGE_GATE),
    ).add_argument(
        "--fast", action="store_true",
        help="skip slow tests and every lane but " + ", ".join(FAST_GATE),
    )
    options = vars(parser.parse_args(argv))
    lane = options.pop("lane")

    reporter = Reporter()
    if lane == "all":
        fast = options["fast"]
        for name in FAST_GATE if fast else MERGE_GATE:
            run = lanes[name][0]
            reporter.run(
                name, partial(run, full=not fast) if name == "test" else run,
            )
    else:
        reporter.run(lane, partial(lanes[lane][0], **options))

    print(reporter.summary())
    return 0 if reporter.ok else 1


def run_lint_lane(fix: bool = False):
    from ci.lint import run_lint

    return run_lint(ROOT, fix=fix)


def run_docs_lane():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ci.docscheck import run_docscheck

    return run_docscheck(ROOT)
