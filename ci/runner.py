"""CI lane orchestration: subprocess lanes + the combined merge gate."""

from __future__ import annotations

import os
import subprocess
import sys
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


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _subprocess_lane(argv: list[str], label: str, extra_env=None):
    env = _env()
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        argv, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode == 0:
        return True, [], label
    tail = "\n".join(proc.stdout.splitlines()[-30:])
    print(tail)
    return False, [Finding(
        label, 0, "EXIT", f"exited with status {proc.returncode}",
    )], label


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


def run_overload():
    """Overload lane: brownout scenarios double-run + the CLI demo.

    Each overload scenario runs twice with the same seed and the two report
    fingerprints must match bit-for-bit -- the shed set, the brownout
    ladder, and every admission counter are part of the fingerprint, so a
    nondeterministic shedding decision fails here even if both runs pass
    their invariants.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.faults import run_scenario, scenario_by_name

    findings = []
    names = ("arrival-storm", "cap-squeeze", "storm-during-crash")
    for name in names:
        first = run_scenario(scenario_by_name(name), seed=42)
        second = run_scenario(scenario_by_name(name), seed=42)
        for violation in first.violations:
            findings.append(Finding(
                "ci/runner.py", 1, "CHAOS", f"{name}: {violation}",
            ))
        if first.fingerprint() != second.fingerprint():
            findings.append(Finding(
                "ci/runner.py", 1, "NDET",
                f"overload scenario {name!r} fingerprint differs between "
                f"identically-seeded runs",
            ))
    ok, lane_findings, _ = _subprocess_lane(
        [sys.executable, "-m", "repro", "overload", "--seed", "42"],
        "repro overload --seed 42", extra_env={"CI": "true"},
    )
    findings.extend(lane_findings)
    detail = f"{len(names)} scenarios double-run + CLI demo"
    return not findings, findings, detail


def run_telemetry():
    """Telemetry lane: tracing must be deterministic and strictly neutral.

    For every determinism-gate chaos scenario: (1) a baseline run without
    telemetry and an instrumented run must produce bit-identical report
    fingerprints (enabling telemetry never changes attribution); (2) two
    instrumented runs with the same seed must produce bit-identical
    ``trace_fingerprint()`` digests; (3) a run with a disabled handle must
    record zero events.  A Solr workload run repeats the neutrality check
    against the determinism gate's own fingerprint dict.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ci.determinism import _CHAOS_SCENARIOS, _CHAOS_SEED, _run_once
    from repro.faults import run_scenario, scenario_by_name
    from repro.telemetry import Telemetry

    findings = []
    for name in _CHAOS_SCENARIOS:
        scenario = scenario_by_name(name)
        baseline = run_scenario(scenario, seed=_CHAOS_SEED)
        first = Telemetry()
        traced = run_scenario(scenario, seed=_CHAOS_SEED, telemetry=first)
        if baseline.fingerprint() != traced.fingerprint():
            findings.append(Finding(
                "ci/runner.py", 1, "TELEM",
                f"scenario {name!r}: enabling telemetry changed the report "
                f"fingerprint (instrumentation is not neutral)",
            ))
        second = Telemetry()
        run_scenario(scenario, seed=_CHAOS_SEED, telemetry=second)
        if first.trace_fingerprint() != second.trace_fingerprint():
            findings.append(Finding(
                "ci/runner.py", 1, "NDET",
                f"scenario {name!r}: trace fingerprint differs between "
                f"identically-seeded runs",
            ))
        disabled = Telemetry(enabled=False)
        off = run_scenario(scenario, seed=_CHAOS_SEED, telemetry=disabled)
        if len(disabled.tracer.events) or len(disabled.registry):
            findings.append(Finding(
                "ci/runner.py", 1, "TELEM",
                f"scenario {name!r}: a disabled telemetry handle recorded "
                f"events or metrics",
            ))
        if baseline.fingerprint() != off.fingerprint():
            findings.append(Finding(
                "ci/runner.py", 1, "TELEM",
                f"scenario {name!r}: a disabled telemetry handle changed "
                f"the report fingerprint",
            ))

    solr_baseline = _run_once()
    solr_traced = _run_once(facility_kwargs={"telemetry": Telemetry()})
    for key in solr_baseline:
        if solr_baseline[key] != solr_traced[key]:
            findings.append(Finding(
                "ci/runner.py", 1, "TELEM",
                f"determinism-gate key {key!r} changed when telemetry was "
                f"enabled on the Solr run",
            ))

    # Cluster half: sharded neutrality + merged-stream determinism.  One
    # sharded Solr world per telemetry mode -- all four fingerprint sets
    # must be bit-identical -- then the telemetry-on case rerun on two
    # fork workers, where observation overlaps the next barrier, with
    # equal merged trace/alert/store digests, and the dashboard exported
    # as the bench workflow's artifact.
    from repro.shard.scenario import run_scenario as run_shard_scenario

    sharded = {
        mode: run_shard_scenario("solr", n_shards=2, telemetry=mode,
                                 duration=0.5)
        for mode in ("off", "disabled", "store", "on")
    }
    for mode in ("disabled", "store", "on"):
        if sharded[mode].fingerprints != sharded["off"].fingerprints:
            findings.append(Finding(
                "ci/runner.py", 1, "TELEM",
                f"sharded telemetry mode {mode!r} changed the run "
                f"fingerprints (cluster instrumentation is not neutral)",
            ))
    rerun = run_shard_scenario("solr", n_shards=2, workers=2,
                               telemetry="on", duration=0.5)
    for key in ("trace_fingerprint", "alert_fingerprint",
                "store_fingerprint"):
        if (rerun.telemetry_summary[key]
                != sharded["on"].telemetry_summary[key]):
            findings.append(Finding(
                "ci/runner.py", 1, "NDET",
                f"merged {key} differs between the workers=1 and "
                f"workers=2 sharded runs",
            ))
    dashboard_path = os.path.join(ROOT, "results", "dashboard-ci.json")
    os.makedirs(os.path.dirname(dashboard_path), exist_ok=True)
    with open(dashboard_path, "w") as fh:
        fh.write(sharded["on"].observability.store.dashboard_json(
            meta={"lane": "telemetry", "scenario": "solr", "shards": 2},
            alerts=sharded["on"].observability.engine.alert_table(),
        ))

    detail = (f"{len(_CHAOS_SCENARIOS)} scenarios x (neutrality + double-run "
              f"+ disabled identity) + Solr gate neutrality + sharded "
              f"4-mode neutrality + merged streams at workers 1 and 2")
    return not findings, findings, detail


#: Regression threshold for ``perf --trend``: the nightly lane runs on one
#: runner class, so it can afford a much tighter bound than the default
#: merge-gate threshold -- fail on >20% regression vs the committed file.
TREND_THRESHOLD = 1.2

#: Where ``perf --trend`` appends its one-line-per-run history.
TREND_HISTORY = os.path.join("results", "BENCH_history.jsonl")


def _append_trend_history(results, problems) -> str:
    """Append one JSON line summarizing this perf run; returns the path."""
    import json
    import time

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or None
    except OSError:
        sha = None
    benchmarks = {}
    for name, result in results.items():
        entry = {"kind": result.kind, "seconds": result.seconds}
        if result.ratio is not None:
            entry["ratio"] = result.ratio
        benchmarks[name] = entry
    line = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sha": sha,
        "threshold": TREND_THRESHOLD,
        "problems": list(problems),
        "benchmarks": benchmarks,
    }
    path = os.path.join(ROOT, TREND_HISTORY)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def run_perf_lane(trend: bool = False):
    """Perf lane: benchmark regression check bracketed by fingerprint runs.

    ``ci/determinism.py``'s seeded experiment runs once before and once
    after the benchmark suite; the two fingerprints must be identical, so a
    benchmark that leaks global state (or an optimization that changes
    attribution math) fails here even if it is fast.

    ``trend=True`` is the nightly mode: the wall-time threshold tightens
    to :data:`TREND_THRESHOLD` (>20% over the committed baseline fails),
    and every run appends a one-line JSON summary to
    ``results/BENCH_history.jsonl`` so the Actions artifact accumulates a
    queryable per-commit trend.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ci.determinism import _run_once
    from repro.perf import check_regressions, run_suite

    findings = []
    before = _run_once()
    results = run_suite()
    problems = check_regressions(
        results, os.path.join(ROOT, "BENCH_perf.json"),
        **({"threshold": TREND_THRESHOLD} if trend else {}),
    )
    for problem in problems:
        findings.append(Finding("BENCH_perf.json", 1, "PERF", problem))
    after = _run_once()
    for key in before:
        if before[key] != after[key]:
            findings.append(Finding(
                "ci/runner.py", 1, "NDET",
                f"fingerprint {key!r} differs across the perf suite -- "
                f"a benchmark perturbed global state",
            ))
    detail = (f"{len(results)} benchmarks, "
              f"{len(before)} fingerprint keys compared")
    if trend:
        _append_trend_history(results, problems)
        detail += f", trend line appended to {TREND_HISTORY}"
    return not findings, findings, detail


#: Restore-lane cases: (label, ``repro run-ckpt`` arguments, checkpoint
#: index to SIGKILL after).  One Solr macro run and one chaos scenario, both
#: short enough for the merge gate but long enough to cross several
#: auto-checkpoint safe-points.
RESTORE_CASES = (
    ("solr", ["--kind", "solr", "--duration", "0.6", "--warmup", "0.1",
              "--period", "0.2"], 1),
    ("chaos", ["--kind", "chaos", "--scenario", "meter-nan-burst",
               "--duration-scale", "0.5", "--period", "0.3"], 1),
    # Checkpoint 3 is taken while the meter is stale (mid-outage), so the
    # SIGKILL/resume path must reproduce the watchdog's demotion by replay.
    ("chaos-stale", ["--kind", "chaos", "--scenario", "meter-flapping",
                     "--duration-scale", "1.0", "--period", "0.2"], 3),
)

#: Fingerprint keys every resumed run must reproduce bit-for-bit.
RESTORE_KEYS = ("report", "trace", "shed", "batch")


def _run_json(argv: list[str]):
    """Run a CLI subprocess; return (returncode, parsed-last-line-or-None)."""
    import json

    env = _env()
    env["CI"] = "true"
    proc = subprocess.run(
        argv, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    payload = None
    if proc.returncode == 0 and lines:
        try:
            payload = json.loads(lines[-1])
        except ValueError:
            payload = None
    return proc, payload


def run_restore():
    """Restore lane: kill a checkpointed run mid-flight, resume, compare.

    For each case in :data:`RESTORE_CASES`: (1) a clean one-shot
    checkpointed run records its four fingerprints (report, trace, shed,
    batch); (2) the same run is SIGKILLed by its own ``on_checkpoint`` hook
    right after a checkpoint is durably on disk; (3) ``python -m repro
    resume`` restarts from that checkpoint and must reproduce all four
    fingerprints bit-for-bit.  A corrupt-file smoke then flips one byte in
    the newest checkpoint and demands the resume is *rejected* with a
    diagnostic, never silently loaded.
    """
    import shutil
    import signal
    import tempfile

    findings = []
    workdir = tempfile.mkdtemp(prefix="repro-restore-")
    solr_dir = None
    try:
        for name, case_args, kill_after in RESTORE_CASES:
            base = [sys.executable, "-m", "repro", "run-ckpt", *case_args]
            _, clean = _run_json(base)
            if clean is None:
                findings.append(Finding(
                    "ci/runner.py", 1, "RESTORE",
                    f"{name}: clean checkpointed run failed",
                ))
                continue
            ckpt_dir = os.path.join(workdir, name)
            if name == "solr":
                solr_dir = ckpt_dir
            crashed, _ = _run_json(
                base + ["--dir", ckpt_dir,
                        "--kill-after-checkpoint", str(kill_after)],
            )
            if crashed.returncode != -signal.SIGKILL:
                findings.append(Finding(
                    "ci/runner.py", 1, "RESTORE",
                    f"{name}: crash run exited {crashed.returncode}, "
                    f"expected SIGKILL",
                ))
                continue
            _, resumed = _run_json(
                [sys.executable, "-m", "repro", "resume", "--dir", ckpt_dir],
            )
            if resumed is None:
                findings.append(Finding(
                    "ci/runner.py", 1, "RESTORE",
                    f"{name}: resume after SIGKILL failed",
                ))
                continue
            if not resumed.get("resumed"):
                findings.append(Finding(
                    "ci/runner.py", 1, "RESTORE",
                    f"{name}: resume did not restore from a checkpoint",
                ))
            for key in RESTORE_KEYS:
                if clean[key] != resumed[key]:
                    findings.append(Finding(
                        "ci/runner.py", 1, "RESTORE",
                        f"{name}: resumed {key} fingerprint "
                        f"{resumed[key]!r} != uninterrupted {clean[key]!r}",
                    ))
        if solr_dir is not None and os.path.isdir(solr_dir):
            names = sorted(os.listdir(solr_dir))
            if names:
                path = os.path.join(solr_dir, names[-1])
                with open(path, "rb") as handle:
                    raw = bytearray(handle.read())
                raw[len(raw) // 2] ^= 0xFF
                with open(path, "wb") as handle:
                    handle.write(raw)
                proc, _ = _run_json(
                    [sys.executable, "-m", "repro", "resume",
                     "--dir", solr_dir],
                )
                if proc.returncode == 0:
                    findings.append(Finding(
                        "ci/runner.py", 1, "RESTORE",
                        "corrupt checkpoint was silently loaded",
                    ))
                elif "digest mismatch" not in proc.stdout:
                    findings.append(Finding(
                        "ci/runner.py", 1, "RESTORE",
                        "corrupt checkpoint rejection lacks a diagnostic "
                        "(no 'digest mismatch' in output)",
                    ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = (f"{len(RESTORE_CASES)} crash/resume cases x "
              f"{len(RESTORE_KEYS)} fingerprints + corrupt-file rejection")
    return not findings, findings, detail


#: Shard counts whose fingerprints must be identical in the shard lane.
SHARD_COUNTS = (1, 2, 4)

#: Fingerprint keys every sharded run must reproduce bit-for-bit.
SHARD_KEYS = ("report", "shed", "batch", "energy")


def run_shard():
    """Shard lane: shard-count invariance + pool-worker-kill recovery.

    (1) The Solr macro world is run with 1, 2, and 4 shards and every
    fingerprint key must match the 1-shard run bit-for-bit; (2) the same
    invariance is checked on the chaos world (crashes, failover,
    re-placement in the loop); (3) the chaos world is run again on two
    fork workers with one worker SIGKILLed mid-run -- the pool must
    replay the dead worker's shards from directive history, verify the
    replayed state digest, and still produce identical fingerprints.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.shard import run_scenario, run_sharded
    from repro.shard.scenario import SCENARIOS

    findings = []
    baselines = {}
    for world in ("solr", "chaos"):
        fingerprints = {}
        for n_shards in SHARD_COUNTS:
            result = run_scenario(world, n_shards=n_shards)
            fingerprints[n_shards] = result.fingerprints
        baselines[world] = fingerprints[SHARD_COUNTS[0]]
        for n_shards in SHARD_COUNTS[1:]:
            for key in SHARD_KEYS:
                if fingerprints[n_shards][key] != baselines[world][key]:
                    findings.append(Finding(
                        "ci/runner.py", 1, "SHARD",
                        f"{world}: {n_shards}-shard {key} fingerprint "
                        f"differs from 1-shard",
                    ))
    killed = {"done": False}

    def kill_hook(pool, epoch_index):
        if epoch_index == 2 and pool.parallel and not killed["done"]:
            pool.kill_worker(0)
            killed["done"] = True

    result = run_sharded(
        SCENARIOS["chaos"](n_shards=4, workers=2), pool_hook=kill_hook
    )
    if killed["done"]:
        if result.worker_restarts < 1:
            findings.append(Finding(
                "ci/runner.py", 1, "SHARD",
                "worker-kill case recorded no worker restart",
            ))
        for key in SHARD_KEYS:
            if result.fingerprints[key] != baselines["chaos"][key]:
                findings.append(Finding(
                    "ci/runner.py", 1, "SHARD",
                    f"worker-kill resume: {key} fingerprint differs "
                    f"from the uninterrupted run",
                ))
    detail = (
        f"{len(SHARD_COUNTS)} shard counts x 2 worlds x "
        f"{len(SHARD_KEYS)} fingerprints"
    )
    if killed["done"]:
        detail += " + worker-kill resume"
    else:  # fork unavailable: invariance still checked, recovery skipped
        detail += " (worker-kill skipped: no fork)"
    return not findings, findings, detail


#: Worlds whose fingerprints must survive transport weather unchanged.
TRANSPORT_WORLDS = ("solr", "chaos")

#: Per-world duration overrides keeping the transport sweep affordable.
TRANSPORT_DURATIONS = {"solr": 0.75, "chaos": 1.0}

#: Transport-stat suffixes that count an injected channel fault.
TRANSPORT_FAULT_SUFFIXES = (
    "dropped", "duplicated", "reordered", "delayed", "corrupted",
)


def _transport_faults_injected(stats: dict) -> int:
    """Total channel faults a run's transport stats record."""
    return sum(
        value for key, value in stats.items()
        if key.endswith(TRANSPORT_FAULT_SUFFIXES)
    )


def run_transport():
    """Transport lane: lossy-channel invariance + coordinator recovery.

    (1) Both invariance worlds run under the ``chaos`` transport preset
    (drops, duplicates, reorders, multi-epoch delays, and detectable
    corruption on every worker link) and must reproduce the fault-free
    fingerprints bit-for-bit, with the channel stats proving faults
    actually fired; (2) the ``corrupt`` preset must show checksummed
    frames being *rejected* (coordinator- and worker-side) while the
    fingerprints still match; (3) a two-fork-worker chaos run under lossy
    transport is SIGKILLed by its own barrier-checkpoint hook -- after one
    worker was already SIGKILLed and revived in the same run -- and
    ``python -m repro shard --resume`` must land on the uninterrupted
    run's fingerprints exactly.
    """
    import shutil
    import signal
    import tempfile

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.shard import run_scenario

    findings = []
    baselines = {}
    for world in TRANSPORT_WORLDS:
        duration = TRANSPORT_DURATIONS[world]
        clean = run_scenario(world, n_shards=2, duration=duration)
        baselines[world] = clean.fingerprints
        faulty = run_scenario(
            world, n_shards=2, duration=duration, transport="chaos",
        )
        if _transport_faults_injected(faulty.transport_stats) == 0:
            findings.append(Finding(
                "ci/runner.py", 1, "TRANSPORT",
                f"{world}: chaos transport preset injected no faults",
            ))
        for key in SHARD_KEYS:
            if faulty.fingerprints[key] != clean.fingerprints[key]:
                findings.append(Finding(
                    "ci/runner.py", 1, "TRANSPORT",
                    f"{world}: {key} fingerprint diverged under chaos "
                    f"transport weather",
                ))
    corrupt = run_scenario(
        "chaos", n_shards=2, duration=TRANSPORT_DURATIONS["chaos"],
        transport="corrupt",
    )
    rejected = (
        corrupt.transport_stats.get("corrupt_rejected", 0)
        + corrupt.transport_stats.get("worker_corrupt_rejected", 0)
    )
    if rejected == 0:
        findings.append(Finding(
            "ci/runner.py", 1, "TRANSPORT",
            "corrupt preset: no corrupted frame was checksum-rejected",
        ))
    for key in SHARD_KEYS:
        if corrupt.fingerprints[key] != baselines["chaos"][key]:
            findings.append(Finding(
                "ci/runner.py", 1, "TRANSPORT",
                f"corrupt preset: {key} fingerprint diverged from the "
                f"fault-free run",
            ))
    # -- coordinator SIGKILL + resume over the CLI ----------------------
    case = [
        sys.executable, "-m", "repro", "shard",
        "--scenario", "chaos", "--shards", "4", "--workers", "2",
        "--duration", "1.0", "--transport", "lossy",
    ]
    workdir = tempfile.mkdtemp(prefix="repro-transport-")
    try:
        _, clean = _run_json(case)
        if clean is None:
            findings.append(Finding(
                "ci/runner.py", 1, "TRANSPORT",
                "clean lossy CLI run failed",
            ))
        else:
            crashed, _ = _run_json(
                case + ["--ckpt-dir", workdir, "--ckpt-every", "1",
                        "--kill-after-checkpoint", "1",
                        "--kill-worker-at", "1"],
            )
            if crashed.returncode != -signal.SIGKILL:
                findings.append(Finding(
                    "ci/runner.py", 1, "TRANSPORT",
                    f"crash run exited {crashed.returncode}, expected "
                    f"SIGKILL",
                ))
            else:
                _, resumed = _run_json(
                    [sys.executable, "-m", "repro", "shard", "--resume",
                     "--ckpt-dir", workdir, "--transport", "lossy"],
                )
                if resumed is None:
                    findings.append(Finding(
                        "ci/runner.py", 1, "TRANSPORT",
                        "resume after coordinator SIGKILL failed",
                    ))
                else:
                    if not resumed.get("resumed"):
                        findings.append(Finding(
                            "ci/runner.py", 1, "TRANSPORT",
                            "resume did not restore from a checkpoint",
                        ))
                    for key in SHARD_KEYS:
                        if resumed[key] != clean[key]:
                            findings.append(Finding(
                                "ci/runner.py", 1, "TRANSPORT",
                                f"resumed {key} fingerprint {resumed[key]!r}"
                                f" != uninterrupted {clean[key]!r}",
                            ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = (
        f"{len(TRANSPORT_WORLDS)} worlds x {len(SHARD_KEYS)} fingerprints "
        f"under chaos weather + corrupt-frame rejection + coordinator "
        f"SIGKILL/resume identity"
    )
    return not findings, findings, detail


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


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m ci",
        description=sys.modules["ci"].__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="lane", required=True)
    lint_parser = sub.add_parser("lint", help="AST lint over the repository")
    lint_parser.add_argument(
        "--fix", action="store_true",
        help="rewrite tab-indent/trailing-whitespace/final-newline findings",
    )
    sub.add_parser("docs", help="docs/README cross-reference check")
    sub.add_parser("determinism", help="seeded double-run equality gate")
    test_parser = sub.add_parser("test", help="tier-1 pytest lane")
    test_parser.add_argument(
        "--full", action="store_true", help="include tests marked slow",
    )
    sub.add_parser("examples", help="run every example in quick mode")
    sub.add_parser("figures", help="regenerate the paper tables/figures")
    sub.add_parser(
        "bench", help="the repo benchmark's tests (--quick workload runs)",
    )
    sub.add_parser("chaos", help="fault-injection scenarios + invariants")
    sub.add_parser(
        "overload",
        help="overload/brownout scenarios double-run + the CLI demo",
    )
    perf_parser = sub.add_parser(
        "perf", help="benchmark regression check + fingerprint guard",
    )
    perf_parser.add_argument(
        "--trend", action="store_true",
        help="nightly mode: tighten the threshold to "
             f"{TREND_THRESHOLD}x and append a summary line to "
             "results/BENCH_history.jsonl",
    )
    sub.add_parser(
        "telemetry",
        help="trace-fingerprint double-run + telemetry-neutrality gate",
    )
    sub.add_parser(
        "restore",
        help="SIGKILL/resume fingerprint identity + corrupt-file rejection",
    )
    sub.add_parser(
        "shard",
        help="shard-count invariance + pool-worker-kill recovery",
    )
    sub.add_parser(
        "transport",
        help="lossy-transport fingerprint invariance + coordinator "
             "SIGKILL/resume identity + corrupt-frame rejection",
    )
    all_parser = sub.add_parser(
        "all", help="the merge gate: lint + docs + tests + examples "
                    "+ chaos + overload + telemetry + restore + shard "
                    "+ transport + bench + perf + determinism",
    )
    all_parser.add_argument(
        "--fast", action="store_true",
        help="skip slow tests and the examples lane",
    )
    args = parser.parse_args(argv)

    reporter = Reporter()
    if args.lane == "lint":
        reporter.run("lint", lambda: run_lint_lane(fix=args.fix))
    elif args.lane == "docs":
        reporter.run("docs", run_docs_lane)
    elif args.lane == "determinism":
        reporter.run("determinism", run_determinism_lane)
    elif args.lane == "test":
        reporter.run("test", lambda: run_tests(full=args.full))
    elif args.lane == "examples":
        reporter.run("examples", run_examples)
    elif args.lane == "figures":
        reporter.run("figures", run_figures)
    elif args.lane == "bench":
        reporter.run("bench", run_bench)
    elif args.lane == "chaos":
        reporter.run("chaos", run_chaos)
    elif args.lane == "overload":
        reporter.run("overload", run_overload)
    elif args.lane == "perf":
        reporter.run("perf", lambda: run_perf_lane(trend=args.trend))
    elif args.lane == "telemetry":
        reporter.run("telemetry", run_telemetry)
    elif args.lane == "restore":
        reporter.run("restore", run_restore)
    elif args.lane == "shard":
        reporter.run("shard", run_shard)
    elif args.lane == "transport":
        reporter.run("transport", run_transport)
    elif args.lane == "all":
        reporter.run("lint", run_lint_lane)
        reporter.run("docs", run_docs_lane)
        reporter.run("test", lambda: run_tests(full=not args.fast))
        if not args.fast:
            reporter.run("examples", run_examples)
            reporter.run("chaos", run_chaos)
            reporter.run("overload", run_overload)
            reporter.run("telemetry", run_telemetry)
            reporter.run("restore", run_restore)
            reporter.run("shard", run_shard)
            reporter.run("transport", run_transport)
            reporter.run("bench", run_bench)
            reporter.run("perf", run_perf_lane)
        reporter.run("determinism", run_determinism_lane)

    print(reporter.summary())
    return 0 if reporter.ok else 1


def run_lint_lane(fix: bool = False):
    from ci.lint import run_lint

    return run_lint(ROOT, fix=fix)


def run_docs_lane():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ci.docscheck import run_docscheck

    return run_docscheck(ROOT)


def run_determinism_lane():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ci.determinism import run_determinism

    return run_determinism(ROOT)
