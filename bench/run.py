"""Run one benchmark workload and report its metrics.

    python3 bench/run.py --workload solr-pkgmeter --seed 7 --seconds 25 --trace 0

With ``--trace 0`` the run cycles through up to :data:`WORLDS` worlds
derived from ``--seed``, setting each up afresh and running it untraced,
until ``--seconds`` of host time are used (at least :data:`MIN_REPEATS`
repeats).  Repeats of one world run identical simulated work, so their
per-step times are combined by median; the end-to-end metrics then weigh
every world run equally, whatever its number of repeats.  With
``--trace 1`` the first world runs once untraced and then traced, and
the per-layer split is reported instead.

Every metric is printed as ``metric workload value unit``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any run
raised, broke request closure, or produced a fingerprint other than the
recorded one (on the default seed) or than an earlier run of the same
world.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Every end-to-end metric, ``(name, unit)``.
END_TO_END = (
    ("sim_req_per_s", "req/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Worlds a timed run cycles through.  One world's request mix and
#: step-time tail follow its own arrival sequence; pooling worlds keeps
#: the reported numbers from following the seed.
WORLDS = 8

#: Repeats (each a distinct world) a timed run makes at least: enough
#: set-ups for a median, and enough steps for a p90 on every workload.
MIN_REPEATS = 4


def world_seed(seed: int, index: int) -> int:
    """Simulation seed of world ``index`` of a run (world 0 is ``seed``)."""
    return seed + 1_000_000 * index


def tail_percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) when fewer than ten samples lie beyond the
    rank, because such a tail is set by one or two outliers.
    """
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} "
            f"beyond it; need at least 10"
        )
    return ordered[rank - 1]


class Checker:
    """Counts runs and failures for one invocation.

    Every run of one simulation seed must produce the same fingerprint,
    whatever its worker count and whether it was traced; ``expected``
    holds fingerprints recorded beforehand (seed -> fingerprint).
    """

    def __init__(self, expected: dict[int, str]) -> None:
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {reason}")
        print(f"FAILED {label}: {reason}", file=sys.stderr)

    def check(self, label: str, seed: int, outcome) -> None:
        error = outcome.closure_error()
        expected = self.expected.setdefault(seed, outcome.fingerprint)
        if error is None and outcome.fingerprint != expected:
            error = (f"seed {seed}: fingerprint {outcome.fingerprint[:16]} "
                     f"!= expected {expected[:16]}")
        if error is not None:
            self.fail(label, error)

    def attempt(self, label: str, fn):
        """Run ``fn()``; a raised exception counts as a failed run."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # one broken run must not hide the others
            self.fail(label, traceback.format_exc())
            return None


def one_repeat(workload, seed: int, workers: int, checker: Checker,
               label: str):
    """Set up and run one fresh world; ``None`` when the run raised.

    Host times are divided by the host's measured slowdown (see
    :mod:`bench.clock`): each step by that at its two ends, set-up and
    run by the run's mean.  The probe times are kept so raw times can be
    redone.
    """
    from bench.clock import StepClock

    def body():
        gc.collect()
        clock = StepClock()
        start = time.perf_counter()
        world = workload.setup(seed, workers)
        ready = time.perf_counter()
        outcome = workload.run(world, clock)
        done = time.perf_counter()
        slowdown = clock.slowdown()
        return {
            "seed": seed, "probes_s": clock.probes,
            "setup_s": (ready - start) / slowdown,
            "run_s": (done - ready - clock.probe_s) / slowdown,
            "steps_s": clock.normalized_steps(),
            "outcome": outcome,
        }

    repeat = checker.attempt(label, body)
    if repeat is not None:
        checker.check(label, seed, repeat["outcome"])
    return repeat


def timed_metrics(workload, seed: int, workers: int, seconds: float,
                  checker: Checker, worlds: int, min_repeats: int):
    """Cycle fresh untraced runs of ``worlds`` worlds for ``seconds``."""
    deadline = time.perf_counter() + seconds
    repeats = []
    while True:
        index = len(repeats) % worlds
        started = time.perf_counter()
        repeat = one_repeat(workload, world_seed(seed, index), workers,
                            checker, f"repeat {len(repeats)} (world {index})")
        if repeat is None:
            break
        repeats.append(repeat)
        # Start another repeat only if one as long as this fits.
        if len(repeats) >= min_repeats and 2 * time.perf_counter() \
                - started > deadline:
            break
    if len(repeats) < min_repeats:
        return {}, repeats
    by_world: dict[int, list] = {}
    for repeat in repeats:
        by_world.setdefault(repeat["seed"], []).append(repeat)
    steps: list[float] = []
    completed = 0
    run_s = 0.0
    for group in by_world.values():
        steps.extend(
            statistics.median(column)
            for column in zip(*(r["steps_s"] for r in group))
        )
        completed += group[0]["outcome"].completed
        run_s += statistics.median(r["run_s"] for r in group)
    metrics = {
        "sim_req_per_s": completed / run_s,
        "step_ms_p50": 1e3 * statistics.median(steps),
        "setup_s": statistics.median(r["setup_s"] for r in repeats),
        "peak_rss_mb": peak_rss_mb(),
    }
    try:
        metrics["step_ms_p90"] = 1e3 * tail_percentile(steps, 90)
    except ValueError as exc:
        print(f"step_ms_p90 not reported: {exc}", file=sys.stderr)
    return metrics, repeats


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def traced_run(workload, seed: int, workers: int, checker: Checker,
               coordinator_only: bool, label: str):
    """One run with the layer entry points wrapped before set-up."""
    from bench.clock import StepClock
    from bench.tracing import SpanRecorder, entry_times, patched

    def body():
        recorder = SpanRecorder()
        clock = StepClock()
        with patched(recorder, coordinator_only) as installed:
            gc.collect()
            world = workload.setup(seed, workers)
            recorder.clear()
            start = time.perf_counter()
            outcome = workload.run(world, clock)
            wall = time.perf_counter() - start - clock.probe_s
        spans = recorder.arrays()
        return {"outcome": outcome, "wall": wall,
                "run_s": wall / clock.slowdown(), "spans": spans,
                "installed": installed,
                "times": entry_times(spans, installed)}

    run = checker.attempt(label, body)
    if run is not None:
        checker.check(label, seed, run["outcome"])
    return run


def traced_metrics(workload, seed: int, workers: int, checker: Checker):
    """The per-layer split of one traced run against an untraced one.

    A cluster workload is traced twice: at its own worker count with only
    the coordinator-side entries wrapped (forked workers run unwrapped
    code), which gives the pool's barrier wait, and in-process with one
    worker and every entry wrapped, which gives everything else.
    """
    from bench import tracing

    full_workers = 1 if workload.kind == "cluster" else workers
    baseline = one_repeat(workload, seed, full_workers, checker, "untraced")
    coordinator = None
    if workload.kind == "cluster":
        coordinator = traced_run(workload, seed, workers, checker, True,
                                 "traced coordinator")
    full = traced_run(workload, seed, full_workers, checker, False,
                      "traced")
    if baseline is None or full is None or (
            workload.kind == "cluster" and coordinator is None):
        return {}, []
    times = full["times"]
    metrics = tracing.layer_metrics(times, full["installed"], full["wall"])
    metrics.update({name: 0.0 for name, _unit in tracing.PER_LAYER
                    if name not in metrics})
    metrics.update(full["outcome"].counters)
    metrics["attr_err_pct"] = full["outcome"].attr_err_pct
    samples = times.get(tracing.SAMPLE, (0, 0.0, 0.0))[0]
    if samples:
        metrics["core.accounting.us_per_sample"] = (
            1e6 * metrics["core.accounting.self_s"] / samples
        )
    rounds, recalib_s, _ = times.get(tracing.RECALIB_TICK, (0, 0.0, 0.0))
    metrics["core.alignment.rounds"] = float(rounds)
    if rounds:
        metrics["core.alignment.ms_per_round"] = 1e3 * recalib_s / rounds
    if coordinator is not None:
        busy = times.get(tracing.WORKER_EPOCH, (0, 0.0, 0.0))[1]
        wait = coordinator["times"].get(
            tracing.PROCESS_EXCHANGE, (0, 0.0, 0.0)
        )[1]
        metrics["shard.worker.busy_s"] = busy
        metrics["shard.pool.wait_s"] = wait
        if wait > 0.0:
            metrics["shard.pool.parallel_eff"] = busy / (workers * wait)
    metrics["trace.overhead"] = full["run_s"] / baseline["run_s"]
    missing = sorted(set(full["installed"].missing) | set(
        coordinator["installed"].missing if coordinator else ()
    ))
    metrics["trace.missing"] = float(len(missing))
    runs = [("untraced", baseline)] + (
        [("traced coordinator", coordinator)] if coordinator else []
    ) + [("traced", full)]
    return metrics, runs


def host_block(workers: int) -> dict:
    """What the numbers were measured on."""
    import numpy

    from bench.workloads import host_nproc

    return {
        "nproc": host_nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workers": workers,
    }


def raw_repeat(repeat) -> dict:
    """One run as plain data, so medians and quartiles can be redone."""
    outcome = repeat["outcome"]
    raw = {key: repeat[key]
           for key in ("seed", "probes_s", "setup_s", "run_s", "steps_s",
                       "wall")
           if key in repeat}
    raw.update(
        fingerprint=outcome.fingerprint, n_requests=outcome.n_requests,
        completed=outcome.completed, shed=outcome.shed,
        unfinished=outcome.unfinished, attr_err_pct=outcome.attr_err_pct,
        counters=outcome.counters,
    )
    if "times" in repeat:
        raw["entries"] = repeat["times"]
        raw["missing"] = repeat["installed"].missing
    return raw


def write_record(path: Path, record: dict, runs) -> None:
    """The raw record as JSON, and any traced run's spans beside it."""
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for label, run in runs:
        if "spans" in run:
            labels = np.array(
                [label for _layer, label in run["installed"].entries]
            )
            np.savez_compressed(
                path.with_name(f"{path.stem}-{label.replace(' ', '-')}"
                               f"-spans.npz"),
                labels=labels, **run["spans"],
            )


def main(argv=None) -> int:
    from bench.tracing import PER_LAYER
    from bench.workloads import WORKLOADS, host_workers

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of each workload's length, one repeat")
    parser.add_argument("--record", type=Path,
                        help="write the raw record (JSON) to this path")
    args = parser.parse_args(argv)
    # Without the program there is nothing to measure: fail before any
    # run, and print no result.
    importlib.import_module("repro")

    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = workload.quick()
    workers = host_workers()
    checker = Checker(
        {args.seed: workload.fingerprint}
        if args.seed == workload.default_seed and workload.fingerprint
        else {}
    )
    if args.trace:
        metrics, runs = traced_metrics(workload, args.seed, workers, checker)
        names = PER_LAYER
    else:
        worlds, min_repeats = (1, 1) if args.quick \
            else (WORLDS, MIN_REPEATS)
        metrics, repeats = timed_metrics(
            workload, args.seed, workers, args.seconds, checker, worlds,
            min_repeats,
        )
        runs = [(f"repeat {index}", repeat)
                for index, repeat in enumerate(repeats)]
        names = END_TO_END
    correct = checker.failed == 0 and bool(metrics)
    report = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in names if name in metrics
    }
    for name, body in report.items():
        print(f"{name} {args.workload} {body['value']:.6g} {body['unit']}")
    if args.record is not None:
        write_record(args.record, {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "quick": args.quick, "host": host_block(workers),
            "correct": correct, "errors": checker.errors,
            "metrics": report,
            "runs": [dict(raw_repeat(run), label=label)
                     for label, run in runs],
        }, runs)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report,
    }))
    return 0 if correct else 1


#: numpy's BLAS pool would otherwise spin a second core beside the
#: single-threaded simulator (measured: 4.5 CPU-s per 2.2 wall-s on
#: solr-pkgmeter) and compete with the cluster's fork workers.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
