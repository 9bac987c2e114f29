"""The perf gate behind ``python -m ci perf``: benchmarks + BENCH_perf.json.

**Micro** benchmarks time isolated hot kernels (event-vector math, the
simulator queue, the Eq. 4 delay search, per-core accounting samples --
model evaluation included) and the machine-independent ratio of a
shard worker's barrier loop with telemetry on over off; the
**macro** benchmarks time the sharded cluster at 1, 2 and 4 workers and
the calibration of all three machine models at 1 and 2 workers.
The single-machine Solr run is timed, bounded and fingerprinted by the
repo benchmark (``bench/``, workload ``solr-pkgmeter``).

``BENCH_perf.json`` (schema 2) records per benchmark a wall time
(``seconds``), derived throughput, and an explicit ``ratio`` on the ratio
benchmarks.
:func:`check_regressions` holds a fresh run to it.  Wall-clock limits are
machine-relative, hence the generous default threshold; the ratio bounds
are not.  numpy is imported at the top, so ``ci.runner`` loads this module
lazily.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

#: CI regression threshold: fresh wall time may be at most this multiple of
#: the committed wall time (absorbs machine and load variance).
DEFAULT_THRESHOLD = 3.0

#: Regression threshold for ``perf --trend``: the nightly lane runs on one
#: runner class, so it can afford a much tighter bound than the default
#: merge-gate threshold -- fail on >20% regression vs the committed file.
TREND_THRESHOLD = 1.2

#: Where ``perf --trend`` appends its one-line-per-run history.
TREND_HISTORY = os.path.join("results", "BENCH_history.jsonl")

#: Maximum wall-time ratio of a shard worker's epoch-barrier loop with
#: telemetry ``"on"`` (record every span, counter and metric, drain and
#: encode a frame per barrier) over the telemetry-off loop.  Measured
#: 1.88-1.96 (median 1.91, ten runs) on a 2-core host; a worker that also
#: renders every event's canonical line into its frame reads 2.32-2.55
#: there, so the bound keeps text rendering off the worker.
MAX_TELEMETRY_FRAME_ON_RATIO = 2.2

#: Epoch barriers per timed chunk of the frame-overhead benchmark, and the
#: number of paired off/on chunks.  Every barrier advances a busy
#: four-machine shard (~50-100 us of real simulation), so the ratio is
#: measured against meaningful work rather than empty-loop jitter; the
#: chunks of the two modes alternate back-to-back so load drift hits
#: them equally, and the reported ratio is the median over the pairs.
_FRAME_EPOCHS = 250
_FRAME_ROUNDS = 12

#: Minimum 2-worker speedup of calibrating all three machine models, enforced
#: on hosts with at least two cores.  Every (microbenchmark, load) point is
#: one task of the fork-and-pipe fan-out; measured 1.7-1.95x on a quiet
#: 2-core host, 1.3-1.6x while other load took part of a core.
MIN_CALIBRATION_SPEEDUP_2_WORKERS = 1.3

#: Minimum required parallel speedup of the 4-worker sharded cluster run
#: over the single-process run.  Unlike the other ratio floors this one is
#: machine-*dependent* -- it needs real cores to parallelize onto -- so
#: :func:`check_regressions` only enforces it when the host exposes at
#: least four cores; on smaller hosts the honestly-measured ratio is
#: still recorded in ``BENCH_perf.json``.
MIN_SHARD_SPEEDUP = 2.5

#: Minimum 2-worker speedup of the same run, enforced on hosts with at
#: least two cores.  The scatter/gather barrier measured 1.47-1.94x
#: (median 1.80x, six runs) on a 2-core host; the serial barrier it
#: replaced measured 1.04x there.
MIN_SHARD_SPEEDUP_2_WORKERS = 1.4


@dataclass
class BenchResult:
    """One benchmark's timing plus derived throughput numbers.

    ``seconds`` is always a wall time.  Ratio benchmarks additionally set
    ``ratio`` -- the machine-independent quantity their CI bound checks.
    """

    name: str
    kind: str  # "micro" or "macro"
    seconds: float
    throughput: dict[str, float] = field(default_factory=dict)
    ratio: float | None = None


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust estimator)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Macro benchmarks
# ---------------------------------------------------------------------------
def bench_cluster_sharded() -> BenchResult:
    """Sharded cluster run: single-process baseline vs 2 and 4 workers.

    One 24-machine Solr macro config is run with one shard in-process,
    then with four shards on two and on four fork workers.  All arms must
    produce identical fingerprints (a perf benchmark that silently broke
    determinism would be worse than a slow one), and each arm's wall time
    is recorded.  ``seconds`` is the single-process wall time; ``ratio``
    is the 4-worker parallel speedup (baseline / 4-worker wall time),
    which :func:`check_regressions` holds above
    :data:`MIN_SHARD_SPEEDUP` on hosts with enough cores.
    """
    from repro.faults.harness import chaos_calibrations
    from repro.hardware.specs import spec_by_name
    from repro.shard import run_sharded
    from repro.shard.coordinator import SPEC_CYCLE
    from repro.shard.scenario import solr_macro_config

    # Exclude calibration from the timings.
    chaos_calibrations([spec_by_name(name) for name in SPEC_CYCLE])

    def arm(n_shards: int, workers: int):
        config = solr_macro_config(
            n_shards=n_shards, workers=workers, n_machines=24, duration=1.0
        )
        best = float("inf")
        result = None
        for _ in range(2):
            start = time.perf_counter()
            result = run_sharded(config)
            best = min(best, time.perf_counter() - start)
        return best, result

    baseline_seconds, baseline = arm(1, 1)
    two_seconds, two = arm(4, 2)
    four_seconds, four = arm(4, 4)
    if not (baseline.fingerprints == two.fingerprints == four.fingerprints):
        raise RuntimeError("sharded arms diverged: fingerprints differ")
    return BenchResult(
        "macro-cluster-sharded", "macro", baseline_seconds,
        throughput={
            "requests_per_sec": baseline.n_requests / baseline_seconds,
            "workers_1_seconds": baseline_seconds,
            "workers_2_seconds": two_seconds,
            "workers_4_seconds": four_seconds,
            "speedup_2_workers": baseline_seconds / two_seconds,
        },
        ratio=baseline_seconds / four_seconds,
    )


def bench_calibration() -> BenchResult:
    """Full-length calibration of all three machine models, serial vs two
    workers.

    This is what every world set-up pays per machine model.  The arms
    alternate (best of two each) and must give identical calibration
    fingerprints; ``seconds`` is the serial wall time and
    ``speedup_2_workers`` (serial / 2-worker) is held above
    :data:`MIN_CALIBRATION_SPEEDUP_2_WORKERS` on hosts with two cores.
    """
    from ci.cases import calibration_fingerprint

    best = {1: float("inf"), 2: float("inf")}
    fingerprints = {}
    for _ in range(2):
        for jobs in best:
            start = time.perf_counter()
            fingerprints[jobs] = calibration_fingerprint(jobs, duration=0.25)
            best[jobs] = min(best[jobs], time.perf_counter() - start)
    if fingerprints[1] != fingerprints[2]:
        raise RuntimeError("calibration diverged: fingerprints differ")
    return BenchResult(
        "macro-calibration", "macro", best[1],
        throughput={
            "specs_per_sec": 3 / best[1],
            "workers_1_seconds": best[1],
            "workers_2_seconds": best[2],
            "speedup_2_workers": best[1] / best[2],
        },
    )


# ---------------------------------------------------------------------------
# Micro benchmarks
# ---------------------------------------------------------------------------
def bench_delay_search() -> BenchResult:
    """One Eq. 4 delay search at the 1 ms package meter's shape (20 s of
    centred history, 10 delays)."""
    from repro.core.alignment import correlation_curve

    rng = np.random.default_rng(0)
    measured = rng.normal(50, 5, 20_000)
    modeled = rng.normal(50, 5, 20_000)
    measured -= measured.mean()
    modeled -= modeled.mean()

    def body():
        for _ in range(20):
            correlation_curve(measured, modeled, 10)

    seconds = _best_of(body) / 20
    return BenchResult(
        "micro-delay-search", "micro", seconds,
        throughput={"searches_per_sec": 1 / seconds},
    )


def bench_telemetry_frame_overhead() -> BenchResult:
    """Cost of the cross-shard telemetry frame machinery, off and on.

    Times a shard worker's epoch-barrier loop (``ShardWorld.run_epoch``
    followed by ``drain_frame()`` -- the exact per-barrier sequence the
    pool executor runs) with telemetry ``"off"`` and ``"on"``.  Every
    core 0 runs two pinned spin processes, so each barrier advances a
    *busy* four-machine shard through its overflow-interrupt/accounting
    slices and context switches -- the denominator is real simulation
    work, not an empty event loop, and the ``"on"`` arm records stage
    spans and ships a frame per barrier.

    ``micro-telemetry-frame-on-ratio`` is on/off: what recording and
    shipping everything costs a worker; it must stay within
    :data:`MAX_TELEMETRY_FRAME_ON_RATIO`.

    The two worlds are built once and their timed chunks alternate
    back-to-back, so machine-load drift lands on both modes equally;
    ``ratio`` is the *median* over the per-round pairs -- on a busy
    single-core CI host, separated best-of arms scatter by +-10%.
    ``seconds`` is the on arm's total timed wall time.
    """
    import gc
    import statistics

    from repro.faults.harness import chaos_calibration
    from repro.hardware import RateProfile
    from repro.hardware.specs import spec_by_name
    from repro.kernel import Compute
    from repro.shard.worker import ShardConfig, ShardWorld

    calibrations = {
        "sandybridge": chaos_calibration(spec_by_name("sandybridge"))
    }
    machines = tuple((f"m{i}", "sandybridge") for i in range(4))
    spin = RateProfile(name="bench-frame-spin", ipc=1.0)
    modes = ("off", "on")

    def build(mode):
        world = ShardWorld.build(
            ShardConfig(0, machines, "solr", telemetry=mode), calibrations
        )
        for member in world.cluster.machines:

            def program(machine=member.machine):
                yield Compute(cycles=machine.freq_hz * 3600.0, profile=spin)

            for _ in range(2):
                container = member.facility.create_request_container("bench")
                member.kernel.spawn(
                    program(), "spin", container_id=container.id,
                    pinned_core=0,
                )
        return [world, 0.0]  # (world, its simulation clock)

    def chunk_seconds(entry):
        world, now = entry
        start = time.perf_counter()
        for _ in range(_FRAME_EPOCHS):
            now += 1e-3
            world.run_epoch(now)
            world.drain_frame()
        elapsed = time.perf_counter() - start
        entry[1] = now
        return elapsed

    worlds = {mode: build(mode) for mode in modes}
    for mode in modes:  # warm imports, caches, and every world
        chunk_seconds(worlds[mode])
    # A collection pause landing in one chunk but not its pair would skew
    # the ratio; collect the build garbage now and keep the collector
    # out of the timed rounds.
    gc.collect()
    gc.disable()
    try:
        totals = dict.fromkeys(modes, 0.0)
        ratios = []
        for _ in range(_FRAME_ROUNDS):
            chunk = {mode: chunk_seconds(worlds[mode]) for mode in modes}
            for mode in modes:
                totals[mode] += chunk[mode]
            ratios.append(chunk["on"] / chunk["off"])
    finally:
        gc.enable()
    epochs = _FRAME_EPOCHS * _FRAME_ROUNDS
    return BenchResult(
        "micro-telemetry-frame-on-ratio", "micro", totals["on"],
        throughput={
            "off_barriers_per_sec": epochs / totals["off"],
            "on_barriers_per_sec": epochs / totals["on"],
        },
        ratio=statistics.median(ratios),
    )


def bench_core_sample() -> BenchResult:
    """One accounting sample on every core of a machine.

    Times :meth:`CoreAccountant.sample` -- the counter-overflow interrupt
    and context-switch hot path, and what ``Facility.flush`` runs per core
    -- on a fully occupied SANDYBRIDGE machine, so every sample runs the
    complete delta -> observer correction -> metrics -> ``_charge``
    pipeline.  ``_charge`` evaluates each approach's Eq. 1/2 model with
    its inline dot product, so this is also the benchmark of model
    evaluation as runs execute it.
    """
    from repro.core import PowerContainerFacility, calibrate_machine
    from repro.hardware import RateProfile, SANDYBRIDGE, build_machine
    from repro.kernel import Compute, Kernel
    from repro.sim import Simulator

    calibration = calibrate_machine(SANDYBRIDGE, duration=0.1)
    spin = RateProfile(name="bench-spin", ipc=1.0)
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, calibration)
    for index in range(len(machine.cores)):
        container = facility.create_request_container(f"bench-{index}")

        def program():
            yield Compute(cycles=machine.freq_hz * 60.0, profile=spin)

        kernel.spawn(
            program(), f"spin-{index}", container_id=container.id,
            pinned_core=index,
        )
    sim.run_until(1e-3)  # dispatch the processes so every core is occupied
    accountants = [
        facility.accountants[index] for index in sorted(facility.accountants)
    ]
    iterations = 2_000
    clock = [1e-3]  # monotone across repeats so every pass charges

    def body():
        now = clock[0]
        for _ in range(iterations):
            now += 1e-4
            for accountant in accountants:
                accountant.sample(now)
        clock[0] = now

    body()  # warm
    seconds = _best_of(body)
    samples = iterations * len(accountants)
    return BenchResult(
        "micro-core-sample", "micro", seconds,
        throughput={"samples_per_sec": samples / seconds},
    )


def bench_event_vector() -> BenchResult:
    """Slot-backed EventVector arithmetic: add/subtract/scaled round trips."""
    from repro.hardware.events import EventVector

    iterations = 20_000
    a = EventVector(1e6, 2e6, 3e4, 4e3, 5e2, 10.0, 11.0)
    b = EventVector(5e5, 1e6, 1e4, 2e3, 2e2, 3.0, 4.0)

    def body():
        acc = EventVector()
        for _ in range(iterations):
            acc.add(a)
            acc.subtract(b)
            a.scaled(2.0)

    seconds = _best_of(body)
    ops = iterations * 3
    return BenchResult(
        "micro-event-vector", "micro", seconds,
        throughput={"ops_per_sec": ops / seconds},
    )


def bench_simulator_queue() -> BenchResult:
    """Event queue churn: one-shot scheduling plus a recurring tick."""
    from repro.sim.engine import Simulator

    def body():
        sim = Simulator()
        counter = [0]

        def bump():
            counter[0] += 1

        sim.schedule_recurring(1e-4, bump, label="tick")
        for i in range(10_000):
            sim.schedule(1e-6 * (i + 1), bump, label="one-shot")
        sim.run_until(1.0)

    seconds = _best_of(body)
    # 10k one-shots + 10k recurring firings per run.
    return BenchResult(
        "micro-simulator-queue", "micro", seconds,
        throughput={"events_per_sec": 20_000 / seconds},
    )


#: All benchmarks, run in this order.
SUITE = (
    bench_event_vector,
    bench_simulator_queue,
    bench_delay_search,
    bench_telemetry_frame_overhead,
    bench_core_sample,
    bench_cluster_sharded,
    bench_calibration,
)


def run_suite() -> dict[str, BenchResult]:
    """Run every benchmark; returns ``{name: BenchResult}`` in suite order."""
    results = {}
    for bench in SUITE:
        result = bench()
        results[result.name] = result
    return results


# ---------------------------------------------------------------------------
# BENCH_perf.json I/O and the CI regression contract
# ---------------------------------------------------------------------------
#: Every ratio bound: (benchmark, measured quantity, label, bound, whether
#: the bound is a floor (else a budget, i.e. a ceiling), the cores a host
#: needs before the bound applies).  ``"ratio"`` reads the benchmark's
#: ``ratio``; any other quantity is read from its ``throughput``.
RATIO_BOUNDS = (
    ("micro-telemetry-frame-on-ratio", "ratio", "ratio",
     MAX_TELEMETRY_FRAME_ON_RATIO, False, 1),
    ("macro-cluster-sharded", "speedup_2_workers", "2-worker speedup",
     MIN_SHARD_SPEEDUP_2_WORKERS, True, 2),
    ("macro-cluster-sharded", "ratio", "4-worker speedup",
     MIN_SHARD_SPEEDUP, True, 4),
    ("macro-calibration", "speedup_2_workers", "2-worker speedup",
     MIN_CALIBRATION_SPEEDUP_2_WORKERS, True, 2),
)


def _entry(result: BenchResult) -> dict:
    """The fields both the baseline file and the trend history record."""
    entry: dict = {"kind": result.kind, "seconds": result.seconds}
    if result.ratio is not None:
        entry["ratio"] = result.ratio
    return entry


def write_bench_json(results: dict[str, BenchResult], path: str) -> dict:
    """Serialize results to ``path``.

    Schema 2: ``seconds`` is always a wall time, and ratio benchmarks
    carry their machine-independent quantity in an explicit ``ratio``
    field.
    """
    benchmarks = {}
    for name, result in results.items():
        entry = _entry(result)
        entry.update(result.throughput)
        benchmarks[name] = entry
    payload = {"schema": 2, "benchmarks": benchmarks}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def load_bench_json(path: str) -> dict:
    """Load a committed ``BENCH_perf.json``."""
    with open(path) as fh:
        return json.load(fh)


def append_trend_history(results, problems, path: str) -> None:
    """Append one JSON line summarizing this perf run to ``path``."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or None
    except OSError:
        sha = None
    line = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sha": sha,
        "threshold": TREND_THRESHOLD,
        "problems": list(problems),
        "benchmarks": {
            name: _entry(result) for name, result in results.items()
        },
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def check_regressions(
    results: dict[str, BenchResult],
    committed_path: str,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Compare a fresh run against the committed baselines.

    Returns a list of human-readable problems (empty = pass).  Every
    committed benchmark must be in ``results`` -- a benchmark the run
    dropped would otherwise take its bounds with it -- every benchmark's
    wall time must stay under ``threshold`` x its committed ``seconds``,
    and every :data:`RATIO_BOUNDS` entry the host has the cores for must
    hold.
    """
    from repro.sim.parallel import available_cores

    committed = load_bench_json(committed_path)["benchmarks"]
    problems = [
        f"{name}: committed in {committed_path} but not produced by this run"
        for name in committed if name not in results
    ]
    cores = available_cores()
    for name, quantity, label, bound, floor, min_cores in RATIO_BOUNDS:
        result = results.get(name)
        if result is None or cores < min_cores:
            continue
        value = (result.ratio if quantity == "ratio"
                 else result.throughput.get(quantity))
        if value is None:
            problems.append(f"{name}: no {label} was measured")
        elif floor and value < bound:
            problems.append(
                f"{name}: {label} {value:.2f}x below required {bound:.1f}x"
            )
        elif not floor and value > bound:
            problems.append(
                f"{name}: {label} {value:.3f}x exceeds budget {bound:.2f}x"
            )
    for name, result in results.items():
        baseline = committed.get(name)
        if baseline is None:
            problems.append(f"{name}: no committed baseline in {committed_path}")
            continue
        limit = baseline["seconds"] * threshold
        if result.seconds > limit:
            problems.append(
                f"{name}: {result.seconds:.4f}s exceeds "
                f"{threshold:.1f}x committed baseline "
                f"({baseline['seconds']:.4f}s)"
            )
    return problems
