"""The benchmark suite behind ``python -m repro perf``.

Two kinds of benchmarks guard the attribution stack's speed:

* **micro** -- isolated hot kernels (event-vector math, ``active_power``,
  the simulator queue, ``correlation_curve``), each timed over enough
  iterations that per-call overhead dominates noise;
* **macro** -- one end-to-end seeded Solr workload run, the same shape the
  determinism gate replays, timing the whole simulator -> accounting ->
  tracing pipeline.

Results are emitted as ``BENCH_perf.json`` (schema 2).  The committed copy
at the repo root records, per benchmark: the wall time measured when the
file was last regenerated (``seconds`` -- always a wall time), derived
throughput (events/sec, samples/sec), an explicit ``ratio`` field for the
machine-independent ratio benchmarks, and -- for the benchmarks that
existed before the optimization PR -- the pre-optimization wall time
(``pre_pr_seconds``) measured with the same methodology, so the speedup is
an apples-to-apples ratio inside one file.  Schema 1 files stored ratios
*in* the ``seconds`` field; :func:`load_bench_json` migrates them.

:func:`check_regressions` is the CI contract (the ``perf`` lane): a fresh
run must stay under ``threshold`` x the committed wall times, and every
machine-independent ratio (vectorized ``correlation_curve`` vs its loop
oracle, batch accounting vs the scalar oracle, the disabled-telemetry tax)
must hold its bound.  Wall-clock comparisons against a committed file are
inherently machine-relative, hence the generous default threshold; the
ratio checks have no such dependence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

#: Wall times measured immediately before the optimization PR, with the
#: exact methodology of the corresponding benchmark below, committed so the
#: speedup claims stay auditable.  Do not update these when regenerating
#: baselines -- they are the historical reference point.
PRE_PR_SECONDS = {
    "macro-solr-workload": 0.8485575700005938,
    "micro-correlation-curve": 0.005122571666712854,
}

#: CI regression threshold: fresh wall time may be at most this multiple of
#: the committed wall time (absorbs machine and load variance).
DEFAULT_THRESHOLD = 3.0

#: Minimum required speed ratio of the vectorized ``correlation_curve``
#: over the loop oracle (machine-independent; measured ~27x).
MIN_CORRELATION_RATIO = 5.0

#: Minimum required speed ratio of the batched accounting kernels over the
#: per-core scalar oracle at shard scale (machine-independent).
MIN_ACCOUNTING_RATIO = 2.0

#: Maximum wall-time ratio of a run with an attached-but-disabled
#: :class:`~repro.telemetry.Telemetry` handle over a bare run.  The
#: disabled-mode guards (``if t is not None and t.enabled``) on every hot
#: path must stay within this budget (machine-independent; measured ~1.0).
MAX_TELEMETRY_DISABLED_RATIO = 1.05

#: Iterations per arm of the telemetry-overhead benchmark.  Module-level
#: because the schema-1 migration reconstructs that benchmark's wall time
#: from its recorded samples/sec.
_TELEMETRY_ITERATIONS = 10_000

#: Maximum wall-time ratio of a shard worker's epoch-barrier loop with a
#: disabled telemetry handle over the telemetry-off loop.  The frame
#: machinery must be invisible when frames are not requested: mode
#: "disabled" pays one handle attach plus the ``drain_frame()`` None path
#: per barrier (machine-independent; measured ~1.0).
MAX_TELEMETRY_FRAME_RATIO = 1.05

#: Epoch barriers per timed chunk of the frame-overhead benchmark, and the
#: number of paired off/disabled chunks.  Every barrier advances a busy
#: four-machine shard (~50-100 us of real simulation), so a 5% budget is
#: measured against meaningful work rather than empty-loop jitter; the
#: chunks of the two modes alternate back-to-back so load drift hits both
#: equally, and the reported ratio is the median over the pairs.
_FRAME_EPOCHS = 250
_FRAME_ROUNDS = 12

#: Minimum required parallel speedup of the 4-worker sharded cluster run
#: over the single-process run.  Unlike the other ratio floors this one is
#: machine-*dependent* -- it needs real cores to parallelize onto -- so
#: :func:`check_regressions` only enforces it when the host exposes at
#: least :data:`_SHARD_SPEEDUP_MIN_CORES` cores; on smaller hosts the
#: honestly-measured ratio is still recorded in ``BENCH_perf.json``.
MIN_SHARD_SPEEDUP = 2.5
_SHARD_SPEEDUP_MIN_CORES = 4

#: Minimum 2-worker speedup of the same run, enforced on hosts with at
#: least two cores.  The scatter/gather barrier measured 1.47-1.94x
#: (median 1.80x, six runs) on a 2-core host; the serial barrier it
#: replaced measured 1.04x there.
MIN_SHARD_SPEEDUP_2_WORKERS = 1.4


@dataclass
class BenchResult:
    """One benchmark's timing plus derived throughput numbers.

    ``seconds`` is always a wall time.  Ratio benchmarks additionally set
    ``ratio`` -- the machine-independent quantity their CI bound checks --
    instead of smuggling it through ``seconds`` as schema 1 did.
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
# Macro benchmark
# ---------------------------------------------------------------------------
def bench_macro_solr() -> BenchResult:
    """End-to-end seeded Solr run, best of 3 (calibration excluded, like
    the pre-PR measurement): simulator + kernel + accounting + tracing."""
    from repro.core import calibrate_machine
    from repro.hardware import SANDYBRIDGE
    from repro.workloads import SolrWorkload, run_workload

    calibration = calibrate_machine(SANDYBRIDGE, duration=0.1)

    run = None
    seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run = run_workload(
            SolrWorkload(), SANDYBRIDGE, calibration,
            load_fraction=0.6, duration=1.5, warmup=0.2, seed=7,
        )
        seconds = min(seconds, time.perf_counter() - start)
    events = run.facility.simulator.events_processed
    requests = len(run.driver.results)
    return BenchResult(
        "macro-solr-workload", "macro", seconds,
        throughput={
            "events_per_sec": events / seconds,
            "requests_per_sec": requests / seconds,
        },
    )


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
    from repro.faults.harness import chaos_calibration
    from repro.hardware.specs import spec_by_name
    from repro.shard import run_sharded
    from repro.shard.coordinator import SPEC_CYCLE
    from repro.shard.scenario import solr_macro_config

    for spec_name in SPEC_CYCLE:  # exclude calibration from the timings
        chaos_calibration(spec_by_name(spec_name))

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


# ---------------------------------------------------------------------------
# Micro benchmarks
# ---------------------------------------------------------------------------
def bench_correlation_curve() -> BenchResult:
    """Eq. 4 delay search at recalibration scale (4000-sample series,
    1500-sample delay window) -- the pre-PR measurement's exact shape."""
    from repro.core.alignment import correlation_curve

    rng = np.random.default_rng(0)
    measured = rng.normal(50, 5, 4000)
    modeled = rng.normal(50, 5, 4000)
    correlation_curve(measured, modeled, 1500)  # warm numpy's FFT setup

    start = time.perf_counter()
    for _ in range(3):
        correlation_curve(measured, modeled, 1500)
    seconds = (time.perf_counter() - start) / 3
    return BenchResult(
        "micro-correlation-curve", "micro", seconds,
        throughput={"delays_per_sec": 1501 / seconds},
    )


def bench_correlation_ratio() -> BenchResult:
    """Loop oracle vs vectorized curve on the same inputs.  ``seconds`` is
    the vectorized arm's wall time; ``ratio`` is oracle/vectorized."""
    from repro.core.alignment import correlation_curve, correlation_curve_reference

    rng = np.random.default_rng(0)
    measured = rng.normal(50, 5, 4000)
    modeled = rng.normal(50, 5, 4000)
    correlation_curve(measured, modeled, 1500)

    vectorized = _best_of(lambda: correlation_curve(measured, modeled, 1500))
    reference = _best_of(
        lambda: correlation_curve_reference(measured, modeled, 1500), repeats=1
    )
    return BenchResult(
        "micro-correlation-vs-oracle-ratio", "micro", vectorized,
        throughput={
            "vectorized_seconds": vectorized,
            "reference_seconds": reference,
        },
        ratio=reference / vectorized,
    )


def bench_telemetry_overhead() -> BenchResult:
    """Disabled-telemetry tax on the hottest instrumented path.

    Times ``CoreAccountant.sample`` -- the per-context-switch/overflow
    accounting step that runs orders of magnitude more often than any
    other instrumented site -- on an occupied core, with no telemetry vs
    an attached-but-disabled :class:`~repro.telemetry.Telemetry` handle.
    ``seconds`` is the bare arm's wall time; ``ratio`` is disabled/bare
    (machine-independent, ~1.0), guarding the documented <=5%
    disabled-mode budget.
    """
    from repro.core import PowerContainerFacility, calibrate_machine
    from repro.hardware import RateProfile, SANDYBRIDGE, build_machine
    from repro.kernel import Compute, Kernel
    from repro.sim import Simulator
    from repro.telemetry import Telemetry

    calibration = calibrate_machine(SANDYBRIDGE, duration=0.1)
    spin = RateProfile(name="bench-spin", ipc=1.0)
    iterations = _TELEMETRY_ITERATIONS

    def build_accountant(telemetry):
        sim = Simulator()
        machine = build_machine(SANDYBRIDGE, sim)
        kernel = Kernel(machine, sim)
        facility = PowerContainerFacility(
            kernel, calibration, telemetry=telemetry
        )
        container = facility.create_request_container("bench")

        def program():
            yield Compute(cycles=machine.freq_hz * 60.0, profile=spin)

        kernel.spawn(
            program(), "spin", container_id=container.id, pinned_core=0
        )
        sim.run_until(1e-3)  # dispatch the process so core 0 is occupied
        return facility.accountants[0]

    def arm_seconds(telemetry):
        accountant = build_accountant(telemetry)
        assert accountant.occupied
        now = 1e-3
        start = time.perf_counter()
        for _ in range(iterations):
            now += 1e-4
            accountant.sample(now)
        return time.perf_counter() - start

    arm_seconds(None)  # warm imports and caches
    # Interleave the arms and keep each arm's minimum: back-to-back pairs
    # cancel machine-load drift that separated best-of runs cannot, which
    # matters when the budget is a few percent.
    bare = float("inf")
    disabled = float("inf")
    for _ in range(8):
        bare = min(bare, arm_seconds(None))
        disabled = min(disabled, arm_seconds(Telemetry(enabled=False)))
    return BenchResult(
        "micro-telemetry-disabled-ratio", "micro", bare,
        throughput={
            "bare_samples_per_sec": iterations / bare,
            "disabled_samples_per_sec": iterations / disabled,
        },
        ratio=disabled / bare,
    )


def bench_telemetry_frame_overhead() -> BenchResult:
    """Disabled-path cost of the cross-shard telemetry frame machinery.

    Times a shard worker's epoch-barrier loop (``ShardWorld.run_epoch``
    followed by ``drain_frame()`` -- the exact per-barrier sequence the
    pool executor runs) with telemetry ``"off"`` vs ``"disabled"``.
    Every core 0 runs a pinned spin process so each barrier advances a
    *busy* four-machine shard through its overflow-interrupt/accounting
    slices -- the denominator is real simulation work, not an empty event
    loop.  Neither mode builds a
    :class:`~repro.telemetry.aggregate.FrameDrain`, so the disabled arm
    isolates precisely what every non-frame run pays for the frame
    plumbing: the attached-but-disabled handle consulted at the sampling
    sites plus the ``drain_frame()`` None path at every barrier.

    Both worlds are built once and their timed chunks alternate
    back-to-back, so machine-load drift lands on both modes equally; the
    reported ``ratio`` is the *median* over the per-round disabled/off
    pairs -- the estimator a 5% budget needs on a busy single-core CI
    host, where separated best-of arms still scatter by +-10%.
    ``seconds`` is the off arm's total timed wall time; ``ratio`` must
    stay within :data:`MAX_TELEMETRY_FRAME_RATIO`.
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

    def build(mode):
        world = ShardWorld.build(
            ShardConfig(0, machines, "solr", telemetry=mode), calibrations
        )
        for member in world.cluster.machines:

            def program(machine=member.machine):
                yield Compute(cycles=machine.freq_hz * 3600.0, profile=spin)

            container = member.facility.create_request_container("bench")
            member.kernel.spawn(
                program(), "spin", container_id=container.id, pinned_core=0
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

    off_world = build("off")
    disabled_world = build("disabled")
    chunk_seconds(off_world)  # warm imports, caches, and both worlds
    chunk_seconds(disabled_world)
    # A collection pause landing in one chunk but not its pair would swamp
    # a 5% budget; collect the build garbage now and keep the collector
    # out of the timed rounds.
    gc.collect()
    gc.disable()
    try:
        off_total = 0.0
        disabled_total = 0.0
        ratios = []
        for _ in range(_FRAME_ROUNDS):
            off = chunk_seconds(off_world)
            disabled = chunk_seconds(disabled_world)
            off_total += off
            disabled_total += disabled
            ratios.append(disabled / off)
    finally:
        gc.enable()
    timed_epochs = _FRAME_EPOCHS * _FRAME_ROUNDS
    return BenchResult(
        "micro-telemetry-frame-overhead", "micro", off_total,
        throughput={
            "off_barriers_per_sec": timed_epochs / off_total,
            "disabled_barriers_per_sec": timed_epochs / disabled_total,
        },
        ratio=statistics.median(ratios),
    )


def bench_batch_accounting() -> BenchResult:
    """One vectorized accounting pass over every core of a machine.

    Times :meth:`BatchAccountingEngine.sample_all` -- the synchronous
    accounting tick behind ``Facility.flush`` and sharded sweeps -- on a
    fully occupied SANDYBRIDGE machine, so every pass runs the complete
    gather -> vectorized kernels -> per-core ``_charge`` pipeline.
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
    engine = facility.batch_engine
    iterations = 2_000
    n_cores = len(machine.cores)
    clock = [1e-3]  # monotone across repeats so every pass charges

    def body():
        now = clock[0]
        for _ in range(iterations):
            now += 1e-4
            engine.sample_all(now)
        clock[0] = now

    body()  # warm
    seconds = _best_of(body)
    samples = iterations * n_cores
    return BenchResult(
        "micro-batch-accounting", "micro", seconds,
        throughput={"samples_per_sec": samples / seconds},
    )


def bench_accounting_oracle_ratio() -> BenchResult:
    """Per-core scalar oracle vs the batched kernels at shard scale.

    Runs the front-half accounting arithmetic (wrap deltas, observer
    correction, utilization metrics) for 256 synthetic cores -- a sharded
    sweep's accounting tick -- once per core through
    :func:`repro.core.batch.reference_sample` and once through the batch
    kernels, after checking the two agree bit for bit.  ``seconds`` is the
    batched arm's wall time; ``ratio`` is oracle/batched and must stay
    above :data:`MIN_ACCOUNTING_RATIO`.
    """
    from repro.core.batch import (
        CPU_FIELDS, batch_observer_correction, batch_utilization,
        batch_wrap_deltas, reference_sample,
    )
    from repro.hardware.counters import COUNTER_WRAP

    rng = np.random.default_rng(3)
    n = 256
    baseline = rng.uniform(0.0, COUNTER_WRAP, (n, 7))
    snapshot = (baseline + rng.uniform(0.0, 1e9, (n, 7))) % COUNTER_WRAP
    units = rng.uniform(0.0, 100.0, (n, CPU_FIELDS))
    ops = rng.integers(0, 50, n).astype(float)
    dts = np.full(n, 1e-3)
    freq = np.full(n, 2.6e9)

    def batched() -> np.ndarray:
        deltas = batch_wrap_deltas(snapshot, baseline)
        deltas = batch_observer_correction(deltas, units, ops)
        return batch_utilization(deltas, freq * dts)

    def oracle() -> list:
        out = []
        for i in range(n):
            out.append(reference_sample(
                snapshot[i], baseline[i], float(dts[i]), float(freq[i]),
                observer_unit=units[i], pending_ops=int(ops[i]),
            ))
        return out

    oracle_metrics = np.array([metrics for _, metrics in oracle()])
    if not (batched() == oracle_metrics).all():
        raise RuntimeError("batch kernels diverged from the scalar oracle")

    iterations = 50

    def batch_body():
        for _ in range(iterations):
            batched()

    def oracle_body():
        for _ in range(iterations):
            oracle()

    batch_seconds = _best_of(batch_body)
    oracle_seconds = _best_of(oracle_body, repeats=1)
    return BenchResult(
        "micro-accounting-vs-oracle-ratio", "micro", batch_seconds,
        throughput={
            "batched_samples_per_sec": n * iterations / batch_seconds,
            "oracle_seconds": oracle_seconds,
        },
        ratio=oracle_seconds / batch_seconds,
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


def bench_active_power() -> BenchResult:
    """Per-sample model evaluation: the Eq. 1/2 inner product."""
    from repro.core.model import FEATURES_EQ2, MetricSample, PowerModel

    model = PowerModel(
        features=FEATURES_EQ2,
        coefficients=np.array([20.0, 4.0, 6.0, 9.0, 14.0, 11.0]),
        idle_watts=80.0,
    )
    sample = MetricSample(
        mcore=0.8, mins=1.2, mfloat=0.1, mcache=0.02, mmem=0.01,
        mchipshare=0.5,
    )
    iterations = 50_000

    def body():
        for _ in range(iterations):
            model.active_power(sample)

    seconds = _best_of(body)
    return BenchResult(
        "micro-active-power", "micro", seconds,
        throughput={"samples_per_sec": iterations / seconds},
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
    bench_active_power,
    bench_simulator_queue,
    bench_correlation_curve,
    bench_correlation_ratio,
    bench_telemetry_overhead,
    bench_telemetry_frame_overhead,
    bench_batch_accounting,
    bench_accounting_oracle_ratio,
    bench_macro_solr,
    bench_cluster_sharded,
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
#: Ratio benchmarks with a required *minimum* ratio (speedup floors).
RATIO_MINIMUMS = {
    "micro-correlation-vs-oracle-ratio": MIN_CORRELATION_RATIO,
    "micro-accounting-vs-oracle-ratio": MIN_ACCOUNTING_RATIO,
}

#: Ratio benchmarks with a required *maximum* ratio (overhead budgets).
RATIO_MAXIMUMS = {
    "micro-telemetry-disabled-ratio": MAX_TELEMETRY_DISABLED_RATIO,
    "micro-telemetry-frame-overhead": MAX_TELEMETRY_FRAME_RATIO,
}


def write_bench_json(results: dict[str, BenchResult], path: str) -> dict:
    """Serialize results (plus pre-PR baselines and speedups) to ``path``.

    Schema 2: ``seconds`` is always a wall time, and ratio benchmarks
    carry their machine-independent quantity in an explicit ``ratio``
    field.
    """
    benchmarks = {}
    for name, result in results.items():
        entry: dict = {"kind": result.kind, "seconds": result.seconds}
        if result.ratio is not None:
            entry["ratio"] = result.ratio
        entry.update(result.throughput)
        pre = PRE_PR_SECONDS.get(name)
        if pre is not None:
            entry["pre_pr_seconds"] = pre
            entry["speedup_vs_pre_pr"] = pre / result.seconds
        benchmarks[name] = entry
    payload = {"schema": 2, "benchmarks": benchmarks}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def _migrate_schema1(payload: dict) -> dict:
    """Schema 1 -> 2 in place: un-smuggle the ratios out of ``seconds``.

    Schema 1 stored the two ratio benchmarks' ratios *as* their
    ``seconds``.  The migration moves those into ``ratio`` and recovers a
    real wall time from the recorded throughput fields (the vectorized
    correlation arm's seconds; the telemetry bench's bare arm via its
    samples/sec and the fixed iteration count).  When the throughput field
    is missing the wall time is set to ``0.0``, which
    :func:`check_regressions` treats as "no wall baseline".
    """
    for name, entry in payload.get("benchmarks", {}).items():
        if "ratio" in entry:
            continue
        if name == "micro-correlation-vs-oracle-ratio":
            entry["ratio"] = entry["seconds"]
            entry["seconds"] = entry.get("vectorized_seconds", 0.0)
        elif name == "micro-telemetry-disabled-ratio":
            entry["ratio"] = entry["seconds"]
            bare = entry.get("bare_samples_per_sec")
            entry["seconds"] = _TELEMETRY_ITERATIONS / bare if bare else 0.0
    payload["schema"] = 2
    return payload


def load_bench_json(path: str) -> dict:
    """Load a committed ``BENCH_perf.json``, migrating old schemas."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema", 1) < 2:
        payload = _migrate_schema1(payload)
    return payload


def check_regressions(
    results: dict[str, BenchResult],
    committed_path: str,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Compare a fresh run against the committed baselines.

    Returns a list of human-readable problems (empty = pass).  Every
    benchmark's wall time must stay under ``threshold`` x its committed
    ``seconds`` (skipped when a schema-1 migration could not recover a
    wall baseline); ratio benchmarks must additionally hold their
    machine-independent bounds (:data:`RATIO_MINIMUMS` speedup floors,
    :data:`RATIO_MAXIMUMS` overhead budgets).
    """
    from repro.analysis.parallel import available_cores

    committed = load_bench_json(committed_path)["benchmarks"]
    problems = []
    cores = available_cores()
    for name, result in results.items():
        # Machine-dependent floors: only meaningful with real cores to
        # parallelize onto (a 1-core CI host records the honest ratios
        # but cannot be held to a speedup it physically cannot reach).
        if name == "macro-cluster-sharded" and cores >= 2:
            two = result.throughput.get("speedup_2_workers")
            if two is None:
                problems.append(f"{name}: no 2-worker speedup was measured")
            elif two < MIN_SHARD_SPEEDUP_2_WORKERS:
                problems.append(
                    f"{name}: 2-worker speedup {two:.2f}x below required "
                    f"{MIN_SHARD_SPEEDUP_2_WORKERS:.1f}x"
                )
        if name == "macro-cluster-sharded" and \
                cores >= _SHARD_SPEEDUP_MIN_CORES:
            if result.ratio is None:
                problems.append(f"{name}: no speedup ratio was measured")
            elif result.ratio < MIN_SHARD_SPEEDUP:
                problems.append(
                    f"{name}: 4-worker speedup {result.ratio:.2f}x below "
                    f"required {MIN_SHARD_SPEEDUP:.1f}x"
                )
        minimum = RATIO_MINIMUMS.get(name)
        if minimum is not None:
            if result.ratio is None:
                problems.append(f"{name}: no ratio was measured")
            elif result.ratio < minimum:
                problems.append(
                    f"{name}: speed ratio {result.ratio:.1f}x below "
                    f"required {minimum:.1f}x"
                )
        maximum = RATIO_MAXIMUMS.get(name)
        if maximum is not None:
            if result.ratio is None:
                problems.append(f"{name}: no ratio was measured")
            elif result.ratio > maximum:
                problems.append(
                    f"{name}: overhead ratio {result.ratio:.3f}x exceeds "
                    f"budget {maximum:.2f}x"
                )
        baseline = committed.get(name)
        if baseline is None:
            problems.append(f"{name}: no committed baseline in {committed_path}")
            continue
        if baseline["seconds"] <= 0.0:
            continue  # migrated entry without a recoverable wall time
        limit = baseline["seconds"] * threshold
        if result.seconds > limit:
            problems.append(
                f"{name}: {result.seconds:.4f}s exceeds "
                f"{threshold:.1f}x committed baseline "
                f"({baseline['seconds']:.4f}s)"
            )
    return problems
