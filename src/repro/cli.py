"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates individual paper tables/figures without going through pytest.
``python -m repro list`` shows every available experiment; each command
prints the same paper-style table its benchmark asserts on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.analysis import render_table


def _calibrations(machines=("sandybridge", "woodcrest", "westmere"), jobs=None):
    from repro.core import calibrate_machines
    from repro.hardware import spec_by_name

    print("calibrating:", ", ".join(machines), "...", flush=True)
    return calibrate_machines(
        [spec_by_name(name) for name in machines], duration=0.25, jobs=jobs
    )


# ----------------------------------------------------------------------
# Experiment commands
# ----------------------------------------------------------------------
def cmd_fig01(_args) -> None:
    """Regenerate Fig. 1: incremental per-core power."""
    from repro.analysis import incremental_power_curve
    from repro.hardware import SANDYBRIDGE, WOODCREST

    rows = []
    for spec in (SANDYBRIDGE, WOODCREST):
        increments = incremental_power_curve(spec, duration=0.25)
        for k, watts in enumerate(increments):
            rows.append([spec.name, f"{k}->{k + 1} cores", watts])
    print(render_table(["machine", "step", "incremental watts"], rows,
                       title="Figure 1: incremental per-core power"))


def cmd_calibration(_args) -> None:
    """Regenerate the Section 4.1 calibration table."""
    from repro.core import calibrate_machine
    from repro.hardware import SANDYBRIDGE

    result = calibrate_machine(SANDYBRIDGE, duration=0.25)
    rows = [["Cidle", result.idle_watts]]
    for feature, watts in result.cmax_table().items():
        rows.append([f"C{feature[1:]}", watts])
    print(render_table(["coefficient (C*Mmax)", "watts"], rows,
                       title="Section 4.1: SandyBridge calibration"))


def cmd_validate(args) -> None:
    """Regenerate Fig. 8 validation errors for one machine."""
    from repro.analysis import validate_workload
    from repro.hardware import spec_by_name
    from repro.workloads import workload_by_name

    machine = args.machine
    cals = _calibrations((machine,))
    spec = spec_by_name(machine)
    duration = 5.0 if spec.has_package_meter else 12.0
    rows = []
    for name in args.workloads:
        for load in (1.0, 0.5):
            outcome = validate_workload(
                workload_by_name(name), spec, cals[machine],
                load_fraction=load, duration=duration,
            )
            rows.append([
                name, "peak" if load == 1.0 else "half",
                outcome.measured_active_watts,
                *(outcome.errors[a] * 100 for a in ("eq1", "eq2", "recal")),
            ])
    print(render_table(
        ["workload", "load", "measured W", "eq1 %", "eq2 %", "recal %"],
        rows, title=f"Figure 8 (single machine: {machine})",
        float_format="{:.1f}",
    ))


def cmd_conditioning(_args) -> None:
    """Regenerate the Fig. 11/12 conditioning comparison."""
    from repro.analysis import run_conditioning_experiment
    from repro.hardware import SANDYBRIDGE

    cals = _calibrations(("sandybridge",))
    rows = []
    for conditioned in (False, True):
        outcome = run_conditioning_experiment(
            SANDYBRIDGE, cals["sandybridge"], conditioned=conditioned,
            duration=12.0, virus_start=6.0,
        )
        rows.append([
            "conditioned" if conditioned else "original",
            outcome.mean_power(6.5, 12.0),
            outcome.peak_power(6.5, 12.0),
            (1 - outcome.mean_duty(lambda r: r == "virus")) * 100,
            (1 - outcome.mean_duty(lambda r: r != "virus")) * 100,
        ])
    print(render_table(
        ["system", "mean W", "peak W", "virus slowdown %",
         "normal slowdown %"],
        rows, title="Figures 11/12: fair power conditioning",
        float_format="{:.1f}",
    ))


def cmd_ratios(_args) -> None:
    """Regenerate Fig. 13 cross-machine energy ratios."""
    import numpy as np
    from repro.hardware import spec_by_name
    from repro.workloads import run_workload, workload_by_name

    cals = _calibrations(("sandybridge", "woodcrest"))
    rows = []
    for name in ("rsa-crypto", "solr", "webwork", "stress", "gae-vosao"):
        energy = {}
        for machine in ("sandybridge", "woodcrest"):
            spec = spec_by_name(machine)
            duration = 6.0 if spec.has_package_meter else 12.0
            run = run_workload(
                workload_by_name(name), spec, cals[machine],
                load_fraction=1.0, duration=duration, warmup=duration * 0.3,
            )
            energy[machine] = float(np.mean(
                [r.energy(run.facility.primary) for r in run.results()]
            ))
        rows.append([name, energy["sandybridge"], energy["woodcrest"],
                     energy["sandybridge"] / energy["woodcrest"]])
    print(render_table(
        ["workload", "SandyBridge J", "Woodcrest J", "ratio"], rows,
        title="Figure 13: cross-machine energy ratio",
    ))


def cmd_sweep(args) -> None:
    """Run a load sweep of one workload on one machine."""
    from repro.analysis import load_sweep
    from repro.hardware import spec_by_name
    from repro.workloads import workload_by_name

    machine = args.machine
    cals = _calibrations((machine,))
    points = load_sweep(
        workload_by_name(args.workload), spec_by_name(machine),
        cals[machine], loads=(0.25, 0.5, 0.75, 1.0), duration=4.0,
        jobs=args.jobs,
    )
    rows = [
        [p.load_fraction, p.measured_active_watts,
         p.mean_response_time * 1e3, p.p95_response_time * 1e3,
         p.energy_per_request, p.validation_error * 100]
        for p in points
    ]
    print(render_table(
        ["load", "active W", "mean ms", "p95 ms", "J/request", "val err %"],
        rows, title=f"load sweep: {args.workload} on {machine}",
    ))


def cmd_distribution(args) -> None:
    """Regenerate Fig. 14 / Table 1 dispatch comparison."""
    from repro.analysis.distribution_experiment import (
        run_all_distribution_policies,
    )

    cals = _calibrations(("sandybridge", "woodcrest"), jobs=args.jobs)
    rows = []
    for name, result in run_all_distribution_policies(cals, jobs=args.jobs).items():
        rows.append([
            name, result["sb_watts"] + result["wc_watts"],
            result["rt_vosao"] * 1e3, result["rt_rsa"] * 1e3,
        ])
    print(render_table(
        ["policy", "total W", "Vosao ms", "RSA ms"], rows,
        title="Figure 14 / Table 1: request distribution",
        float_format="{:.1f}",
    ))


def cmd_perf(args) -> int:
    """Run the performance suite; write or check ``BENCH_perf.json``."""
    from repro.perf import check_regressions, run_suite, write_bench_json

    results = run_suite()
    rows = []
    for result in results.values():
        throughput = ", ".join(
            f"{key}={value:,.0f}" for key, value in result.throughput.items()
        )
        rows.append([result.name, result.kind, result.seconds, throughput])
    print(render_table(
        ["benchmark", "kind", "seconds", "throughput"], rows,
        title="performance suite", float_format="{:.5f}",
    ))
    if args.check:
        problems = check_regressions(
            results, args.check, threshold=args.threshold
        )
        for problem in problems:
            print(f"REGRESSION: {problem}")
        if not problems:
            print(f"no regressions against {args.check}")
        return 1 if problems else 0
    write_bench_json(results, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_chaos(args) -> int:
    """Run chaos scenarios: seeded faults + invariant checks (robustness)."""
    from repro.faults import SCENARIOS, run_scenario, scenario_by_name

    if args.all or not args.scenario:
        scenarios = list(SCENARIOS)
    else:
        scenarios = [scenario_by_name(name) for name in args.scenario]
    failures = 0
    rows = []
    for scenario in scenarios:
        report = run_scenario(
            scenario, seed=args.seed, duration_scale=args.duration_scale
        )
        rows.append([
            scenario.name,
            "PASS" if report.passed else "FAIL",
            report.stats.get("completed", 0.0),
            report.stats.get("relative_error", float("nan")) * 100,
            len(report.violations),
        ])
        if args.fingerprints:
            print(report.fingerprint())
            print()
        for violation in report.violations:
            print(f"  {scenario.name}: {violation}")
        failures += 0 if report.passed else 1
    print(render_table(
        ["scenario", "result", "requests", "energy err %", "violations"],
        rows, title=f"chaos scenarios (seed {args.seed})",
        float_format="{:.1f}",
    ))
    return 1 if failures else 0


def cmd_overload(args) -> int:
    """Overload/brownout demo: storm + cap squeeze on a protected cluster."""
    from collections import Counter

    from repro.faults.harness import build_overload_world
    from repro.faults.plan import FaultPlan

    duration = args.duration
    world = build_overload_world(
        args.seed, duration, cap_watts=args.cap_watts
    )
    plan = FaultPlan()
    plan.arrival_storm(0.15 * duration, 0.3 * duration, multiplier=args.storm)
    plan.cap_squeeze(0.55 * duration, 0.25 * duration, fraction=args.squeeze)
    plan.apply(world.simulator, world.targets)
    world.start()
    world.simulator.run_until(duration)

    protector, enforcer = world.protector, world.enforcer
    outcomes = Counter(
        (result.outcome, result.reason) for result in protector.shed_log
    )
    rows = [["completed", "served", float(protector.completed)]]
    rows += [
        [outcome, reason, float(count)]
        for (outcome, reason), count in sorted(outcomes.items())
    ]
    print(render_table(
        ["outcome", "reason", "requests"], rows,
        title=f"admission outcomes (seed {args.seed}, "
              f"storm x{args.storm:g}, squeeze x{args.squeeze:g})",
        float_format="{:.0f}",
    ))
    print(render_table(
        ["time s", "rung", "ladder", "measured W", "cap W"],
        [
            [t.at, float(t.level), t.name, t.measured_watts, t.effective_cap]
            for t in enforcer.transitions
        ],
        title="brownout ladder transitions", float_format="{:.2f}",
    ))
    gap = protector.accounting_gap()
    print(
        f"arrivals {protector.arrivals} = completed {protector.completed} "
        f"+ shed {protector.shed} + rejected {protector.rejected} "
        f"+ pending {protector.pending()}  (gap {gap})"
    )
    print(f"shed-set fingerprint {protector.shed_fingerprint()}")
    if gap != 0:
        print("OVERLOAD ACCOUNTING VIOLATION")
        return 1
    return 0


def _run_sharded_telemetry(args, capacity: int = 65536):
    """Shared ``--shards`` path for trace/metrics: sharded run, mode "on"."""
    from repro.shard.scenario import SCENARIOS, run_scenario

    if args.scenario not in SCENARIOS:
        raise SystemExit(
            f"--shards requires a sharded scenario "
            f"({', '.join(sorted(SCENARIOS))}), got {args.scenario!r}"
        )
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return run_scenario(
        args.scenario,
        n_shards=args.shards,
        workers=args.workers,
        telemetry="on",
        telemetry_capacity=capacity,
        **overrides,
    )


def cmd_trace(args) -> int:
    """Trace one chaos scenario: request spans + energy timeline export.

    With ``--shards N`` the scenario names a *sharded* scenario instead
    (solr/chaos/flash); per-shard telemetry frames are k-way merged and
    the merged Chrome trace is written (``--duration-scale`` does not
    apply there).
    """
    import os

    from repro.faults import run_scenario, scenario_by_name
    from repro.telemetry import Telemetry

    if args.shards:
        result = _run_sharded_telemetry(args, capacity=args.capacity)
        aggregator = result.observability.aggregator
        out = args.out or os.path.join(
            "results", f"trace-shard-{args.scenario}.json"
        )
        directory = os.path.dirname(out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(out, "w") as handle:
            handle.write(aggregator.to_chrome_json())
        print(aggregator.tracer.timeline(limit=args.limit))
        print(
            f"{aggregator.events_merged} events merged from "
            f"{aggregator.frames_merged} frames across "
            f"{result.config.n_shards} shard(s); merged trace fingerprint "
            f"{aggregator.trace_fingerprint()}"
        )
        print(f"wrote merged Chrome trace_event JSON to {out}")
        return 0
    scenario = scenario_by_name(args.scenario)
    telemetry = Telemetry(capacity=args.capacity)
    report = run_scenario(
        scenario, seed=args.seed, duration_scale=args.duration_scale,
        telemetry=telemetry,
    )
    out = args.out or os.path.join("results", f"trace-{scenario.name}.json")
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out, "w") as handle:
        handle.write(telemetry.tracer.to_chrome_json())
    tracer = telemetry.tracer
    print(tracer.timeline(limit=args.limit))
    print(
        f"{len(tracer.events)} events ({tracer.dropped_events} dropped); "
        f"trace fingerprint {telemetry.trace_fingerprint()}"
    )
    print(f"wrote Chrome trace_event JSON to {out}")
    return 0 if report.passed else 1


def cmd_metrics(args) -> int:
    """Run one chaos scenario and dump the unified metrics exposition.

    With ``--shards N`` the scenario names a *sharded* scenario; the
    exposition renders the coordinator's merged registry (every shard's
    facility metrics plus the ``transport_*`` health gauges).
    """
    import os

    from repro.faults import run_scenario, scenario_by_name
    from repro.telemetry import Telemetry

    if args.shards:
        result = _run_sharded_telemetry(args)
        registry = result.observability.aggregator.registry
        text = registry.exposition()
        out = args.out or os.path.join(
            "results", f"metrics-shard-{args.scenario}.txt"
        )
        directory = os.path.dirname(out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(out, "w") as handle:
            handle.write(text)
        print(text, end="")
        print(f"wrote {len(registry)} merged metrics to {out}")
        return 0
    scenario = scenario_by_name(args.scenario)
    telemetry = Telemetry()
    report = run_scenario(
        scenario, seed=args.seed, duration_scale=args.duration_scale,
        telemetry=telemetry,
    )
    text = telemetry.registry.exposition()
    out = args.out or os.path.join("results", f"metrics-{scenario.name}.txt")
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out, "w") as handle:
        handle.write(text)
    print(text, end="")
    print(f"wrote {len(telemetry.registry)} metrics to {out}")
    return 0 if report.passed else 1


def cmd_run_ckpt(args) -> int:
    """Run a checkpointed world (Solr macro or chaos scenario) to the end.

    Prints one JSON line of comparison fingerprints.  With
    ``--kill-after-checkpoint K`` the process SIGKILLs itself right after
    checkpoint ``K`` is durably on disk -- the crash half of the restore
    lane's crash/resume pair.
    """
    import json
    import os
    import signal

    from repro.checkpoint import RunConfig, run_checkpointed

    config = RunConfig(
        kind=args.kind,
        seed=args.seed,
        duration=args.duration,
        warmup=args.warmup,
        load_fraction=args.load_fraction,
        scenario=args.scenario,
        duration_scale=args.duration_scale,
        checkpoint_period=args.period,
    )
    on_checkpoint = None
    if args.kill_after_checkpoint is not None:
        if args.dir is None:
            raise SystemExit("--kill-after-checkpoint requires --dir")

        def on_checkpoint(index: int) -> None:
            if index >= args.kill_after_checkpoint:
                sys.stdout.flush()
                os.kill(os.getpid(), signal.SIGKILL)

    fingerprints = run_checkpointed(
        config, directory=args.dir, on_checkpoint=on_checkpoint
    )
    print(json.dumps(fingerprints, sort_keys=True))
    return 0


def cmd_resume(args) -> int:
    """Resume the newest checkpoint in ``--dir`` and run to the end.

    Rebuilds the world from the checkpoint's persisted config, replays to
    the checkpointed safe-point, verifies the replayed state bit-for-bit,
    finishes the run, and prints the same JSON fingerprint line
    ``run-ckpt`` prints -- identical bytes if the resume is exact.
    """
    import json

    from repro.checkpoint import resume_checkpointed

    fingerprints = resume_checkpointed(args.dir)
    print(json.dumps(fingerprints, sort_keys=True))
    return 0


def cmd_shard(args) -> int:
    """Run one sharded-cluster scenario and print its fingerprints.

    The four stream fingerprints (``report``, ``shed``, ``batch``,
    ``energy``) are bit-identical for any ``--shards``/``--workers``
    combination, under any ``--transport`` fault preset, and across a
    coordinator crash + ``--resume`` -- the invariances the CI shard and
    transport lanes pin down.
    """
    import json
    import time

    from repro.shard import (
        ShardCheckpointPolicy,
        resume_sharded,
        run_sharded,
    )
    from repro.shard.scenario import SCENARIOS, transport_preset

    plan = transport_preset(args.transport)
    checkpoint = None
    if args.ckpt_dir is not None:
        checkpoint = ShardCheckpointPolicy(
            directory=args.ckpt_dir,
            every=args.ckpt_every,
            kill_after=args.kill_after_checkpoint,
        )
    pool_hook = None
    if args.kill_worker_at is not None:
        killed = {"done": False}

        def pool_hook(pool, epoch_index):
            if (
                epoch_index == args.kill_worker_at
                and pool.parallel
                and not killed["done"]
            ):
                pool.kill_worker(0)
                killed["done"] = True

    started = time.perf_counter()
    if args.resume:
        if args.ckpt_dir is None:
            raise SystemExit("--resume requires --ckpt-dir")
        result = resume_sharded(
            args.ckpt_dir,
            pool_hook=pool_hook,
            transport_plan=plan,
            transport_seed=args.transport_seed,
            checkpoint=checkpoint,
        )
        config = result.config
    else:
        try:
            builder = SCENARIOS[args.scenario]
        except KeyError:
            raise SystemExit(
                f"unknown scenario {args.scenario!r}; "
                f"known: {', '.join(sorted(SCENARIOS))}"
            )
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.machines is not None:
            overrides["n_machines"] = args.machines
        if args.duration is not None:
            overrides["duration"] = args.duration
        config = builder(
            n_shards=args.shards, workers=args.workers, **overrides
        )
        result = run_sharded(
            config,
            pool_hook=pool_hook,
            transport_plan=plan,
            transport_seed=args.transport_seed,
            checkpoint=checkpoint,
        )
    wall = time.perf_counter() - started
    rows = [
        ["machines", str(config.n_machines)],
        ["shards", str(config.n_shards)],
        ["workers", str(config.workers)],
        ["requests", str(result.n_requests)],
        ["completed", str(result.completed)],
        ["shed", str(result.shed)],
        ["failovers", str(result.failovers)],
        ["late replies", str(result.late_replies)],
        ["epochs", str(result.epochs)],
        ["worker restarts", str(result.worker_restarts)],
        ["mean response (ms)",
         f"{result.mean_response_time() * 1e3:.3f}"],
        ["attributed energy (J)", f"{result.total_energy_joules:.3f}"],
        ["wall time (s)", f"{wall:.2f}"],
    ]
    if plan is not None:
        moved = sum(
            value for key, value in result.transport_stats.items()
            if key.endswith(("dropped", "duplicated", "reordered",
                             "delayed", "corrupted"))
        )
        rows.append(["transport faults injected", str(moved)])
    print(render_table(["metric", "value"], rows,
                       title=f"sharded run: {args.scenario}"))
    print(json.dumps(dict(result.fingerprints, resumed=result.resumed),
                     sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    """One-shot energy service: sharded run -> store -> dashboard/query.

    The SmartWatts-style central store ingests the merged completion
    stream (plus telemetry frames in mode "on") and either exports a
    self-contained dashboard JSON + CSV (default) or answers one
    deterministic ``--query``.  Mode defaults to "store" for flash (zero
    worker-side cost at 1,000+ machines) and "on" otherwise.
    """
    import json
    import os

    from repro.shard.scenario import SCENARIOS, run_scenario

    if args.scenario not in SCENARIOS:
        raise SystemExit(
            f"unknown scenario {args.scenario!r}; "
            f"known: {', '.join(sorted(SCENARIOS))}"
        )
    mode = args.telemetry
    if mode is None:
        mode = "store" if args.scenario == "flash" else "on"
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.machines is not None:
        overrides["n_machines"] = args.machines
    if args.duration is not None:
        overrides["duration"] = args.duration
    result = run_scenario(
        args.scenario,
        n_shards=args.shards,
        workers=args.workers,
        telemetry=mode,
        **overrides,
    )
    observability = result.observability
    store = observability.store
    engine = observability.engine
    if args.query == "top-energy":
        print(render_table(
            ["request", "machine", "rtype", "joules"],
            [[f"r{row['request_id']}", row["machine"], row["rtype"],
              row["joules"]] for row in store.top_energy()],
            title=f"top-{store.top_k} energy consumers: {args.scenario}",
        ))
    elif args.query == "percentiles":
        percentiles = store.joules_percentiles()
        keys = sorted(next(iter(percentiles.values()), {}))
        print(render_table(
            ["rtype", *keys],
            [[rtype, *(values[key] for key in keys)]
             for rtype, values in sorted(percentiles.items())],
            title=f"joules per request: {args.scenario}",
        ))
    elif args.query == "rack-power":
        rows = []
        for rack, points in sorted(store.rack_power_series().items()):
            watts = [value for _start, value in points]
            rows.append([
                f"rack{rack}", len(points),
                sum(watts) / len(watts) if watts else 0.0,
                max(watts) if watts else 0.0,
            ])
        print(render_table(
            ["rack", "windows", "mean W", "peak W"], rows,
            title=f"rack power rollup: {args.scenario} "
                  f"(full series in the dashboard JSON)",
        ))
    elif args.query == "alerts":
        print(render_table(
            ["window", "detector", "severity", "subject", "message"],
            [[alert.window, alert.detector, alert.severity, alert.subject,
              alert.message] for alert in engine.alerts],
            title=f"fired alerts: {args.scenario} "
                  f"(fingerprint {engine.alert_fingerprint()})",
        ))
    else:  # default: the one-shot dashboard report
        meta = {
            "scenario": args.scenario,
            "workload": result.config.workload,
            "machines": result.config.n_machines,
            "shards": result.config.n_shards,
            "seed": result.config.seed,
            "telemetry_mode": mode,
            "run_fingerprint": result.fingerprint(),
        }
        dashboard = observability.dashboard(meta=meta)
        os.makedirs(args.out_dir, exist_ok=True)
        json_path = os.path.join(
            args.out_dir, f"dashboard-{args.scenario}.json"
        )
        with open(json_path, "w") as handle:
            handle.write(json.dumps(dashboard, indent=2, sort_keys=True))
        csv_path = os.path.join(
            args.out_dir, f"dashboard-{args.scenario}.csv"
        )
        store.write_csv(csv_path)
        summary = dashboard["summary"]
        rows = [
            ["requests", str(summary["requests"])],
            ["total energy (J)", f"{summary['total_joules']:.3f}"],
            ["machines", str(summary["machines"])],
            ["racks", str(summary["racks"])],
            ["windows", str(summary["windows"])],
            ["alerts fired", str(len(dashboard["alerts"]))],
            ["store fingerprint", dashboard["store_fingerprint"]],
            ["alert fingerprint", engine.alert_fingerprint()],
        ]
        if observability.trace_fingerprint() is not None:
            rows.append(
                ["merged trace fingerprint",
                 observability.trace_fingerprint()]
            )
        print(render_table(
            ["metric", "value"], rows,
            title=f"energy service: {args.scenario} (mode {mode})",
        ))
        print(f"wrote dashboard JSON to {json_path}")
        print(f"wrote dashboard CSV to {csv_path}")
    return 0


COMMANDS: dict[str, tuple[Callable, str]] = {
    "fig01": (cmd_fig01, "Fig. 1: incremental per-core power"),
    "calibration": (cmd_calibration, "Sec. 4.1: calibration table"),
    "validate": (cmd_validate, "Fig. 8: validation errors on one machine"),
    "conditioning": (cmd_conditioning, "Fig. 11/12: fair power capping"),
    "ratios": (cmd_ratios, "Fig. 13: cross-machine energy ratios"),
    "distribution": (cmd_distribution, "Fig. 14/Table 1: dispatch policies"),
    "sweep": (cmd_sweep, "load sweep of one workload on one machine"),
    "chaos": (cmd_chaos, "chaos scenarios: seeded faults + invariant checks"),
    "overload": (cmd_overload, "overload demo: storm + cap-squeeze brownout"),
    "perf": (cmd_perf, "performance suite: micro/macro benchmarks"),
    "trace": (cmd_trace, "trace a chaos scenario: spans + energy timeline"),
    "metrics": (cmd_metrics, "unified metrics exposition for one scenario"),
    "run-ckpt": (cmd_run_ckpt, "checkpointed run: periodic snapshots + "
                               "fingerprints"),
    "resume": (cmd_resume, "resume the newest checkpoint and run to the end"),
    "shard": (cmd_shard, "sharded cluster run: epoch barriers + power-aware "
                         "placement"),
    "serve": (cmd_serve, "one-shot energy service: dashboard export + "
                         "deterministic --query answers"),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate Power Containers (ASPLOS'13) experiments.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name, (_fn, help_text) in COMMANDS.items():
        cmd_parser = sub.add_parser(name, help=help_text)
        if name == "validate":
            cmd_parser.add_argument(
                "--machine", default="sandybridge",
                choices=("sandybridge", "woodcrest", "westmere"),
            )
            cmd_parser.add_argument(
                "--workloads", nargs="+",
                default=["solr", "stress", "gae-hybrid"],
            )
        elif name == "sweep":
            cmd_parser.add_argument(
                "--machine", default="sandybridge",
                choices=("sandybridge", "woodcrest", "westmere"),
            )
            cmd_parser.add_argument("--workload", default="solr")
            cmd_parser.add_argument(
                "--jobs", type=int, default=None,
                help="worker processes for sweep points (default: all cores)",
            )
        elif name == "distribution":
            cmd_parser.add_argument(
                "--jobs", type=int, default=None,
                help="worker processes for policies (default: all cores)",
            )
        elif name == "perf":
            cmd_parser.add_argument(
                "--output", default="BENCH_perf.json",
                help="where to write results (default: BENCH_perf.json)",
            )
            cmd_parser.add_argument(
                "--check", metavar="BASELINE",
                help="compare against a committed BENCH_perf.json instead "
                     "of writing; non-zero exit on regression",
            )
            cmd_parser.add_argument(
                "--threshold", type=float, default=3.0,
                help="allowed slowdown multiple vs the committed baseline",
            )
        elif name == "chaos":
            cmd_parser.add_argument(
                "--all", action="store_true",
                help="run every scenario (default when none named)",
            )
            cmd_parser.add_argument(
                "--scenario", nargs="+", default=[],
                help="specific scenario names to run",
            )
            cmd_parser.add_argument("--seed", type=int, default=42)
            cmd_parser.add_argument(
                "--duration-scale", type=float, default=1.0,
                help="scale every scenario's duration (and fault windows)",
            )
            cmd_parser.add_argument(
                "--fingerprints", action="store_true",
                help="print each report's canonical fingerprint",
            )
        elif name in ("trace", "metrics"):
            cmd_parser.add_argument(
                "--scenario", default="arrival-storm",
                help="chaos scenario to run under telemetry",
            )
            cmd_parser.add_argument("--seed", type=int, default=42)
            cmd_parser.add_argument(
                "--duration-scale", type=float, default=1.0,
                help="scale the scenario's duration (and fault windows)",
            )
            cmd_parser.add_argument(
                "--out", default=None,
                help="output path (default: results/<cmd>-<scenario>.*)",
            )
            cmd_parser.add_argument(
                "--shards", type=int, default=0,
                help="run a sharded scenario (solr/chaos/flash) instead of "
                     "a chaos world and merge per-shard telemetry",
            )
            cmd_parser.add_argument(
                "--workers", type=int, default=1,
                help="worker processes for the sharded run (with --shards)",
            )
            if name == "trace":
                cmd_parser.add_argument(
                    "--capacity", type=int, default=65536,
                    help="trace ring-buffer capacity in events",
                )
                cmd_parser.add_argument(
                    "--limit", type=int, default=40,
                    help="timeline lines to print (full trace goes to --out)",
                )
        elif name == "run-ckpt":
            cmd_parser.add_argument(
                "--kind", default="solr", choices=("solr", "chaos"),
                help="world to run: the Solr macro or a chaos scenario",
            )
            cmd_parser.add_argument("--seed", type=int, default=7)
            cmd_parser.add_argument(
                "--duration", type=float, default=1.5,
                help="solr run duration in simulated seconds",
            )
            cmd_parser.add_argument(
                "--warmup", type=float, default=0.2,
                help="solr measurement warmup in simulated seconds",
            )
            cmd_parser.add_argument(
                "--load-fraction", type=float, default=0.6,
                help="solr open-loop load fraction",
            )
            cmd_parser.add_argument(
                "--scenario", default="meter-nan-burst",
                help="chaos scenario name (with --kind chaos)",
            )
            cmd_parser.add_argument(
                "--duration-scale", type=float, default=1.0,
                help="chaos duration scale (with --kind chaos)",
            )
            cmd_parser.add_argument(
                "--period", type=float, default=None,
                help="auto-checkpoint period in simulated seconds "
                     "(default: checkpointing disabled)",
            )
            cmd_parser.add_argument(
                "--dir", default=None,
                help="checkpoint directory (required to persist snapshots)",
            )
            cmd_parser.add_argument(
                "--kill-after-checkpoint", type=int, default=None,
                metavar="K",
                help="SIGKILL this process right after checkpoint K is "
                     "durably on disk",
            )
        elif name == "resume":
            cmd_parser.add_argument(
                "--dir", required=True,
                help="checkpoint directory written by run-ckpt",
            )
        elif name == "shard":
            cmd_parser.add_argument(
                "--scenario", default="solr",
                choices=("solr", "chaos", "flash"),
                help="named scenario (flash = ≥1000 machines, diurnal + "
                     "flash crowd)",
            )
            cmd_parser.add_argument(
                "--shards", type=int, default=1,
                help="number of shards the cluster is partitioned into",
            )
            cmd_parser.add_argument(
                "--workers", type=int, default=1,
                help="worker processes executing the shards",
            )
            cmd_parser.add_argument("--seed", type=int, default=None)
            cmd_parser.add_argument(
                "--machines", type=int, default=None,
                help="override the scenario's machine count",
            )
            cmd_parser.add_argument(
                "--duration", type=float, default=None,
                help="override the scenario's arrival window (simulated s)",
            )
            cmd_parser.add_argument(
                "--transport", default="none",
                choices=("none", "lossy", "corrupt", "chaos"),
                help="transport fault preset applied to every "
                     "coordinator<->worker exchange (results must stay "
                     "bit-identical)",
            )
            cmd_parser.add_argument(
                "--transport-seed", type=int, default=None,
                help="seed for the lossy channels (default: the run seed)",
            )
            cmd_parser.add_argument(
                "--ckpt-dir", default=None,
                help="checkpoint coordinator + pool state here at every "
                     "epoch barrier",
            )
            cmd_parser.add_argument(
                "--ckpt-every", type=int, default=1,
                help="checkpoint every N epoch barriers",
            )
            cmd_parser.add_argument(
                "--kill-after-checkpoint", type=int, default=None,
                help="SIGKILL the coordinator right after the checkpoint "
                     "for this epoch is durably written (crash-recovery "
                     "test hook)",
            )
            cmd_parser.add_argument(
                "--kill-worker-at", type=int, default=None,
                help="SIGKILL worker 0 before this epoch (parallel runs "
                     "only; restart-test hook)",
            )
            cmd_parser.add_argument(
                "--resume", action="store_true",
                help="resume the newest checkpoint in --ckpt-dir and run "
                     "to the end",
            )
        elif name == "serve":
            cmd_parser.add_argument(
                "--scenario", default="solr",
                choices=("solr", "chaos", "flash"),
                help="named sharded scenario to serve a report for",
            )
            cmd_parser.add_argument(
                "--shards", type=int, default=2,
                help="number of shards the cluster is partitioned into",
            )
            cmd_parser.add_argument(
                "--workers", type=int, default=1,
                help="worker processes executing the shards",
            )
            cmd_parser.add_argument("--seed", type=int, default=None)
            cmd_parser.add_argument(
                "--machines", type=int, default=None,
                help="override the scenario's machine count",
            )
            cmd_parser.add_argument(
                "--duration", type=float, default=None,
                help="override the scenario's arrival window (simulated s)",
            )
            cmd_parser.add_argument(
                "--telemetry", default=None, choices=("store", "on"),
                help="telemetry mode (default: store for flash, on "
                     "otherwise; store skips worker-side frames)",
            )
            cmd_parser.add_argument(
                "--query", default=None,
                choices=("top-energy", "percentiles", "rack-power",
                         "alerts"),
                help="print one deterministic query instead of exporting "
                     "the dashboard",
            )
            cmd_parser.add_argument(
                "--out-dir", default="results",
                help="directory for dashboard JSON + CSV exports",
            )
        elif name == "overload":
            cmd_parser.add_argument("--seed", type=int, default=42)
            cmd_parser.add_argument(
                "--duration", type=float, default=1.6,
                help="simulated seconds to run",
            )
            cmd_parser.add_argument(
                "--storm", type=float, default=5.0,
                help="arrival-surge multiplier during the storm window",
            )
            cmd_parser.add_argument(
                "--squeeze", type=float, default=0.45,
                help="cap fraction during the squeeze window",
            )
            cmd_parser.add_argument(
                "--cap-watts", type=float, default=95.0,
                help="baseline cluster power cap in watts",
            )
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        rows = [[name, help_text] for name, (_f, help_text) in COMMANDS.items()]
        print(render_table(["experiment", "description"], rows,
                           title="available experiments"))
        return 0
    result = COMMANDS[args.command][0](args)
    return int(result) if result else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
