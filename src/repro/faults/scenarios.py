"""The named chaos scenarios the ``repro chaos`` CLI runs.

Each scenario pairs a fault plan with the counters that prove the plan
fired and the guards engaged.  Fault windows are positioned as fractions of
the scenario duration, so ``--duration-scale`` stretches or compresses the
whole storyline; the ``expects`` thresholds are calibrated for scale 1.0
(shorter runs may legitimately under-shoot them).

Every scenario ends with a fault-free tail (no window extends past ~85% of
the run), so recovery -- not just survival -- is always part of what the
invariants certify.
"""

from __future__ import annotations

import numpy as np

from repro.faults.harness import ChaosWorld, Scenario, SingleMachineWorld
from repro.faults.injectors import MeterFaultProfile
from repro.faults.plan import FaultPlan


def _flapping_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    d = world.duration
    plan = FaultPlan()
    plan.meter_outage(0.125 * d, 0.125 * d)
    plan.meter_outage(0.42 * d, 0.15 * d)
    plan.meter_outage(0.71 * d, 0.125 * d)
    return plan


def _nan_burst_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    profile = MeterFaultProfile(nan_prob=0.5, negative_prob=0.2)
    return FaultPlan().meter_noise_window(
        0.25 * world.duration, 0.3 * world.duration, profile
    )


def _stuck_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    profile = MeterFaultProfile(stuck_prob=0.9, extra_delay_prob=0.3)
    return FaultPlan().meter_noise_window(
        0.2 * world.duration, 0.4 * world.duration, profile
    )


def _drop_dup_delay_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    profile = MeterFaultProfile(
        drop_prob=0.3, duplicate_prob=0.3, extra_delay_prob=0.3
    )
    return FaultPlan().meter_noise_window(
        0.2 * world.duration, 0.5 * world.duration, profile
    )


def _tag_loss_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    return FaultPlan().tag_loss_window(
        "listener",
        0.2 * world.duration,
        0.5 * world.duration,
        loss_prob=0.35,
        truncate_prob=0.2,
    )


def _stale_mailbox_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    d = world.duration
    plan = FaultPlan()
    plan.mailbox_freeze(1, 0.2 * d, 0.4 * d)
    plan.mailbox_freeze(3, 0.3 * d, 0.3 * d)
    return plan


def _cluster_crash_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    d = world.duration
    plan = FaultPlan()
    plan.machine_crash("sb1", 0.3 * d, 0.3 * d)
    plan.machine_crash("sb0", 0.7 * d, 0.15 * d)
    return plan


def _arrival_storm_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    # A 5x open-loop surge: the token buckets saturate, queues fill, and
    # low-priority arrivals are shed -- all before the fault-free tail
    # demonstrates the system draining back to normal admission.
    return FaultPlan().arrival_storm(0.2 * world.duration,
                                     0.45 * world.duration, multiplier=5.0)


def _cap_squeeze_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    d = world.duration
    plan = FaultPlan()
    # The utility halves the cluster's power budget mid-run; the brownout
    # ladder must walk up (condition -> shed -> reject) until measured
    # power fits, then back down as the squeeze lifts.
    plan.cap_squeeze(0.25 * d, 0.35 * d, fraction=0.45)
    # One machine's meter dies inside the squeeze window: the enforcer's
    # degraded-telemetry mode must drop to the conservative cap on top.
    plan.machine_meter_outage("sb0", 0.35 * d, 0.2 * d)
    return plan


def _storm_during_crash_plan(
    world: ChaosWorld, rng: np.random.Generator
) -> FaultPlan:
    d = world.duration
    plan = FaultPlan()
    # Half the cluster dies, then traffic triples while it is down: the
    # worst realistic day.  The surviving machine's admission control must
    # shed the overflow instead of melting, and recovery must re-admit.
    plan.machine_crash("sb1", 0.3 * d, 0.3 * d)
    plan.arrival_storm(0.35 * d, 0.3 * d, multiplier=3.0)
    return plan


def _kitchen_sink_plan(world: ChaosWorld, rng: np.random.Generator) -> FaultPlan:
    d = world.duration
    # One guaranteed outage plus a seeded random storm over every site the
    # single-machine world exposes.
    plan = FaultPlan().meter_outage(0.15 * d, 0.15 * d)
    n_cores = (
        world.machine.n_cores if isinstance(world, SingleMachineWorld) else 0
    )
    return plan.merge(
        FaultPlan.random(
            rng, d, endpoints=("listener",), n_cores=n_cores, max_windows=4
        )
    )


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="meter-flapping",
        description="Package meter dies and recovers three times; the "
        "watchdog falls back to last-good coefficients each outage and "
        "re-engages recalibration on recovery.",
        kind="single",
        duration=2.4,
        tolerance=0.30,
        build_plan=_flapping_plan,
        expects=(
            ("meter_outages", 3.0),
            ("facility_meter_fallbacks", 2.0),
            ("facility_meter_recoveries", 2.0),
        ),
    ),
    Scenario(
        name="meter-nan-burst",
        description="Half the readings in a window are NaN and a fifth are "
        "negative; ingestion filters discard them before they can poison a "
        "refit.",
        kind="single",
        duration=1.6,
        tolerance=0.25,
        build_plan=_nan_burst_plan,
        expects=(
            ("meter_corrupted", 5.0),
            ("facility_rejected_meter_samples", 1.0),
        ),
    ),
    Scenario(
        name="meter-stuck",
        description="The meter repeats its previous reading (stuck register) "
        "and delivers late; the recalibration guard bounds the damage.",
        kind="single",
        duration=1.6,
        tolerance=0.30,
        build_plan=_stuck_plan,
        expects=(("meter_corrupted", 10.0),),
    ),
    Scenario(
        name="meter-drop-dup-delay",
        description="Readings are dropped, duplicated, and extra-delayed at "
        "random; the availability-watermark consumer must not double-count "
        "or stall.",
        kind="single",
        duration=1.6,
        tolerance=0.25,
        build_plan=_drop_dup_delay_plan,
        expects=(
            ("meter_dropped", 3.0),
            ("meter_duplicated", 3.0),
            ("meter_delayed", 3.0),
        ),
    ),
    Scenario(
        name="tag-loss",
        description="A third of inbound request segments lose their in-band "
        "context tag; untagged work routes to the background container "
        "instead of mis-charging a stale binding.",
        kind="single",
        duration=1.6,
        tolerance=0.30,
        build_plan=_tag_loss_plan,
        expects=(
            ("listener_tags_lost", 3.0),
            ("facility_untagged_segments", 3.0),
        ),
    ),
    Scenario(
        name="stale-mailbox",
        description="Two cores' sample mailboxes freeze, so sibling "
        "chip-share reads see arbitrarily stale utilization (the Section "
        "3.1 hazard at its worst).",
        kind="single",
        duration=1.6,
        tolerance=0.30,
        build_plan=_stale_mailbox_plan,
        expects=(("mailbox_freezes", 2.0),),
    ),
    Scenario(
        name="cluster-crash",
        description="Each cluster machine crashes once (overlapping the "
        "other's healthy window); the dispatcher fails over in-flight "
        "requests and re-admits recovered machines.",
        kind="cluster",
        duration=1.6,
        tolerance=0.35,
        build_plan=_cluster_crash_plan,
        expects=(
            ("machine_crashes", 2.0),
            ("dispatch_retries", 1.0),
        ),
    ),
    Scenario(
        name="arrival-storm",
        description="Open-loop arrivals surge to 5x capacity planning; "
        "token buckets and bounded queues shed the overflow "
        "deterministically, every arrival reaching exactly one of "
        "completed/shed/rejected.",
        kind="overload",
        duration=1.6,
        tolerance=0.35,
        build_plan=_arrival_storm_plan,
        expects=(
            ("arrival_surges", 1.0),
            ("overload_rejected", 10.0),
            ("overload_queued_total", 5.0),
        ),
    ),
    Scenario(
        name="cap-squeeze",
        description="The cluster power cap is halved mid-run and one "
        "machine's meter dies inside the window; the brownout ladder "
        "escalates (condition -> shed -> reject) under the degraded-"
        "telemetry conservative cap, then steps back down with hysteresis.",
        kind="overload",
        duration=1.6,
        tolerance=0.35,
        build_plan=_cap_squeeze_plan,
        expects=(
            ("cap_squeezes", 1.0),
            ("powercap_escalations", 1.0),
            ("powercap_deescalations", 1.0),
            ("powercap_degraded_intervals", 1.0),
        ),
    ),
    Scenario(
        name="storm-during-crash",
        description="Half the cluster crashes and traffic triples while it "
        "is down; the survivor's admission control sheds the overflow, "
        "in-flight requests fail over, and recovery re-admits the machine.",
        kind="overload",
        duration=1.6,
        tolerance=0.35,
        build_plan=_storm_during_crash_plan,
        expects=(
            ("machine_crashes", 1.0),
            ("arrival_surges", 1.0),
            ("overload_rejected", 5.0),
        ),
    ),
    Scenario(
        name="kitchen-sink",
        description="A guaranteed meter outage plus a seeded random storm "
        "across every fault site at once.",
        kind="single",
        duration=2.0,
        tolerance=0.40,
        build_plan=_kitchen_sink_plan,
        expects=(("meter_outages", 1.0),),
    ),
)


def scenario_by_name(name: str) -> Scenario:
    """Look up one scenario; raises ``KeyError`` with the catalog listed."""
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in SCENARIOS)
    raise KeyError(f"unknown chaos scenario {name!r} (known: {known})")
