"""Telemetry must never change the physics it observes.

Two guarantees, mirroring the ``python -m ci telemetry`` lane:

* **determinism** -- two identically-seeded instrumented runs produce
  bit-identical ``trace_fingerprint()`` digests;
* **neutrality** -- attaching a telemetry handle leaves every attribution and energy number bit-identical to an
  uninstrumented run, across hypothesis-drawn seeds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import run_scenario, scenario_by_name
from repro.faults.harness import build_single_world
from repro.telemetry import MetricsRegistry, Telemetry

pytestmark = pytest.mark.slow


def _published(facility) -> dict:
    registry = MetricsRegistry()
    facility.publish_metrics(registry)
    return registry.snapshot()


def _energy_fingerprint(seed: int, telemetry) -> tuple:
    world = build_single_world(seed, duration=0.25, telemetry=telemetry)
    world.start()
    world.simulator.run_until(world.duration)
    world.facility.flush()
    return (
        world.measured_joules(),
        world.attributed_joules(),
        world.driver.completed,
        tuple(_published(world.facility).items()),
    )


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_telemetry_never_changes_attribution(seed):
    bare = _energy_fingerprint(seed, telemetry=None)
    telemetry = Telemetry()
    assert _energy_fingerprint(seed, telemetry=telemetry) == bare
    assert len(telemetry.tracer.events) > 0


def test_trace_fingerprint_is_deterministic_across_runs():
    scenario = scenario_by_name("meter-nan-burst")
    first = Telemetry()
    report_a = run_scenario(scenario, seed=42, telemetry=first)
    second = Telemetry()
    report_b = run_scenario(scenario, seed=42, telemetry=second)
    assert first.trace_fingerprint() == second.trace_fingerprint()
    assert report_a.fingerprint() == report_b.fingerprint()
    assert len(first.tracer.events) == len(second.tracer.events)


def test_instrumented_report_matches_baseline_report():
    scenario = scenario_by_name("meter-nan-burst")
    baseline = run_scenario(scenario, seed=42)
    traced = run_scenario(scenario, seed=42, telemetry=Telemetry())
    assert baseline.fingerprint() == traced.fingerprint()
