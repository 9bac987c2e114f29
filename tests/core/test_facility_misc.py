"""Miscellaneous facility behaviours: configuration, tracing, chip share
under churn on the 12-core Westmere."""

import numpy as np
import pytest

from repro.core import PowerContainerFacility, calibrate_machine
from repro.core.facility import ApproachConfig, default_approaches
from repro.core.model import FEATURES_EQ1
from repro.hardware import RateProfile, SANDYBRIDGE, WESTMERE, build_machine
from repro.kernel import Compute, Kernel, Sleep
from repro.sim import Simulator

WORK = RateProfile(name="work", ipc=1.0, cache_per_cycle=0.005)


def test_default_approaches_are_the_papers_three():
    names = [c.name for c in default_approaches()]
    assert names == ["eq1", "eq2", "recal"]
    assert default_approaches()[0].chipshare_mode == "none"
    assert default_approaches()[2].recalibrated


def test_custom_single_approach(sb_cal):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(
        kernel, sb_cal,
        approaches=[ApproachConfig("solo", FEATURES_EQ1, "none")],
    )
    assert facility.primary == "solo"
    assert set(facility.models) == {"solo"}
    assert facility.recalibrators == {}


def test_trace_period_defaults_to_meter_period(sb_cal):
    from repro.hardware import PackageMeter
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    meter = PackageMeter(machine, sim, period=2e-3, delay=1e-3)
    facility = PowerContainerFacility(kernel, sb_cal, meter=meter)
    assert facility.trace_period == 2e-3


def test_estimated_delay_seconds_property(sb_cal):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, sb_cal, trace_period=1e-3)
    assert facility.estimated_delay_seconds is None
    facility.pin_delay(3)
    assert facility.estimated_delay_seconds == pytest.approx(3e-3)


def test_start_tracing_idempotent(sb_cal):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, sb_cal, trace_period=1e-2)
    facility.start_tracing()
    facility.start_tracing()
    sim.run_until(0.1)
    # A doubled tracer would produce ~20 points for a 0.1 s run.
    times, _watts = facility.model_trace_series()
    assert 8 <= len(times) <= 11


@pytest.mark.slow
def test_westmere_chip_share_under_churn():
    """On the 12-core Westmere with tasks arriving and departing every few
    milliseconds, stale mailbox samples and the idle-task check must still
    produce a validation error within the paper's band."""
    cal = calibrate_machine(WESTMERE, duration=0.2)
    sim = Simulator()
    machine = build_machine(WESTMERE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, cal)
    rng = np.random.default_rng(7)
    containers = []

    def burst(cycles):
        def program():
            yield Compute(cycles=cycles, profile=WORK)
        return program()

    # Churn: 300 short tasks with random arrival over 1.5 s.
    t = 0.0
    for i in range(300):
        t += float(rng.exponential(0.005))
        cycles = machine.freq_hz * float(rng.uniform(0.002, 0.02))
        container = facility.create_request_container(f"churn{i}")
        containers.append(container)
        sim.schedule_at(
            t,
            lambda c=cycles, cid=container.id: kernel.spawn(
                burst(c), "task", container_id=cid
            ),
        )
    sim.run_until(3.0)
    facility.flush()
    machine.checkpoint()
    measured = machine.integrator.active_joules
    estimated = facility.registry.total_energy("eq2")
    assert abs(estimated - measured) / measured < 0.08


def test_sleeping_tasks_do_not_accumulate_events(sb_cal):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, sb_cal)
    container = facility.create_request_container("sleepy")

    def program():
        yield Compute(cycles=1e6, profile=WORK)
        yield Sleep(0.5)
        yield Compute(cycles=1e6, profile=WORK)

    kernel.spawn(program(), "w", container_id=container.id)
    sim.run_until(1.0)
    facility.flush()
    assert container.stats.events.nonhalt_cycles == pytest.approx(2e6, rel=1e-3)
    assert container.stats.cpu_seconds == pytest.approx(2e6 / 3.1e9, rel=1e-3)
