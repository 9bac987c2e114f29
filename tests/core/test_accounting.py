"""Tests for per-core accounting, observer effect, and facility hooks."""

import pytest

from repro.core import ObserverEffect, PowerContainerFacility
from repro.hardware import RateProfile, SANDYBRIDGE, build_machine
from repro.kernel import Compute, Kernel, Sleep
from repro.sim import Simulator

SPIN = RateProfile(name="spin", ipc=1.0)
HOT = RateProfile(name="hot", ipc=1.2, cache_per_cycle=0.015, mem_per_cycle=0.009)


def _world(sb_cal, **facility_kwargs):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, sb_cal, **facility_kwargs)
    return sim, machine, kernel, facility


def _spin(machine, seconds, profile=SPIN):
    def program():
        yield Compute(cycles=machine.freq_hz * seconds, profile=profile)
    return program()


def test_facility_attaches_as_kernel_hooks(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    assert kernel.hooks is facility


def test_energy_attributed_to_bound_container(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    container = facility.create_request_container("req")
    kernel.spawn(_spin(machine, 0.1), "w", container_id=container.id)
    sim.run_until(0.2)
    facility.flush()
    assert container.stats.cpu_seconds == pytest.approx(0.1, rel=1e-3)
    # One spinning core + full chip share for ~0.1 s.
    model = facility.models["recal"]
    expected_watts = model.coefficient("mcore") + model.coefficient("mins") + \
        model.coefficient("mchipshare")
    assert container.energy("recal") == pytest.approx(
        expected_watts * 0.1, rel=0.1
    )


def test_untracked_work_lands_in_background(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    kernel.spawn(_spin(machine, 0.05), "daemon")  # no container
    sim.run_until(0.1)
    facility.flush()
    assert facility.registry.background.stats.cpu_seconds == pytest.approx(
        0.05, rel=1e-2
    )


def test_two_containers_split_energy_by_work(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    a = facility.create_request_container("a")
    b = facility.create_request_container("b")
    kernel.spawn(_spin(machine, 0.1), "wa", container_id=a.id)
    kernel.spawn(_spin(machine, 0.05), "wb", container_id=b.id)
    sim.run_until(0.2)
    facility.flush()
    assert a.stats.cpu_seconds == pytest.approx(0.1, rel=1e-2)
    assert b.stats.cpu_seconds == pytest.approx(0.05, rel=1e-2)
    assert a.energy("recal") > b.energy("recal")


def test_concurrent_tasks_share_chip_power(sb_cal):
    """Two concurrent spinners each get about half the maintenance power."""
    sim, machine, kernel, facility = _world(sb_cal)
    a = facility.create_request_container("a")
    b = facility.create_request_container("b")
    kernel.spawn(_spin(machine, 0.1), "wa", container_id=a.id)
    kernel.spawn(_spin(machine, 0.1), "wb", container_id=b.id)
    sim.run_until(0.2)
    facility.flush()
    # Energies should be nearly equal (same work, same share).
    assert a.energy("recal") == pytest.approx(b.energy("recal"), rel=0.05)


def test_sum_of_container_energy_matches_measured_active_power(sb_cal):
    """The paper's Fig. 8 validation invariant at small scale."""
    sim, machine, kernel, facility = _world(sb_cal)
    containers = []
    for i in range(3):
        c = facility.create_request_container(f"r{i}")
        containers.append(c)
        kernel.spawn(_spin(machine, 0.08, HOT), f"w{i}", container_id=c.id)
    sim.run_until(0.2)
    facility.flush()
    machine.checkpoint()
    measured = machine.integrator.active_joules
    estimated = facility.registry.total_energy("recal")
    assert estimated == pytest.approx(measured, rel=0.10)


def test_eq1_underestimates_compared_to_eq2(sb_cal):
    """Approach #1 has no chip-share term: on a lone task it misses most of
    the maintenance power that approach #2 attributes."""
    sim, machine, kernel, facility = _world(sb_cal)
    c = facility.create_request_container("r")
    kernel.spawn(_spin(machine, 0.1), "w", container_id=c.id)
    sim.run_until(0.2)
    facility.flush()
    machine.checkpoint()
    measured = machine.integrator.active_joules
    err_eq1 = abs(c.energy("eq1") - measured) / measured
    err_eq2 = abs(c.energy("eq2") - measured) / measured
    assert err_eq2 < err_eq1


def test_observer_effect_injected_into_counters(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    kernel.spawn(_spin(machine, 0.05), "w")
    sim.run_until(0.1)
    # ~50 overflow samples, each injecting 2948 cycles: counters exceed work.
    total = machine.cores[0].counters.read().nonhalt_cycles
    work = machine.freq_hz * 0.05
    assert total > work
    assert total - work == pytest.approx(
        facility.accountants[0].samples_taken * 2948, rel=0.1
    )


def test_observer_subtraction_keeps_attribution_clean(sb_cal):
    """With subtraction on, attributed events match the true work; with it
    off, the maintenance events pollute the request profile."""
    def run(subtract):
        sim, machine, kernel, facility = _world(sb_cal, subtract_observer=subtract)
        c = facility.create_request_container("r")
        kernel.spawn(_spin(machine, 0.05), "w", container_id=c.id)
        sim.run_until(0.1)
        facility.flush()
        return c.stats.events.nonhalt_cycles

    work = SANDYBRIDGE.freq_hz * 0.05
    clean = run(True)
    dirty = run(False)
    assert clean == pytest.approx(work, rel=1e-3)
    assert dirty > clean


def test_no_observer_effect_when_disabled(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal, observer=None)
    kernel.spawn(_spin(machine, 0.05), "w")
    sim.run_until(0.1)
    total = machine.cores[0].counters.read().nonhalt_cycles
    assert total == pytest.approx(machine.freq_hz * 0.05, rel=1e-6)


def test_intermittent_task_utilization_accounted(sb_cal):
    """A 50%-utilization task accumulates only its busy time."""
    sim, machine, kernel, facility = _world(sb_cal)
    c = facility.create_request_container("r")

    def program():
        for _ in range(20):
            yield Compute(cycles=machine.freq_hz * 1e-3, profile=SPIN)
            yield Sleep(1e-3)

    kernel.spawn(program(), "w", container_id=c.id)
    sim.run_until(0.1)
    facility.flush()
    assert c.stats.cpu_seconds == pytest.approx(0.02, rel=0.05)


def test_primary_defaults_to_last_approach(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    assert facility.primary == "recal"


def test_bad_primary_rejected(sb_cal):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    with pytest.raises(ValueError):
        PowerContainerFacility(kernel, sb_cal, primary="nonexistent")
    # Each approach charges its own energy entry; a repeated name would
    # charge one entry twice per sample.
    from repro.core.facility import default_approaches
    approaches = default_approaches()
    with pytest.raises(ValueError, match="duplicate approach names"):
        PowerContainerFacility(kernel, sb_cal,
                               approaches=approaches + approaches[-1:])


def test_refcount_released_after_completion(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    c = facility.create_request_container("r")
    kernel.spawn(_spin(machine, 0.01), "w", container_id=c.id)
    sim.run_until(0.05)
    facility.complete_request(c)
    assert c.closed  # worker exited (decref) + driver release


def test_coincident_samples_do_not_double_subtract_observer(sb_cal):
    """Regression: two samples at the same instant must not leak one
    maintenance op's worth of cycles.

    ``sample()`` at ``dt == 0`` re-baselines the counters to a snapshot that
    already contains the maintenance events injected by a sample at that
    same timestamp.  The pending observer correction must reset with the
    baseline, or the next real interval subtracts 2948 cycles of genuine
    request work (the bug hypothesis found via interleaved socket segments
    whose compute end coincided with an overflow interrupt).
    """
    from repro.hardware import EventVector

    sim, machine, kernel, facility = _world(sb_cal)
    accountant = facility.accountants[0]
    core = machine.cores[0]
    container = facility.create_request_container("r")
    work = EventVector(nonhalt_cycles=1e6, instructions=1e6)

    accountant.sample_and_rebind(0.0, container.id, occupied=True)
    core.inject_events(work.copy())
    accountant.sample(1e-3)   # attributes work, then injects maintenance
    accountant.sample(1e-3)   # coincident: re-baselines over the injection
    core.inject_events(work.copy())
    accountant.sample(2e-3)

    assert container.stats.events.nonhalt_cycles == pytest.approx(
        2e6, abs=1.0
    )


def test_observer_effect_event_vector_scales():
    ov = ObserverEffect()
    v = ov.event_vector(3)
    assert v.nonhalt_cycles == pytest.approx(3 * 2948)
    assert v.instructions == pytest.approx(3 * 1656)
    assert v.flops == pytest.approx(3 * 16)
    assert v.cache_refs == pytest.approx(9)
