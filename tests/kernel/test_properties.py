"""Property-based tests on kernel scheduling and energy invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import RateProfile, WOODCREST
from repro.kernel import Compute, ProcessState, Sleep
from tests.kernel.conftest import recording_kernel as _build


@settings(max_examples=20, deadline=None)
@given(
    workloads=st.lists(
        st.tuples(
            st.floats(min_value=1e5, max_value=5e7),  # cycles
            st.floats(min_value=0.1, max_value=3.0),  # ipc
        ),
        min_size=1,
        max_size=8,
    )
)
def test_property_all_requested_cycles_get_executed(workloads):
    """Whatever the task mix, total counted non-halt cycles equals the
    total requested work (no cycles lost to scheduling)."""
    sim, machine, kernel = _build()

    def program(cycles, ipc):
        yield Compute(cycles=cycles, profile=RateProfile(ipc=ipc))

    for i, (cycles, ipc) in enumerate(workloads):
        kernel.spawn(program(cycles, ipc), f"w{i}")
    sim.run_until(1.0)

    total_counted = sum(
        core.counters.read().nonhalt_cycles for core in machine.cores
    )
    total_requested = sum(cycles for cycles, _ in workloads)
    assert total_counted == pytest.approx(total_requested, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    n_tasks=st.integers(min_value=1, max_value=10),
    duty=st.integers(min_value=1, max_value=8),
)
def test_property_energy_equals_power_integral(n_tasks, duty):
    """Measured energy exactly equals sum over cores of (power x time),
    regardless of concurrency or duty level."""
    sim, machine, kernel = _build()
    for core in machine.cores:
        core.set_duty_level(duty)
    profile = RateProfile(ipc=1.5, cache_per_cycle=0.01)
    work_seconds = 0.02

    def program():
        yield Compute(
            cycles=machine.freq_hz * work_seconds * duty / 8, profile=profile
        )

    for i in range(n_tasks):
        kernel.spawn(program(), f"w{i}")
    sim.run_until(1.0)
    machine.checkpoint()

    # Total active energy = per-core energy + maintenance energy.
    per_core = sum(
        machine.integrator.per_core_joules(c.index) for c in machine.cores
    )
    maintenance = sum(
        machine.integrator.maintenance_joules(chip.index)
        for chip in machine.chips
    )
    assert machine.integrator.active_joules == pytest.approx(
        per_core + maintenance, rel=1e-9
    )
    # Per-core energy scales with the true per-core power and busy time.
    watts = machine.true_model.core_active_watts(
        duty / 8, 1.5, 0.0, 0.01, 0.0, 0.0
    )
    busy_seconds = sum(p.cpu_seconds for p in kernel.processes.values())
    assert per_core == pytest.approx(watts * busy_seconds, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(n_tasks=st.integers(min_value=2, max_value=12))
def test_property_no_core_ever_runs_two_processes(n_tasks):
    sim, machine, kernel = _build(WOODCREST)

    def program():
        for _ in range(3):
            yield Compute(cycles=3e6, profile=RateProfile(ipc=1.0))
            yield Sleep(1e-3)

    for i in range(n_tasks):
        kernel.spawn(program(), f"w{i}")

    occupancy: dict[int, int] = {}
    violations = []

    for event in _run_and_collect(sim, kernel, until=0.5):
        if event.kind == "dispatch":
            core = event.detail["core"]
            if core in occupancy:
                violations.append((event.time, core))
            occupancy[core] = event.detail["pid"]
        elif event.kind == "undispatch":
            occupancy.pop(event.detail["core"], None)
    assert violations == []


def _run_and_collect(sim, kernel, until):
    sim.run_until(until)
    return list(kernel.hooks.events)


@settings(max_examples=15, deadline=None)
@given(
    switch_times=st.lists(
        st.floats(min_value=0.001, max_value=0.05), min_size=1, max_size=5
    ),
    levels=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5),
)
def test_property_duty_changes_conserve_work(switch_times, levels):
    """Arbitrary mid-run duty-level changes never lose or duplicate cycles."""
    sim, machine, kernel = _build()
    total_cycles = machine.freq_hz * 0.08
    done = []

    def program():
        yield Compute(cycles=total_cycles, profile=RateProfile(ipc=1.0))
        done.append(sim.now)

    kernel.spawn(program(), "w")
    t = 0.0
    for delay, level in zip(switch_times, levels):
        t += delay
        sim.schedule_at(
            t, kernel.set_core_duty, machine.cores[0], level
        )
    sim.run_until(2.0)
    assert done, "the task must complete within the horizon"
    counted = machine.cores[0].counters.read().nonhalt_cycles
    assert counted == pytest.approx(total_cycles, rel=1e-6)


def test_zombie_children_do_not_leak_runqueue():
    sim, machine, kernel = _build()
    from repro.kernel import Exit, Fork, WaitChild

    def child():
        yield Compute(cycles=1e5, profile=RateProfile(ipc=1.0))
        yield Exit("ok")

    def parent():
        kids = []
        for _ in range(5):
            kid = yield Fork(child(), name="kid")
            kids.append(kid)
        for kid in kids:
            yield WaitChild(kid)

    kernel.spawn(parent(), "parent")
    sim.run_until(0.5)
    assert kernel.scheduler.ready_count == 0
    assert all(
        p.state in (ProcessState.DEAD, ProcessState.ZOMBIE)
        for p in kernel.processes.values()
    )


def test_clock_monotonicity_in_trace():
    sim, machine, kernel = _build()

    def program():
        for _ in range(10):
            yield Compute(cycles=1e6, profile=RateProfile(ipc=1.0))
            yield Sleep(5e-4)

    for i in range(6):
        kernel.spawn(program(), f"w{i}")
    sim.run_until(0.1)
    times = [e.time for e in kernel.hooks.events]
    assert times == sorted(times)
