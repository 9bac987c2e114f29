"""Tests for core selection, spreading, pinning, and preemption."""

import pytest

from repro.hardware import WOODCREST, build_machine
from repro.kernel import Compute, Kernel
from repro.sim import Simulator
from tests.kernel.conftest import SPIN


def _spin_program(machine, seconds):
    def program():
        yield Compute(cycles=machine.freq_hz * seconds, profile=SPIN)
    return program()


def test_tasks_spread_across_chips_first():
    """On Woodcrest (2 chips x 2 cores), two tasks land on distinct chips."""
    sim = Simulator()
    machine = build_machine(WOODCREST, sim)
    kernel = Kernel(machine, sim)
    kernel.spawn(_spin_program(machine, 0.1), "a")
    kernel.spawn(_spin_program(machine, 0.1), "b")
    sim.run_until(0.01)
    busy_chips = {c.chip.index for c in machine.cores if c.busy}
    assert busy_chips == {0, 1}


def test_four_tasks_fill_all_woodcrest_cores():
    sim = Simulator()
    machine = build_machine(WOODCREST, sim)
    kernel = Kernel(machine, sim)
    for i in range(4):
        kernel.spawn(_spin_program(machine, 0.1), f"t{i}")
    sim.run_until(0.01)
    assert machine.busy_core_count == 4


def test_pinned_process_only_runs_on_its_core(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=machine.freq_hz * 0.05, profile=SPIN)

    proc = kernel.spawn(program(), "pinned", pinned_core=2)
    sim.run_until(0.01)
    assert proc.core_index == 2
    assert machine.cores[2].busy
    assert not machine.cores[0].busy


def test_two_pinned_processes_share_one_core(world):
    sim, machine, kernel = world
    done = []

    def program(tag):
        yield Compute(cycles=machine.freq_hz * 0.05, profile=SPIN)
        done.append((tag, sim.now))

    kernel.spawn(program("a"), "a", pinned_core=1)
    kernel.spawn(program("b"), "b", pinned_core=1)
    sim.run_until(1.0)
    # Total work is 0.1 s of cycles on one core: last finishes at ~0.1 s.
    assert max(t for _, t in done) == pytest.approx(0.1, rel=1e-3)
    assert len(done) == 2


def test_oversubscription_round_robins_with_quantum(world):
    sim, machine, kernel = world
    # 5 CPU-bound tasks on 4 cores: someone must be preempted.
    for i in range(5):
        kernel.spawn(
            (x for x in [Compute(cycles=machine.freq_hz * 0.05, profile=SPIN)]),
            f"t{i}",
        )
    sim.run_until(1.0)
    preempts = kernel.hooks.of_kind("undispatch")
    assert any(e.detail["reason"] == "preempt" for e in preempts)


def test_oversubscribed_tasks_all_finish_with_fair_total_time(world):
    sim, machine, kernel = world
    done = []

    def program(tag):
        yield Compute(cycles=machine.freq_hz * 0.1, profile=SPIN)
        done.append(tag)

    for i in range(8):
        kernel.spawn(program(i), f"t{i}")
    # 8 tasks x 0.1 s on 4 cores = 0.2 s total runtime.
    sim.run_until(0.25)
    assert sorted(done) == list(range(8))


def test_no_preemption_when_no_waiters(world):
    sim, machine, kernel = world

    def program():
        yield Compute(cycles=machine.freq_hz * 0.05, profile=SPIN)

    kernel.spawn(program(), "solo")
    sim.run_until(0.1)
    reasons = {e.detail["reason"] for e in kernel.hooks.of_kind("undispatch")}
    assert "preempt" not in reasons


def test_quantum_validation():
    sim = Simulator()
    machine = build_machine(WOODCREST, sim)
    with pytest.raises(ValueError):
        Kernel(machine, sim, quantum=0.0)


def test_idle_core_selected_for_waking_process(world):
    sim, machine, kernel = world

    def short():
        yield Compute(cycles=machine.freq_hz * 0.01, profile=SPIN)

    # Occupy cores 0..2 (spread policy fills a single chip sequentially).
    for i in range(3):
        kernel.spawn(_spin_program(machine, 0.5), f"long{i}")
    kernel.spawn(short(), "short")
    sim.run_until(0.001)
    assert machine.busy_core_count == 4
