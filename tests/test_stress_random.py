"""Randomized whole-system stress test with invariant checks.

Generates a seeded random population of processes mixing every action kind
(compute at random profiles, sleeps, disk/net I/O, socket ping-pong, forks,
duty changes, DVFS changes), runs it under the full facility, and checks
the global invariants that must survive any interleaving:

* attributed non-halt cycles partition the truly executed cycles;
* estimated energy stays within a sane band of measured energy;
* the simulated clock stays monotone across every kernel hook call;
* no process is left RUNNING, no run queue entry leaks.
"""

import numpy as np
import pytest

from repro.core import PowerContainerFacility, calibrate_machine
from repro.hardware import RateProfile, SANDYBRIDGE, build_machine
from repro.kernel import (
    Compute,
    DiskIO,
    Fork,
    Kernel,
    NetIO,
    ProcessState,
    Recv,
    Send,
    Sleep,
    SocketPair,
    WaitChild,
)
from repro.sim import Simulator


@pytest.fixture(scope="module")
def cal():
    return calibrate_machine(SANDYBRIDGE, duration=0.15)


def _random_profile(rng):
    return RateProfile(
        name="rand",
        ipc=float(rng.uniform(0.2, 2.5)),
        flops_per_cycle=float(rng.uniform(0, 0.5)),
        cache_per_cycle=float(rng.uniform(0, 0.02)),
        mem_per_cycle=float(rng.uniform(0, 0.01)),
        hidden_watts=float(rng.choice([0.0, 0.0, 3.0])),
    )


def _random_program(rng, machine, sock, depth=0):
    """Build a random finite action script as a generator."""
    n_actions = int(rng.integers(2, 8))
    plan = []
    for _ in range(n_actions):
        kind = rng.choice(
            ["compute", "sleep", "disk", "net", "pingpong", "fork"]
            if depth == 0 else ["compute", "sleep", "disk"]
        )
        plan.append(kind)

    def program():
        executed = 0.0
        for kind in plan:
            if kind == "compute":
                cycles = float(rng.uniform(1e5, 8e6))
                yield Compute(cycles=cycles, profile=_random_profile(rng))
                executed += cycles
            elif kind == "sleep":
                yield Sleep(float(rng.uniform(1e-4, 5e-3)))
            elif kind == "disk":
                yield DiskIO(nbytes=float(rng.uniform(512, 65536)))
            elif kind == "net":
                yield NetIO(nbytes=float(rng.uniform(512, 16384)))
            elif kind == "pingpong":
                yield Send(sock.a, nbytes=64, payload="ping")
            elif kind == "fork":
                child = yield Fork(
                    _random_program(rng, machine, sock, depth + 1),
                    name="child",
                )
                yield WaitChild(child)

    return program()


class _TimedHooks:
    """Delegates every kernel hook to the facility and records the
    simulated time of each ``on_*`` call."""

    def __init__(self, facility, simulator):
        self._facility = facility
        self._simulator = simulator
        self.times = []

    def __getattr__(self, name):
        target = getattr(self._facility, name)
        if not name.startswith("on_"):
            return target

        def hook(*args):
            self.times.append(self._simulator.now)
            return target(*args)

        return hook


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_stress_invariants(cal, seed):
    rng = np.random.default_rng(seed)
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, cal)
    hooks = kernel.hooks = _TimedHooks(facility, sim)
    sock = SocketPair.local(machine)

    # A drain process consumes the ping messages.
    def drain():
        while True:
            yield Recv(sock.b)

    kernel.spawn(drain(), "drain")

    containers = []
    for i in range(int(rng.integers(6, 14))):
        container = facility.create_request_container(f"rand{i}")
        containers.append(container)
        delay = float(rng.uniform(0, 0.05))
        sim.schedule_at(
            delay,
            lambda prog=_random_program(rng, machine, sock), cid=container.id:
                kernel.spawn(prog, "task", container_id=cid),
        )

    # Random actuator churn while everything runs.
    for _ in range(10):
        t = float(rng.uniform(0.01, 0.4))
        core = machine.cores[int(rng.integers(0, 4))]
        level = int(rng.integers(2, 9))
        sim.schedule_at(t, kernel.set_core_duty, core, level)
    for _ in range(4):
        t = float(rng.uniform(0.01, 0.4))
        scale = float(rng.choice([1.0, 0.875, 0.75]))
        sim.schedule_at(t, kernel.set_chip_frequency, machine.chips[0], scale)

    sim.run_until(2.0)
    facility.flush()
    machine.checkpoint()

    # 1. Cycle conservation: attributed == executed.
    attributed = sum(
        c.stats.events.nonhalt_cycles
        for c in facility.registry.all_containers()
    )
    executed = sum(
        core.counters.read().nonhalt_cycles for core in machine.cores
    )
    overhead = sum(
        a.samples_taken for a in facility.accountants.values()
    ) * 2948.0
    assert attributed == pytest.approx(executed - overhead, rel=1e-3)

    # 2. Energy estimate within a band of truth (DVFS makes the linear
    #    model approximate, so the band is loose but bounded).
    measured = machine.integrator.active_joules
    estimated = facility.registry.total_energy("eq2")
    assert 0.5 * measured < estimated < 1.5 * measured

    # 3. No process left running or queued; all tasks terminated.
    assert kernel.scheduler.ready_count == 0
    for process in kernel.processes.values():
        assert process.state is not ProcessState.RUNNING or process.name == "drain"

    # 4. Hook calls are time-monotone (and there were some).
    assert hooks.times
    assert hooks.times == sorted(hooks.times)
