"""Shared kernel-test fixtures."""

from typing import Any, NamedTuple

import pytest

from repro.hardware import RateProfile, SANDYBRIDGE, build_machine
from repro.kernel import Kernel, KernelHooks
from repro.sim import Simulator

SPIN = RateProfile(name="spin", ipc=1.0)
MEMHEAVY = RateProfile(name="memheavy", ipc=0.6, cache_per_cycle=0.015,
                       mem_per_cycle=0.008)


class HookEvent(NamedTuple):
    """One kernel hook call, stamped with the simulated time."""

    time: float
    kind: str
    detail: dict[str, Any]


class RecordingHooks(KernelHooks):
    """Kernel observer that records every hook call in call order."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.events: list[HookEvent] = []

    def _record(self, kind: str, **detail: Any) -> None:
        self.events.append(HookEvent(self.simulator.now, kind, detail))

    def of_kind(self, *kinds: str) -> list[HookEvent]:
        """Recorded events whose kind is one of ``kinds``, in call order."""
        return [e for e in self.events if e.kind in kinds]

    def on_dispatch(self, core, process):
        self._record("dispatch", pid=process.pid, core=core.index)

    def on_undispatch(self, core, process, reason):
        self._record("undispatch", pid=process.pid, core=core.index,
                     reason=reason)

    def on_overflow(self, core, process):
        self._record("overflow", core=core.index, pid=process.pid)

    def on_binding_change(self, process, old_id, new_id):
        self._record("rebind", pid=process.pid, old=old_id, new=new_id)

    def on_fork(self, parent, child):
        self._record("fork", parent=parent.pid, child=child.pid)

    def on_exit(self, process):
        self._record("exit", pid=process.pid)

    def on_send(self, process, message, dest):
        self._record("send", pid=process.pid, dest=dest.name,
                     nbytes=message.nbytes)

    def on_recv(self, process, message, source):
        self._record("recv", pid=process.pid, source=source.name,
                     ctx=message.tag.container_id)

    def on_io(self, process, device_name, nbytes):
        self._record("io", pid=process.pid, device=device_name, nbytes=nbytes)

    def on_sync(self, process, key):
        self._record("sync", pid=process.pid, key=str(key))


def recording_kernel(spec=SANDYBRIDGE):
    """``(sim, machine, kernel)`` with a :class:`RecordingHooks` observer
    as ``kernel.hooks``."""
    sim = Simulator()
    machine = build_machine(spec, sim)
    kernel = Kernel(machine, sim, hooks=RecordingHooks(sim))
    return sim, machine, kernel


@pytest.fixture
def world():
    """A SandyBridge machine with a kernel whose hook calls are recorded."""
    return recording_kernel()
