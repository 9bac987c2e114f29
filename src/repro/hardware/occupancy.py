"""OS-visible busy time counted on a periodic grid, from state transitions.

A real kernel learns which chips had runnable tasks and which devices were
busy by sampling its own scheduling state on a timer.  Calibration's
``Mchipshare``/``Mdisk``/``Mnet`` (Section 4.1) and the facility's model
trace are defined by such a sampler: the fraction of grid instants
``t_k = t_{k-1} + period`` (from a start time, the float accumulation
:meth:`~repro.sim.engine.Simulator.schedule_recurring` performs) at which
each chip was active, the disk busy, the NIC busy.

:class:`OccupancyCounter` keeps exactly those counts without a timer
event.  Every flag is piecewise-constant between transitions, so the
counter only walks the grid when a flag is about to flip (a chip's first
core becomes busy or its last goes idle, a device's first transfer starts
or its last ends) and when a reader asks.  The instants walked since the
previous update all saw the flags as they are at that moment.

**Tie rule.** A grid instant sees the state after every transition at its
own time: a transition at time ``t`` attributes only the instants before
``t``.  A read at ``t`` closes the instants before ``t`` and, when
``inclusive``, the instant at ``t`` too, with the state at the read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.machine import Machine


class OccupancyCounter:
    """Per-chip active, disk-busy and NIC-busy instant counts of a machine.

    Constructing one attaches it to ``machine`` (one counter per machine);
    the grid starts at the simulator's current time.
    """

    def __init__(self, machine: "Machine", period: float) -> None:
        if period <= 0:
            raise ValueError("grid period must be positive")
        if machine.chips[0]._occupancy is not None:
            raise ValueError(f"{machine.name}: an occupancy counter is attached")
        self.period = period
        self._simulator = machine.simulator
        self._chips = machine.chips
        self._disk = machine.disk
        self._net = machine.net
        #: The first grid instant not yet counted.
        self._next = machine.simulator.now + period
        #: Grid instants counted since the last :meth:`take`.
        self.instants = 0
        self.chip_active = [0] * len(machine.chips)
        self.disk_busy = 0
        self.net_busy = 0
        for chip in machine.chips:
            chip._occupancy = self
        machine.disk._occupancy = self
        machine.net._occupancy = self

    def advance(self) -> None:
        """Count the grid instants before now with the current flags.

        The hardware calls this just before a flag flips.
        """
        self._close(inclusive=False)

    def take(self, inclusive: bool = True) -> tuple[float, float, float]:
        """``(Mchipshare, Mdisk, Mnet)`` since the last take; restart counts.

        Counts the instants up to now (``inclusive``) or before now, then
        returns the summed per-chip active fractions and the disk and NIC
        busy fractions (0.0 each over no instants).
        """
        self._close(inclusive)
        total = max(self.instants, 1)
        fractions = (
            sum(count / total for count in self.chip_active),
            self.disk_busy / total,
            self.net_busy / total,
        )
        self.instants = 0
        self.chip_active = [0] * len(self._chips)
        self.disk_busy = 0
        self.net_busy = 0
        return fractions

    def _close(self, inclusive: bool) -> None:
        """Count the instants up to (or before) now with the current flags."""
        now = self._simulator._now
        t = self._next
        period = self.period
        n = 0
        if inclusive:
            while t <= now:
                t += period
                n += 1
        else:
            while t < now:
                t += period
                n += 1
        if not n:
            return
        self._next = t
        self.instants += n
        chip_active = self.chip_active
        for index, chip in enumerate(self._chips):
            if chip._busy_count:
                chip_active[index] += n
        if self._disk.inflight:
            self.disk_busy += n
        if self._net.inflight:
            self.net_busy += n

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """The grid position and the counts since the last take."""
        return {
            "v": 1,
            "period": self.period,
            "next": self._next,
            "instants": self.instants,
            "chip_active": list(self.chip_active),
            "disk_busy": self.disk_busy,
            "net_busy": self.net_busy,
        }
