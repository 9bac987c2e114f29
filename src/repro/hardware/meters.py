"""Power meters with realistic reporting periods and delays.

Two instruments from the paper's testbed are reproduced:

* :class:`PackageMeter` -- the SandyBridge on-chip (RAPL-like) meter: it
  accumulates package energy and reports once per millisecond; readings
  become visible to software about 1 ms after the interval they describe
  (the delay the paper's alignment discovers in Fig. 2A).
* :class:`WallMeter` -- a Wattsup-style wall meter: whole-machine power once
  per second, delivered over USB with roughly 1.2 s delay (Fig. 2B).

Meters observe ground truth (plus optional measurement noise) but publish
samples only after their delay, so the alignment machinery in
:mod:`repro.core.alignment` has a genuine inference problem to solve.

Delivery is incremental.  Published samples wait on a heap keyed by
``(available_at, production index)``; a delivery step moves the due ones
into a delivered list kept in production order (an append for in-order
delivery, an insert for a sample the fault hook delayed).  The meter
remembers the lowest delivered position that changed and logs each newly
delivered sample, so a consumer that polls every round -- the facility's
recalibration -- touches only what changed instead of rescanning the run.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.hardware.machine import Machine
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class MeterSample:
    """One power reading.

    ``interval_end`` is the physical time the measured interval ended;
    ``available_at`` is when software can first see the reading.
    """

    interval_end: float
    available_at: float
    watts: float


class _PeriodicMeter:
    """Common machinery: periodic energy-delta sampling with delay."""

    def __init__(
        self,
        machine: Machine,
        simulator: Simulator,
        period: float,
        delay: float,
        noise_std_watts: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError("meter period must be positive")
        if delay < 0:
            raise ValueError("meter delay must be non-negative")
        self.machine = machine
        self.simulator = simulator
        self.period = period
        self.delay = delay
        self.noise_std_watts = noise_std_watts
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Every published sample, in production order.
        self._samples: list[MeterSample] = []
        #: Published, not yet delivered: ``(available_at, index, sample)``.
        self._pending: list[tuple[float, int, MeterSample]] = []
        #: Delivered samples and their production indexes, production order.
        self._delivered: list[MeterSample] = []
        self._delivered_order: list[int] = []
        #: The latest query time the delivered list is complete for.
        self._delivered_through = float("-inf")
        #: Lowest delivered position changed since :meth:`delivery_changes`.
        self._changed_from = 0
        #: ``(index, sample)`` delivered since :meth:`take_new_deliveries`;
        #: ``None`` until the first take, so an unpolled meter logs nothing.
        self._new_deliveries: Optional[list[tuple[int, MeterSample]]] = None
        self._last_energy = 0.0
        self._running = False
        #: Optional fault-injection hook (see :mod:`repro.faults`): maps each
        #: produced sample to the samples actually published -- possibly
        #: none (a dropped reading), several (duplicates), or altered copies
        #: (corrupted/extra-delayed readings).  ``None`` publishes verbatim.
        self.fault_hook: Optional[
            Callable[[MeterSample], Iterable[MeterSample]]
        ] = None
        #: Times :meth:`start` transitioned the meter to running (flap count).
        self.start_count = 0

    def start(self) -> None:
        """Begin periodic sampling at the meter's period."""
        if self._running:
            return
        self._running = True
        self.start_count += 1
        self._last_energy = self._read_energy()
        self.simulator.schedule_recurring(
            self.period, self._tick, label="meter-tick"
        )

    def stop(self) -> None:
        """Stop sampling after the current interval.

        The pending tick is deliberately left armed: it self-cancels when it
        fires and finds the meter stopped.  A stop/start flap faster than
        one period therefore briefly runs two tick chains -- mirroring real
        drivers that cannot revoke an already-latched timer interrupt.
        """
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            # Stopped since this tick was armed: end this chain (the handle
            # currently firing is ours -- a flap may have started another).
            self.simulator.current_event.cancel()
            return
        self.machine.checkpoint()
        now = self.simulator.now
        energy = self._read_energy()
        watts = (energy - self._last_energy) / self.period
        self._last_energy = energy
        if self.noise_std_watts > 0.0:
            watts += float(self._rng.normal(0.0, self.noise_std_watts))
        sample = MeterSample(
            interval_end=now, available_at=now + self.delay, watts=watts
        )
        if self.fault_hook is None:
            self._publish(sample)
        else:
            for published in self.fault_hook(sample):
                self._publish(published)

    def _publish(self, sample: MeterSample) -> None:
        index = len(self._samples)
        self._samples.append(sample)
        # A NaN delivery time never compares due; keep it off the heap,
        # whose order a NaN key would break.
        if sample.available_at == sample.available_at:
            heapq.heappush(self._pending, (sample.available_at, index, sample))

    def _deliver(self, now: float) -> None:  # hot-path
        """Move every published sample due by ``now`` into delivery order."""
        pending = self._pending
        self._delivered_through = now
        if not pending or pending[0][0] > now:
            return
        delivered = self._delivered
        order = self._delivered_order
        log = self._new_deliveries
        changed = self._changed_from
        while pending and pending[0][0] <= now:
            _, index, sample = heapq.heappop(pending)
            if not order or index > order[-1]:
                position = len(order)
                order.append(index)
                delivered.append(sample)
            else:
                # Delayed past a later reading: back into production order.
                position = bisect.bisect_left(order, index)
                order.insert(position, index)
                delivered.insert(position, sample)
            if position < changed:
                changed = position
            if log is not None:
                log.append((index, sample))
        self._changed_from = changed

    def _delivered_by(self, now: float) -> Optional[list[MeterSample]]:
        """The delivered list for ``now``, or ``None`` off the cursor.

        The cursor only moves forward and never past the simulator clock
        (a sample published later may still be due by a future ``now``),
        so queries before its position or ahead of the clock return
        ``None`` and the caller scans the history instead.
        """
        if not self._delivered_through <= now <= self.simulator.now:
            return None
        self._deliver(now)
        return self._delivered

    def _read_energy(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- consumer API ----------------------------------------------------
    @property
    def all_samples(self) -> list[MeterSample]:
        """Every sample taken so far (including not-yet-delivered ones)."""
        return list(self._samples)

    def samples_available(self, now: float) -> list[MeterSample]:
        """Samples whose readings have been delivered by time ``now``.

        A new list (the caller may keep or change it), in production order.
        """
        delivered = self._delivered_by(now)
        if delivered is None:
            return [s for s in self._samples if s.available_at <= now]
        return list(delivered)

    def latest_available(self, now: float) -> MeterSample | None:
        """Most recent delivered sample (production order), or ``None``."""
        delivered = self._delivered_by(now)
        if delivered is None:
            delivered = self.samples_available(now)
        return delivered[-1] if delivered else None

    def delivery_changes(self) -> tuple[list[MeterSample], int]:
        """Deliver what is due at the clock; return the list and what changed.

        The list is the meter's own, in production order -- read it, never
        change it.  The int is the lowest position that changed since the
        previous call (``len`` of the list when nothing did), so a consumer
        mirroring the list refreshes only its tail.
        """
        self._deliver(self.simulator.now)
        changed = self._changed_from
        self._changed_from = len(self._delivered)
        return self._delivered, changed

    def take_new_deliveries(self) -> list[tuple[int, MeterSample]]:
        """``(production index, sample)`` pairs delivered since the last take.

        In delivery order.  The first take returns every sample delivered
        so far; from then on the meter logs deliveries for the next take.
        """
        batch = self._new_deliveries
        if batch is None:
            batch = list(zip(self._delivered_order, self._delivered))
        self._new_deliveries = []
        return batch

    def mean_watts(self, start: float = 0.0, end: float | None = None) -> float:
        """Mean measured power over sample intervals ending in a window."""
        selected = [
            s.watts
            for s in self._samples
            if s.interval_end > start and (end is None or s.interval_end <= end)
        ]
        if not selected:
            return 0.0
        return float(np.mean(selected))

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Sample history, interval bookkeeping, and noise-RNG position.

        The fault hook is a live callable owned by the fault harness; its
        presence is captured as a boolean for verification only and the
        replayed hook is kept on restore.
        """
        from repro.checkpoint.state import generator_state

        return {
            "v": 1,
            "samples": [
                [s.interval_end, s.available_at, s.watts]
                for s in self._samples
            ],
            "last_energy": self._last_energy,
            "running": self._running,
            "start_count": self.start_count,
            "noise_std_watts": self.noise_std_watts,
            "has_fault_hook": self.fault_hook is not None,
            "rng": generator_state(self._rng),
        }


class PackageMeter(_PeriodicMeter):
    """On-chip (RAPL-like) meter over all processor packages.

    Covers cores, uncore, and the memory controller -- i.e. chip active
    power, maintenance power, and the small package idle floor -- but not
    peripherals or the rest-of-machine idle power.
    """

    def __init__(
        self,
        machine: Machine,
        simulator: Simulator,
        period: float = 1e-3,
        delay: float = 1e-3,
        noise_std_watts: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(machine, simulator, period, delay, noise_std_watts, rng)

    def _read_energy(self) -> float:
        return sum(
            self.machine.integrator.package_joules(chip.index)
            for chip in self.machine.chips
        )


class WallMeter(_PeriodicMeter):
    """Wattsup-style whole-machine wall meter (coarse and delayed)."""

    def __init__(
        self,
        machine: Machine,
        simulator: Simulator,
        period: float = 1.0,
        delay: float = 1.2,
        noise_std_watts: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(machine, simulator, period, delay, noise_std_watts, rng)

    def _read_energy(self) -> float:
        return self.machine.integrator.machine_joules
