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
"""

from __future__ import annotations

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
        self._samples: list[MeterSample] = []
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
            self._samples.append(sample)
        else:
            self._samples.extend(self.fault_hook(sample))

    def _read_energy(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- consumer API ----------------------------------------------------
    @property
    def all_samples(self) -> list[MeterSample]:
        """Every sample taken so far (including not-yet-delivered ones)."""
        return list(self._samples)

    def samples_available(self, now: float) -> list[MeterSample]:
        """Samples whose readings have been delivered by time ``now``."""
        return [s for s in self._samples if s.available_at <= now]

    def latest_available(self, now: float) -> MeterSample | None:
        """Most recent delivered sample, or ``None``."""
        available = self.samples_available(now)
        return available[-1] if available else None

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
