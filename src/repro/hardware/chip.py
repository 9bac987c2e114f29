"""A multicore chip (processor package) with shared maintenance power.

The paper's key hardware observation (Fig. 1) is that a package dissipates a
chunk of *maintenance* power -- clocking circuitry, voltage regulators, and
other uncore units -- whenever **any** of its cores is active, and that this
chunk does not scale with core-level event rates.  The chip is therefore the
natural power domain boundary: ground truth charges maintenance power per
active chip, and the accounting model approximates each task's share of it
with the ``Mchipshare`` metric (Eq. 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.core import Core

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.machine import Machine


#: Available DVFS frequency scales (P-state style, fraction of nominal).
DVFS_SCALES = (1.0, 0.875, 0.75, 0.625, 0.5)


class Chip:
    """One processor package: a set of cores plus shared uncore state.

    The package is also the DVFS domain: frequency/voltage scaling applies
    to all cores of a chip at once (per-core DVFS did not exist on the
    paper's processors) -- which is exactly why the paper reaches for
    per-core duty-cycle modulation to throttle *individual* requests.
    """

    def __init__(
        self,
        index: int,
        machine: "Machine",
        n_cores: int,
        freq_hz: float,
        overflow_threshold_cycles: float | None = None,
    ) -> None:
        if n_cores <= 0:
            raise ValueError("a chip needs at least one core")
        self.index = index
        self.machine = machine
        self._freq_scale = 1.0
        # The voltage-derived power factors are pure functions of the P-state
        # and are read at every energy checkpoint; cache them and refresh on
        # DVFS transitions (which happen per conditioning decision, not per
        # checkpoint).
        self._dynamic_power_factor = 1.0
        self._static_power_factor = 1.0
        self._refresh_power_factors()
        # Busy-core count, maintained by Core.begin_activity/end_activity
        # (the only mutators of a core's activity state).  ``active`` and
        # ``busy_core_count`` are read on every energy checkpoint; the
        # counter replaces a generator scan of the core list on each read.
        self._busy_count = 0
        #: The machine's :class:`~repro.hardware.occupancy.OccupancyCounter`,
        #: told before ``_busy_count`` leaves or returns to zero; ``None``
        #: when the machine has none.
        self._occupancy = None
        self.cores = [
            Core(
                index=machine.next_core_index(),
                chip=self,
                freq_hz=freq_hz,
                overflow_threshold_cycles=overflow_threshold_cycles,
            )
            for _ in range(n_cores)
        ]
        self._siblings: dict[int, tuple[Core, ...]] = {}

    # ------------------------------------------------------------------
    # DVFS
    # ------------------------------------------------------------------
    @property
    def freq_scale(self) -> float:
        """Current frequency scale (1.0 = nominal)."""
        return self._freq_scale

    def set_freq_scale(self, scale: float) -> None:
        """Program a P-state; must be one of :data:`DVFS_SCALES`."""
        if scale not in DVFS_SCALES:
            raise ValueError(
                f"scale {scale} not in supported P-states {DVFS_SCALES}"
            )
        self._freq_scale = scale
        self._refresh_power_factors()
        for core in self.cores:
            core._refresh_effective_hz()

    def _refresh_power_factors(self) -> None:
        """Recompute the cached voltage-derived factors (P-state changed)."""
        voltage_sq = self.relative_voltage ** 2
        self._dynamic_power_factor = self._freq_scale * voltage_sq
        self._static_power_factor = voltage_sq

    @property
    def relative_voltage(self) -> float:
        """Supply voltage relative to nominal (affine in frequency)."""
        return 0.6 + 0.4 * self._freq_scale

    @property
    def dynamic_power_factor(self) -> float:
        """Scaling of event-driven (dynamic) power: ~ f * V^2."""
        return self._dynamic_power_factor

    @property
    def static_power_factor(self) -> float:
        """Scaling of maintenance (voltage-dependent) power: ~ V^2."""
        return self._static_power_factor

    @property
    def n_cores(self) -> int:
        """Number of cores in the package."""
        return len(self.cores)

    @property
    def active(self) -> bool:
        """True when at least one core is running a non-idle task."""
        return self._busy_count > 0

    @property
    def busy_core_count(self) -> int:
        """Number of currently busy cores."""
        return self._busy_count

    def siblings_of(self, core: Core) -> tuple[Core, ...]:
        """All other cores on the same package (cached; membership is fixed
        after construction and this is read on every accounting sample)."""
        siblings = self._siblings.get(core.index)
        if siblings is None:
            siblings = tuple(c for c in self.cores if c is not core)
            self._siblings[core.index] = siblings
        return siblings

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """P-state and busy count plus every core's state, in index order.

        The voltage-derived power factors are pure functions of the
        P-state, so they are not captured.
        """
        return {
            "v": 1,
            "freq_scale": self._freq_scale,
            "busy_count": self._busy_count,
            "cores": [core.snapshot_state() for core in self.cores],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Chip(#{self.index}, {self.busy_core_count}/{self.n_cores} busy)"
