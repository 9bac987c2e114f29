"""Fair request power conditioning via duty-cycle modulation (Section 3.4).

The policy maintains a system-wide *active power target*.  At every periodic
counter sample and at every request context switch, the core's duty-cycle
level is set from the *running request's* estimated full-speed power:

* per-core budget = target / (number of busy cores), so a request running
  while siblings idle enjoys a larger budget (the paper's Fig. 12 outliers);
* a request whose full-speed power fits the budget runs at level 8/8;
* a power-hungry request is clamped to
  ``level = floor(8 * budget / full_speed_power)``.

Because active power scales approximately linearly with the duty-cycle level
(Section 3.4), the full-speed power of a throttled request is recovered as
``measured power / duty ratio`` (maintained as an EWMA on the container).
Only request containers are throttled; background work runs at full speed.
"""

from __future__ import annotations

from repro.core.container import PowerContainer
from repro.core.registry import BACKGROUND_CONTAINER_ID
from repro.hardware.core import DUTY_LEVELS, Core
from repro.kernel import Kernel


class PowerConditioner:
    """Per-request duty-cycle throttling against a system power target."""

    def __init__(
        self,
        kernel: Kernel,
        target_active_watts: float,
        min_level: int = 1,
    ) -> None:
        if target_active_watts <= 0:
            raise ValueError("power target must be positive")
        if not 1 <= min_level <= DUTY_LEVELS:
            raise ValueError(f"min_level must be in [1, {DUTY_LEVELS}]")
        self.kernel = kernel
        self.machine = kernel.machine
        self.target_active_watts = target_active_watts
        self.min_level = min_level
        self.adjustments = 0

    # ------------------------------------------------------------------
    def per_core_budget(self) -> float:
        """Current per-core power budget given machine-wide occupancy."""
        busy = max(self.machine.busy_core_count, 1)
        return self.target_active_watts / busy

    def level_for(self, container: PowerContainer) -> int:
        """Duty level a request deserves under the current budget."""
        if container.id == BACKGROUND_CONTAINER_ID:
            return DUTY_LEVELS
        full_speed = container.full_speed_power_ewma
        if full_speed <= 0.0:
            return DUTY_LEVELS  # no estimate yet: run at full speed
        budget = self.per_core_budget()
        if full_speed <= budget:
            return DUTY_LEVELS
        level = int(DUTY_LEVELS * budget / full_speed)
        return max(self.min_level, min(level, DUTY_LEVELS))

    # -- facility callbacks --------------------------------------------
    def adjust(self, core: Core, container: PowerContainer) -> None:
        """Periodic-sample callback: retune the core for its request."""
        self._apply(core, self.level_for(container))

    def on_context_switch(self, core: Core, container: PowerContainer) -> None:
        """Dispatch callback: set the level for the incoming request."""
        self._apply(core, self.level_for(container))

    def _apply(self, core: Core, level: int) -> None:
        if core.duty_level != level:
            self.kernel.set_core_duty(core, level)
            self.adjustments += 1

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "target_active_watts": self.target_active_watts,
            "min_level": self.min_level,
            "adjustments": self.adjustments,
        }
