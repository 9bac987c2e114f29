"""Ground-truth power model and exact piecewise energy integration.

``TruePowerModel`` is the simulation's *physics*: it defines what the
machine actually dissipates given the instantaneous activity of every core,
each chip's shared maintenance domain, peripheral devices, and the constant
idle floor.  The power-container accounting layer never reads this model --
it only sees hardware counters and (delayed) meter readings, exactly like
the paper's kernel.

Two properties matter for faithful reproduction:

* **Maintenance power is chip-level truth.**  A package dissipates
  ``maintenance_watts`` whenever any of its cores is busy (Fig. 1); the
  accounting model must *approximate* each task's share of it via Eq. 3.
* **Hidden power exists.**  A profile's ``hidden_watts`` contributes to
  ground truth but to no counter, so offline-calibrated models err on
  unusual workloads (Stress, power viruses) until online recalibration
  absorbs the discrepancy (Section 3.2 / Fig. 8).

Because all activity is piecewise-constant between simulation events, the
:class:`EnergyIntegrator` integrates power exactly: callers checkpoint the
integrator *before* any state change that affects power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.events import EventVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.machine import Machine


@dataclass(frozen=True)
class TruePowerModel:
    """Physical power coefficients for one machine model.

    Per-core coefficients are watts per unit of the corresponding ``M``
    metric (events per elapsed cycle), i.e. a core running at utilization
    ``u`` with instruction rate ``ipc`` contributes
    ``w_core*u + w_ins*ipc*u + ...`` watts.
    """

    #: Constant whole-machine idle power (fans, disks at rest, PSU loss, and
    #: the package idle floor), drawn regardless of activity.
    idle_machine_watts: float
    #: Portion of the idle floor inside each processor package (covered by
    #: the on-chip package meter; small on SandyBridge per the paper).
    package_idle_watts: float
    #: Shared maintenance power per chip while any of its cores is busy.
    maintenance_watts: float
    w_core: float
    w_ins: float
    w_flop: float
    w_cache: float
    w_mem: float
    #: Peripheral power while a device has transfers in flight.
    disk_active_watts: float = 0.0
    net_active_watts: float = 0.0

    def core_active_watts(
        self,
        utilization: float,
        ipc: float,
        flops_per_cycle: float,
        cache_per_cycle: float,
        mem_per_cycle: float,
        hidden_watts: float,
    ) -> float:
        """Active power of one core given per-non-halt-cycle rates.

        ``utilization`` is the fraction of elapsed cycles that are non-halt
        (duty ratio while busy); the other rates are per non-halt cycle, so
        the per-elapsed-cycle metrics are each rate times utilization.
        """
        if utilization <= 0.0:
            return 0.0
        return utilization * (
            self.w_core
            + self.w_ins * ipc
            + self.w_flop * flops_per_cycle
            + self.w_cache * cache_per_cycle
            + self.w_mem * mem_per_cycle
            + hidden_watts
        )

    def energy_for_events(
        self, events: EventVector, freq_hz: float, hidden_watts: float = 0.0
    ) -> float:
        """True energy of a burst of events executed at full speed.

        Used to charge impulse activity (e.g. accounting maintenance
        operations) to ground truth without modelling it as a scheduled
        task.  The burst is assumed to run at utilization 1.0 for
        ``nonhalt_cycles / freq_hz`` seconds.
        """
        cycles = events.nonhalt_cycles
        if cycles <= 0.0:
            return 0.0
        duration = cycles / freq_hz
        watts = self.core_active_watts(
            utilization=1.0,
            ipc=events.instructions / cycles,
            flops_per_cycle=events.flops / cycles,
            cache_per_cycle=events.cache_refs / cycles,
            mem_per_cycle=events.mem_trans / cycles,
            hidden_watts=hidden_watts,
        )
        return watts * duration


@dataclass
class PowerBreakdown:
    """Instantaneous power decomposition of one machine."""

    machine_watts: float
    active_watts: float
    package_watts: list[float]
    per_core_watts: list[float]
    maintenance_watts: list[float]
    peripheral_watts: float
    idle_watts: float

    def as_dict(self) -> dict[str, float]:
        """Scalar summary used in traces and reports."""
        return {
            "machine_watts": self.machine_watts,
            "active_watts": self.active_watts,
            "peripheral_watts": self.peripheral_watts,
            "idle_watts": self.idle_watts,
        }


@dataclass
class _Accumulators:
    machine_joules: float = 0.0
    active_joules: float = 0.0
    package_joules: list[float] = field(default_factory=list)
    per_core_joules: list[float] = field(default_factory=list)
    maintenance_joules: list[float] = field(default_factory=list)
    peripheral_joules: float = 0.0


class EnergyIntegrator:
    """Exact energy integration over piecewise-constant activity.

    The owning :class:`~repro.hardware.machine.Machine` calls
    :meth:`checkpoint` with the current time *before* mutating any state
    that affects power (dispatch, block, duty change, I/O start/end).  The
    integrator closes the elapsed interval at the pre-mutation power level.
    """

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine
        self._last_time = 0.0
        n_chips = len(machine.chips)
        n_cores = machine.n_cores
        self._acc = _Accumulators(
            package_joules=[0.0] * n_chips,
            per_core_joules=[0.0] * n_cores,
            maintenance_joules=[0.0] * n_chips,
        )

    @property
    def last_time(self) -> float:
        """Simulated time up to which energy has been integrated."""
        return self._last_time

    def checkpoint(self, now: float) -> None:
        """Integrate the interval ``[last_time, now]`` at current power."""
        dt = now - self._last_time
        if dt < 0:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        if dt == 0.0:
            return
        # Fused with the power computation (Machine.integrate_power) so the
        # hot path allocates nothing; arithmetic matches power_breakdown()
        # term for term.
        self._machine.integrate_power(self._acc, dt)
        self._last_time = now

    def add_impulse(
        self,
        joules: float,
        core_index: int | None = None,
        chip_index: int | None = None,
    ) -> None:
        """Charge instantaneous energy (observer-effect maintenance work).

        ``chip_index`` may be supplied by callers that already know the
        core's package; it is derived from ``core_index`` otherwise.
        """
        if joules < 0:
            raise ValueError("impulse energy must be non-negative")
        self._acc.machine_joules += joules
        self._acc.active_joules += joules
        if core_index is not None:
            self._acc.per_core_joules[core_index] += joules
            if chip_index is None:
                chip_index = self._machine.core_by_index(core_index).chip.index
            self._acc.package_joules[chip_index] += joules

    # -- readings ------------------------------------------------------
    @property
    def machine_joules(self) -> float:
        """Cumulative whole-machine energy (idle included)."""
        return self._acc.machine_joules

    @property
    def active_joules(self) -> float:
        """Cumulative active (machine minus idle-floor) energy."""
        return self._acc.active_joules

    @property
    def peripheral_joules(self) -> float:
        """Cumulative disk/network device energy."""
        return self._acc.peripheral_joules

    def package_joules(self, chip_index: int) -> float:
        """Cumulative package energy of one chip (idle portion included)."""
        return self._acc.package_joules[chip_index]

    def per_core_joules(self, core_index: int) -> float:
        """Cumulative true active energy attributed to one core."""
        return self._acc.per_core_joules[core_index]

    def maintenance_joules(self, chip_index: int) -> float:
        """Cumulative shared maintenance energy of one chip."""
        return self._acc.maintenance_joules[chip_index]

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        acc = self._acc
        return {
            "v": 1,
            "last_time": self._last_time,
            "machine_joules": acc.machine_joules,
            "active_joules": acc.active_joules,
            "package_joules": list(acc.package_joules),
            "per_core_joules": list(acc.per_core_joules),
            "maintenance_joules": list(acc.maintenance_joules),
            "peripheral_joules": acc.peripheral_joules,
        }
