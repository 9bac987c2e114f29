"""The simulated machine: chips, peripheral devices, energy integration.

A :class:`Machine` aggregates one or more :class:`~repro.hardware.chip.Chip`
packages, a disk and a network device, the ground-truth power model, and an
:class:`~repro.hardware.power.EnergyIntegrator`.  The kernel must call
:meth:`Machine.checkpoint` before mutating any power-affecting state so the
integrator closes the elapsed interval at the correct (pre-mutation) power.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.chip import Chip
from repro.hardware.core import Core
from repro.hardware.power import EnergyIntegrator, PowerBreakdown, TruePowerModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class _Device:
    """Shared behaviour of peripheral devices with in-flight transfers."""

    def __init__(
        self,
        name: str,
        machine: "Machine",
        bandwidth_bytes_per_sec: float,
        base_latency_sec: float,
    ) -> None:
        if bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        self.name = name
        self.machine = machine
        self.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec
        self.base_latency_sec = base_latency_sec
        self.inflight = 0
        self.total_bytes = 0.0

    @property
    def busy(self) -> bool:
        """True while at least one transfer is outstanding."""
        return self.inflight > 0

    def transfer_time(self, nbytes: float) -> float:
        """Latency of one transfer of ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        return self.base_latency_sec + nbytes / self.bandwidth_bytes_per_sec

    def begin_transfer(self, nbytes: float) -> float:
        """Start a transfer; returns its duration.  Checkpoints energy."""
        self.machine.checkpoint()
        self.inflight += 1
        self.total_bytes += nbytes
        self.machine._power_epoch += 1
        return self.transfer_time(nbytes)

    def end_transfer(self) -> None:
        """Complete one outstanding transfer.  Checkpoints energy."""
        if self.inflight <= 0:
            raise RuntimeError(f"{self.name}: no transfer in flight")
        self.machine.checkpoint()
        self.inflight -= 1
        self.machine._power_epoch += 1

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "inflight": self.inflight,
            "total_bytes": self.total_bytes,
        }


class DiskDevice(_Device):
    """Simulated disk with a fixed active power draw while transferring."""


class NetDevice(_Device):
    """Simulated NIC with a fixed active power draw while transferring."""


class Machine:
    """One multicore server machine."""

    def __init__(
        self,
        name: str,
        arch: str,
        simulator: "Simulator",
        true_model: TruePowerModel,
        n_chips: int,
        cores_per_chip: int,
        freq_hz: float,
        overflow_threshold_cycles: float | None = None,
        disk_bandwidth: float = 100e6,
        disk_latency: float = 4e-3,
        net_bandwidth: float = 125e6,
        net_latency: float = 100e-6,
    ) -> None:
        self.name = name
        self.arch = arch
        self.simulator = simulator
        self.true_model = true_model
        self.freq_hz = freq_hz
        self._core_counter = 0
        self.chips = [
            Chip(
                index=i,
                machine=self,
                n_cores=cores_per_chip,
                freq_hz=freq_hz,
                overflow_threshold_cycles=overflow_threshold_cycles,
            )
            for i in range(n_chips)
        ]
        self.cores: list[Core] = [core for chip in self.chips for core in chip.cores]
        self.disk = DiskDevice("disk", self, disk_bandwidth, disk_latency)
        self.net = NetDevice("net", self, net_bandwidth, net_latency)
        self.integrator = EnergyIntegrator(self)
        #: Monotonic counter bumped by every mutation of power-relevant
        #: state (dispatch, duty/DVFS, work fraction, device transfers).
        #: :meth:`integrate_power` memoizes all power *rates* against it:
        #: activity is piecewise-constant between mutations, so most
        #: checkpoints replay cached rates instead of re-deriving them.
        self._power_epoch = 0
        self._rate_epoch = -1
        self._rate_cache: tuple | None = None
        #: The OS kernel driving this machine; set by Kernel.__init__ so
        #: cross-machine message delivery lands on the right kernel.
        self.kernel = None
        #: Optional shared-cache contention model (see
        #: :mod:`repro.hardware.contention`); ``None`` disables contention.
        self.contention = None

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def next_core_index(self) -> int:
        """Allocate the next machine-global core index (used by chips)."""
        index = self._core_counter
        self._core_counter += 1
        return index

    @property
    def n_cores(self) -> int:
        """Total cores across all chips."""
        return sum(chip.n_cores for chip in self.chips)

    def core_by_index(self, index: int) -> Core:
        """Look up a core by machine-global index."""
        return self.cores[index]

    @property
    def busy_core_count(self) -> int:
        """Number of busy cores machine-wide."""
        return sum(1 for core in self.cores if core.busy)

    # ------------------------------------------------------------------
    # Ground-truth power
    # ------------------------------------------------------------------
    def power_breakdown(self) -> PowerBreakdown:
        """Instantaneous ground-truth power decomposition."""
        model = self.true_model
        per_core = []
        maintenance = []
        package = []
        for chip in self.chips:
            chip_core_watts = 0.0
            for core in chip.cores:
                profile = core.active_profile
                if profile is None:
                    watts = 0.0
                else:
                    # Contention stalls retire fewer events per non-halt
                    # cycle, shrinking the event-driven power accordingly.
                    wf = core.current_work_fraction
                    watts = model.core_active_watts(
                        utilization=core.duty_ratio,
                        ipc=profile.ipc * wf,
                        flops_per_cycle=profile.flops_per_cycle * wf,
                        cache_per_cycle=profile.cache_per_cycle * wf,
                        mem_per_cycle=profile.mem_per_cycle * wf,
                        hidden_watts=profile.hidden_watts,
                    ) * chip.dynamic_power_factor
                per_core.append(watts)
                chip_core_watts += watts
            maint = (
                model.maintenance_watts * chip.static_power_factor
                if chip.active
                else 0.0
            )
            maintenance.append(maint)
            package.append(chip_core_watts + maint + model.package_idle_watts)
        peripheral = 0.0
        if self.disk.busy:
            peripheral += model.disk_active_watts
        if self.net.busy:
            peripheral += model.net_active_watts
        active = sum(per_core) + sum(maintenance) + peripheral
        return PowerBreakdown(
            machine_watts=model.idle_machine_watts + active,
            active_watts=active,
            package_watts=package,
            per_core_watts=per_core,
            maintenance_watts=maintenance,
            peripheral_watts=peripheral,
            idle_watts=model.idle_machine_watts,
        )

    def integrate_power(self, acc, dt: float) -> None:
        """Accumulate ``dt`` seconds at the current power level into ``acc``.

        Hot-path twin of :meth:`power_breakdown` used by the energy
        integrator: identical arithmetic in identical order (so joule totals
        are bit-for-bit the same), but accumulating straight into the
        integrator's lists instead of materializing a
        :class:`~repro.hardware.power.PowerBreakdown` per checkpoint.

        Two elisions keep the twin bit-identical while skipping work:

        * Idle cores draw exactly 0.0 W, and adding ``0.0`` to a
          non-negative IEEE accumulator is the identity, so their
          accumulator updates are skipped outright.
        * Activity is piecewise-constant between checkpoints, so every
          power *rate* is memoized against :attr:`_power_epoch` (bumped by
          each dispatch, duty/DVFS change, work-fraction change, and device
          transfer).  Most checkpoints replay the cached rates; the rebuild
          path re-derives them with the original arithmetic in the original
          order, so the cached floats equal the fresh ones bit for bit.
        """
        if self._rate_epoch != self._power_epoch:
            self._rebuild_rate_cache()
        busy_watts, chip_rates, machine_rate, active, peripheral = self._rate_cache
        per_core_joules = acc.per_core_joules
        for core_index, watts in busy_watts:
            per_core_joules[core_index] += watts * dt
        package_joules = acc.package_joules
        maintenance_joules = acc.maintenance_joules
        for chip_index, maint, package_rate in chip_rates:
            maintenance_joules[chip_index] += maint * dt
            package_joules[chip_index] += package_rate * dt
        acc.machine_joules += machine_rate * dt
        acc.active_joules += active * dt
        acc.peripheral_joules += peripheral * dt

    def _rebuild_rate_cache(self) -> None:
        """Re-derive all instantaneous power rates (state changed).

        Mirrors :meth:`power_breakdown` term for term -- same expressions,
        same accumulation order -- so the memoized rates are bit-identical
        to what the un-cached loop computed on every checkpoint.
        """
        model = self.true_model
        busy_watts = []
        chip_rates = []
        core_sum = 0.0
        maint_sum = 0.0
        core_index = 0
        for chip in self.chips:
            chip_core_watts = 0.0
            chip_busy = False
            dynamic_factor = chip._dynamic_power_factor
            for core in chip.cores:
                profile = core.active_profile
                if profile is None:
                    core_index += 1
                    continue
                chip_busy = True
                watts = core._cached_active_watts
                if watts is None:
                    wf = core.current_work_fraction
                    watts = model.core_active_watts(
                        utilization=core.duty_ratio,
                        ipc=profile.ipc * wf,
                        flops_per_cycle=profile.flops_per_cycle * wf,
                        cache_per_cycle=profile.cache_per_cycle * wf,
                        mem_per_cycle=profile.mem_per_cycle * wf,
                        hidden_watts=profile.hidden_watts,
                    ) * dynamic_factor
                    core._cached_active_watts = watts
                busy_watts.append((core_index, watts))
                core_index += 1
                chip_core_watts += watts
                core_sum += watts
            maint = (
                model.maintenance_watts * chip._static_power_factor
                if chip_busy
                else 0.0
            )
            maint_sum += maint
            chip_rates.append(
                (chip.index, maint, chip_core_watts + maint + model.package_idle_watts)
            )
        peripheral = 0.0
        if self.disk.busy:
            peripheral += model.disk_active_watts
        if self.net.busy:
            peripheral += model.net_active_watts
        active = core_sum + maint_sum + peripheral
        self._rate_cache = (
            busy_watts,
            chip_rates,
            model.idle_machine_watts + active,
            active,
            peripheral,
        )
        self._rate_epoch = self._power_epoch

    def checkpoint(self) -> None:
        """Close the current energy interval at the present simulated time.

        Fuses :meth:`EnergyIntegrator.checkpoint` and the rate-cache replay
        of :meth:`integrate_power` into one call frame -- this runs several
        times per simulation event, so the wrapper hops matter.  Arithmetic
        is identical statement for statement.
        """
        integrator = self.integrator
        now = self.simulator._now
        dt = now - integrator._last_time
        # Most checkpoints are re-checkpoints at the same instant (several
        # state mutations per simulation event); skip the work outright.
        if dt == 0.0:
            return
        if dt < 0:
            raise ValueError(
                f"time went backwards: {now} < {integrator._last_time}"
            )
        if self._rate_epoch != self._power_epoch:
            self._rebuild_rate_cache()
        busy_watts, chip_rates, machine_rate, active, peripheral = self._rate_cache
        acc = integrator._acc
        per_core_joules = acc.per_core_joules
        for core_index, watts in busy_watts:
            per_core_joules[core_index] += watts * dt
        package_joules = acc.package_joules
        maintenance_joules = acc.maintenance_joules
        for chip_index, maint, package_rate in chip_rates:
            maintenance_joules[chip_index] += maint * dt
            package_joules[chip_index] += package_rate * dt
        acc.machine_joules += machine_rate * dt
        acc.active_joules += active * dt
        acc.peripheral_joules += peripheral * dt
        integrator._last_time = now

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Topology counters, devices, chips, and the energy integrator.

        The rate cache is derived state and deliberately not captured.
        """
        return {
            "v": 1,
            "core_counter": self._core_counter,
            "power_epoch": self._power_epoch,
            "disk": self.disk.snapshot_state(),
            "net": self.net.snapshot_state(),
            "chips": [chip.snapshot_state() for chip in self.chips],
            "integrator": self.integrator.snapshot_state(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.name!r}, arch={self.arch}, "
            f"{len(self.chips)}x{self.chips[0].n_cores} cores)"
        )
