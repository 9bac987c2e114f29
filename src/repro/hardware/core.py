"""A simulated CPU core with duty-cycle modulation.

The core exposes exactly the knobs the paper's kernel uses:

* hardware event counters with non-halt-cycle overflow interrupts
  (:class:`~repro.hardware.counters.CounterBank`),
* per-core duty-cycle modulation in eighths (Intel's clock modulation MSR
  supports multipliers of 1/8; Section 3.4), and
* a "currently running" activity profile that the ground-truth power model
  reads.

Execution itself is driven by the kernel scheduler: it calls
:meth:`Core.run_for_cycles` to burn a slice of non-halt cycles for the
current task.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.hardware.counters import CounterBank, SampleMailbox
from repro.hardware.events import EventVector, RateProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.chip import Chip

#: Number of duty-cycle steps (Intel clock modulation uses eighths).
DUTY_LEVELS = 8


class Core:
    """One CPU core: frequency, duty cycle, counters, and current activity."""

    def __init__(
        self,
        index: int,
        chip: "Chip",
        freq_hz: float,
        overflow_threshold_cycles: float | None = None,
    ) -> None:
        if freq_hz <= 0:
            raise ValueError("core frequency must be positive")
        self.index = index
        self.chip = chip
        self.freq_hz = freq_hz
        self.counters = CounterBank(overflow_threshold_cycles)
        self.mailbox = SampleMailbox()
        self._duty_level = DUTY_LEVELS
        # freq_hz, duty level, and the chip's DVFS scale only change through
        # their setters, so the product is cached and refreshed on writes
        # (it is read on every slice start/end and accounting sample).
        self._effective_hz = freq_hz * 1.0 * chip.freq_scale
        #: Profile of the code currently on the core, or ``None`` when idle
        #: (the OS idle task halts the core).
        self.active_profile: Optional[RateProfile] = None
        #: Opaque owner tag set by the scheduler (the running process).
        self.current_owner: object | None = None
        #: Work retired per non-halt cycle relative to an un-contended run;
        #: set by the kernel at slice start when a contention model is
        #: active (1.0 otherwise).  Stall cycles still count as non-halt.
        #: Mutate through :meth:`set_work_fraction` so the cached true-power
        #: draw below is invalidated with it.
        self.current_work_fraction: float = 1.0
        #: Memoized ground-truth active watts of the current activity state
        #: (profile, duty, DVFS scale, work fraction), or ``None`` when any
        #: of those changed since the last energy checkpoint.  Owned by
        #: :meth:`Machine.checkpoint`'s rate cache; every mutator of
        #: power-relevant core state resets it.  Activity is
        #: piecewise-constant between simulation events, so checkpoints
        #: between mutations -- the common case -- reuse the same watts
        #: instead of re-deriving them.
        self._cached_active_watts: float | None = None

    # ------------------------------------------------------------------
    # Duty-cycle modulation (the power-conditioning actuator, Section 3.4)
    # ------------------------------------------------------------------
    @property
    def duty_level(self) -> int:
        """Current duty-cycle level, an integer in ``[1, DUTY_LEVELS]``."""
        return self._duty_level

    def set_duty_level(self, level: int) -> None:
        """Program the clock-modulation level (1 = slowest, 8 = full speed)."""
        if not 1 <= level <= DUTY_LEVELS:
            raise ValueError(f"duty level must be in [1, {DUTY_LEVELS}]")
        self._duty_level = level
        self._refresh_effective_hz()

    @property
    def duty_ratio(self) -> float:
        """Fraction of cycles the core is allowed to execute."""
        return self._duty_level / DUTY_LEVELS

    # ------------------------------------------------------------------
    # Activity state
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True when a non-idle task occupies the core."""
        return self.active_profile is not None

    @property
    def effective_hz(self) -> float:
        """Non-halt cycles per wall second under the current duty level
        and the chip's DVFS frequency scale."""
        return self._effective_hz

    def _refresh_effective_hz(self) -> None:
        """Recompute the cached rate (duty or chip DVFS scale changed)."""
        self._effective_hz = self.freq_hz * self.duty_ratio * self.chip.freq_scale
        self._cached_active_watts = None
        self.chip.machine._power_epoch += 1

    def set_work_fraction(self, work_fraction: float) -> None:
        """Install the contention-derived work fraction for the next slice.

        A write of the value already installed leaves the core's power draw
        untouched, so the watts cache and the machine's rate cache survive
        (the common case: uncontended slices re-install 1.0 every start).
        """
        if work_fraction != self.current_work_fraction:
            self.current_work_fraction = work_fraction
            self._cached_active_watts = None
            self.chip.machine._power_epoch += 1

    def begin_activity(self, profile: RateProfile, owner: object | None = None) -> None:
        """Install a running task's profile (scheduler dispatch).

        Re-installing the *same* profile object (a task continuing across
        slice boundaries on its core) does not change the core's power
        draw, so the caches survive; only a genuine activity change bumps
        the machine's power epoch.
        """
        prev = self.active_profile
        if prev is None:
            chip = self.chip
            if chip._occupancy is not None and chip._busy_count == 0:
                chip._occupancy.advance()
            chip._busy_count += 1
        self.active_profile = profile
        self.current_owner = owner
        if profile is not prev:
            self._cached_active_watts = None
            self.chip.machine._power_epoch += 1

    def end_activity(self) -> None:
        """Return the core to the halted idle state."""
        changed = False
        if self.active_profile is not None:
            chip = self.chip
            if chip._occupancy is not None and chip._busy_count == 1:
                chip._occupancy.advance()
            chip._busy_count -= 1
            self.active_profile = None
            changed = True
        self.current_owner = None
        if self.current_work_fraction != 1.0:
            self.current_work_fraction = 1.0
            changed = True
        if changed:
            self._cached_active_watts = None
            self.chip.machine._power_epoch += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def seconds_for_cycles(self, nonhalt_cycles: float) -> float:
        """Wall time needed to execute ``nonhalt_cycles`` at current duty."""
        if nonhalt_cycles < 0:
            raise ValueError("cycle count must be non-negative")
        return nonhalt_cycles / self._effective_hz

    def cycles_for_seconds(self, seconds: float) -> float:
        """Non-halt cycles executed in ``seconds`` at the current duty level."""
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        return seconds * self._effective_hz

    def run_for_cycles(
        self, nonhalt_cycles: float, work_fraction: float = 1.0
    ) -> EventVector:
        """Burn a slice of non-halt cycles for the active profile.

        ``work_fraction`` < 1 models contention stalls: all
        ``nonhalt_cycles`` elapse (and count), but only
        ``nonhalt_cycles * work_fraction`` worth of instructions and
        cache/memory events retire.

        Returns the generated events, which have already been added to the
        counter bank.  The caller (kernel) is responsible for advancing
        simulated time by :meth:`seconds_for_cycles` and for checkpointing
        the machine energy integrator around activity changes.
        """
        if self.active_profile is None:
            raise RuntimeError(f"core {self.index} is idle; nothing to run")
        events = self.active_profile.events_for_cycles(
            nonhalt_cycles * work_fraction
        )
        events.nonhalt_cycles = nonhalt_cycles
        self.counters.accumulate(events)
        return events

    def accumulate_cycles(  # hot-path
        self, nonhalt_cycles: float, work_fraction: float = 1.0
    ) -> None:
        """:meth:`run_for_cycles` without materializing the event vector.

        The kernel's slice paths discard the returned events, so this twin
        folds the same per-field arithmetic straight into the counter bank's
        running totals.  Expression shapes match ``RateProfile
        .events_for_cycles`` + ``CounterBank.accumulate`` term for term, so
        counter trajectories stay bit-identical to the allocating path.
        """
        profile = self.active_profile
        if profile is None:
            raise RuntimeError(f"core {self.index} is idle; nothing to run")
        retired = nonhalt_cycles * work_fraction
        totals = self.counters.totals
        totals.nonhalt_cycles += nonhalt_cycles
        totals.instructions += profile.ipc * retired
        totals.flops += profile.flops_per_cycle * retired
        totals.cache_refs += profile.cache_per_cycle * retired
        totals.mem_trans += profile.mem_per_cycle * retired

    def inject_events(self, events: EventVector) -> None:
        """Add out-of-band events (e.g. accounting maintenance work) to the
        counters without advancing task progress -- the observer effect."""
        self.counters.accumulate(events)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Duty/activity state plus counter bank and mailbox.

        ``active_profile`` and ``current_owner`` are live objects owned by
        the kernel's replayed processes; they are captured as names/pids
        for verification.  The memoized watts cache is derived state and
        deliberately not captured.
        """
        return {
            "v": 1,
            "duty_level": self._duty_level,
            "work_fraction": self.current_work_fraction,
            "profile": (
                self.active_profile.name
                if self.active_profile is not None else None
            ),
            "owner_pid": getattr(self.current_owner, "pid", None),
            "counters": self.counters.snapshot_state(),
            "mailbox": self.mailbox.snapshot_state(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.active_profile.name if self.active_profile else "idle"
        return (
            f"Core(#{self.index} chip={self.chip.index} {state} "
            f"duty={self._duty_level}/{DUTY_LEVELS})"
        )
