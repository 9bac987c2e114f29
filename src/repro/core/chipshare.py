"""Estimating a task's share of shared chip maintenance power (Eq. 3).

On an n-core chip, the task on core ``c`` is attributed::

    Mchipshare(c) = Mcore(c) * 1 / (1 + sum_{i != c} Mcore(i))

where sibling utilizations come from each sibling's *most recent posted
counter sample* -- read without any cross-core synchronization, so the value
can be stale.  Because sampling interrupts stop on idle cores (non-halt
cycle triggers), a long-idle sibling's mailbox still shows its last busy
utilization; the paper's fix is to check whether the OS is currently
scheduling the idle task on the sibling and treat its rate as zero if so.

Three modes support the ablation study:

* ``"mailbox"`` -- the paper's design (stale samples + idle-task check);
* ``"oracle"``  -- exact instantaneous share (1/k among the k busy cores),
  an upper bound no real implementation can reach without global
  synchronization;
* ``"none"``    -- no chip-share attribution (validation approach #1).
"""

from __future__ import annotations

from repro.hardware.core import Core

_MODES = ("mailbox", "oracle", "none")


class ChipShareEstimator:
    """Per-core estimator of the Eq. 3 ``Mchipshare`` metric."""

    def __init__(self, mode: str = "mailbox", idle_task_check: bool = True) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        #: Whether to zero a sibling's stale sample when the sibling is
        #: currently idle (the paper's correction).  Exposed for ablation.
        self.idle_task_check = idle_task_check

    def estimate(self, core: Core, own_mcore: float) -> float:
        """Share of the chip's maintenance power for the task on ``core``.

        ``own_mcore`` is the task's just-computed utilization over the
        sampling period (the freshest information the accountant has).
        """
        if self.mode == "none":
            return 0.0
        if own_mcore <= 0.0:
            return 0.0
        if self.mode == "oracle":
            busy = core.chip.busy_core_count
            if not core.busy:
                busy += 1  # the sampled task occupied this core this period
            return 1.0 / max(busy, 1)
        # mailbox mode (Eq. 3).  Inlined sibling.busy / mailbox.peek():
        # this runs for every accounting sample on every busy core.
        sibling_sum = 0.0
        idle_task_check = self.idle_task_check
        for sibling in core.chip.siblings_of(core):
            if idle_task_check and sibling.active_profile is None:
                continue  # OS runs the idle task there: rate is zero
            sibling_sum += sibling.mailbox.mcore
        share = own_mcore / (1.0 + sibling_sum)
        return min(share, 1.0)
