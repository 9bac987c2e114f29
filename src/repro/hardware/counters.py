"""Per-core hardware counter banks and the sibling sample mailbox.

A :class:`CounterBank` mimics a core's performance-monitoring unit: it
accumulates event counts and supports threshold-based overflow interrupts on
non-halt cycles (the paper configures the local APIC this way so that
sampling interrupts are suppressed while the core idles).

A :class:`SampleMailbox` holds the most recent utilization sample each core
posts for its siblings.  Eq. 3's ``Mchipshare`` estimation reads sibling
mailboxes without synchronization, so an idle sibling's entry can be *stale*
-- exactly the approximation the paper describes (and corrects with the
idle-task check).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.events import EventVector


#: Width of real performance counters; registers wrap at this value.
COUNTER_WIDTH_BITS = 48
COUNTER_WRAP = float(1 << COUNTER_WIDTH_BITS)


class CounterBank:
    """Cumulative event counters for one core, with overflow thresholds.

    Like real PMU registers, the architectural read value wraps at
    ``2**48``; consumers must compute deltas modulo the counter width
    (see :func:`wrapped_delta`).  Internally an unwrapped running total is
    kept so the simulation itself never loses precision.
    """

    def __init__(
        self,
        overflow_threshold_cycles: float | None = None,
        wrap: bool = False,
    ) -> None:
        self.totals = EventVector()
        #: Non-halt cycles after which an overflow interrupt should fire,
        #: or ``None`` to disable sampling interrupts.
        self.overflow_threshold_cycles = overflow_threshold_cycles
        #: When true, :meth:`read` returns architecturally wrapped values.
        self.wrap = wrap
        self._cycles_at_last_overflow = 0.0

    def accumulate(self, events: EventVector) -> None:
        """Add freshly generated events to the cumulative totals."""
        self.totals.add(events)

    def read(self) -> EventVector:
        """Return a snapshot of the cumulative counters.

        With ``wrap`` enabled each field is reduced modulo the 48-bit
        register width, as software would observe on real hardware.
        """
        totals = self.totals
        if not self.wrap:
            return totals.copy()
        return EventVector(
            totals.nonhalt_cycles % COUNTER_WRAP,
            totals.instructions % COUNTER_WRAP,
            totals.flops % COUNTER_WRAP,
            totals.cache_refs % COUNTER_WRAP,
            totals.mem_trans % COUNTER_WRAP,
            totals.disk_bytes % COUNTER_WRAP,
            totals.net_bytes % COUNTER_WRAP,
        )

    def cycles_until_overflow(self) -> float:
        """Non-halt cycles remaining before the next overflow interrupt.

        Returns ``inf`` when overflow interrupts are disabled.
        """
        if self.overflow_threshold_cycles is None:
            return float("inf")
        consumed = self.totals.nonhalt_cycles - self._cycles_at_last_overflow
        remaining = self.overflow_threshold_cycles - consumed
        return max(remaining, 0.0)

    def acknowledge_overflow(self) -> None:
        """Re-arm the overflow interrupt from the current cycle count."""
        self._cycles_at_last_overflow = self.totals.nonhalt_cycles

    def overflow_pending(self, tol_cycles: float = 1e-6) -> bool:
        """True when the threshold has been reached since the last ack."""
        return self.cycles_until_overflow() <= tol_cycles

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        totals = self.totals
        return {
            "v": 1,
            "totals": [
                totals.nonhalt_cycles, totals.instructions, totals.flops,
                totals.cache_refs, totals.mem_trans, totals.disk_bytes,
                totals.net_bytes,
            ],
            "wrap": self.wrap,
            "overflow_threshold_cycles": self.overflow_threshold_cycles,
            "cycles_at_last_overflow": self._cycles_at_last_overflow,
        }


def wrapped_delta(later: EventVector, earlier: EventVector) -> EventVector:
    """Delta between two counter snapshots, correcting 48-bit wraparound.

    When a later reading is numerically smaller than the earlier one, the
    register wrapped between the reads; the physical delta is recovered by
    adding one full counter period.  (Valid as long as fewer than ``2**48``
    events occur between consecutive samples, which millisecond-scale
    sampling guarantees by ~5 orders of magnitude.)
    """
    delta = later.delta_from(earlier)
    # Unrolled over the fixed field set (hot path: every counter sample).
    value = delta.nonhalt_cycles
    if value < 0.0:
        delta.nonhalt_cycles = value + COUNTER_WRAP if value < -0.5 else 0.0
    value = delta.instructions
    if value < 0.0:
        delta.instructions = value + COUNTER_WRAP if value < -0.5 else 0.0
    value = delta.flops
    if value < 0.0:
        delta.flops = value + COUNTER_WRAP if value < -0.5 else 0.0
    value = delta.cache_refs
    if value < 0.0:
        delta.cache_refs = value + COUNTER_WRAP if value < -0.5 else 0.0
    value = delta.mem_trans
    if value < 0.0:
        delta.mem_trans = value + COUNTER_WRAP if value < -0.5 else 0.0
    value = delta.disk_bytes
    if value < 0.0:
        delta.disk_bytes = value + COUNTER_WRAP if value < -0.5 else 0.0
    value = delta.net_bytes
    if value < 0.0:
        delta.net_bytes = value + COUNTER_WRAP if value < -0.5 else 0.0
    return delta


@dataclass
class UtilizationSample:
    """One posted per-core utilization observation."""

    time: float
    mcore: float


class SampleMailbox:
    """Latest-sample mailbox a core posts for unsynchronized sibling reads.

    The latest post is kept as two plain floats, :attr:`time` and
    :attr:`mcore` (posted once per accounting sample; siblings read
    ``mcore`` directly); :meth:`peek` wraps them in a
    :class:`UtilizationSample` on demand.
    """

    __slots__ = ("time", "mcore", "frozen")

    def __init__(self) -> None:
        self.time = 0.0
        self.mcore = 0.0
        #: Fault-injection switch (see :mod:`repro.faults`): while frozen,
        #: posts are discarded and siblings keep reading the stale sample --
        #: the pathological extreme of the unsynchronized mailbox design.
        self.frozen = False

    def post(self, time: float, mcore: float) -> None:
        """Publish the utilization observed over the last sampling period."""
        if not 0.0 <= mcore <= 1.0 + 1e-9:
            raise ValueError(f"mcore out of range: {mcore}")
        if self.frozen:
            return
        self.time = time
        self.mcore = min(mcore, 1.0)

    def post_trusted(self, time: float, mcore: float) -> None:  # hot-path
        """:meth:`post` without the range check, for the accounting engine.

        The caller guarantees ``0 <= mcore <= 1`` (the engine clamps its
        utilization metric before publishing), so the validation and the
        redundant ``min`` are skipped.  Fault-injection freezing is still
        honoured.
        """
        if self.frozen:
            return
        self.time = time
        self.mcore = mcore

    def peek(self) -> UtilizationSample:
        """Read the latest posted sample (possibly stale)."""
        return UtilizationSample(time=self.time, mcore=self.mcore)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "time": self.time,
            "mcore": self.mcore,
            "frozen": self.frozen,
        }
