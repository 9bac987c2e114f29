"""The power container: per-request power/energy state (Section 3.3).

A container accumulates one request's hardware events, estimated energy
(under each configured accounting approach), CPU time, I/O energy, and the
duty-cycle history its execution experienced.  The paper encapsulates this
state in a 784-byte kernel structure with a reference counter; the structure
is released when all linked tasks exit.

Containers are machine-local; when a request spans machines, statistics are
carried on tagged socket messages and merged by the receiving side
(Section 3.4), which :meth:`ContainerStats.merge_carried` implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.hardware.events import EventVector

#: Size of the paper's in-kernel container structure, in bytes.  Used by
#: the Section 3.5 overhead benchmark.
CONTAINER_STRUCT_BYTES = 784


@dataclass
class ContainerStats:
    """Cumulative per-request statistics."""

    events: EventVector = field(default_factory=EventVector)
    #: Estimated active energy, per accounting approach label.
    energy_joules: dict[str, float] = field(default_factory=dict)
    #: Estimated peripheral (disk/net) energy attributed to the request.
    io_energy_joules: float = 0.0
    cpu_seconds: float = 0.0
    #: Sum of (duty_ratio * dt) over scheduled time; divided by
    #: ``cpu_seconds`` this yields the time-averaged duty-cycle ratio the
    #: request experienced (paper Fig. 12's Y axis).
    duty_weighted_seconds: float = 0.0
    sample_count: int = 0
    first_activity: Optional[float] = None
    last_activity: Optional[float] = None
    #: Primary-approach energy and CPU time per server stage (process
    #: name), enabling the paper's Fig. 4 per-stage annotations.
    stage_energy_joules: dict[str, float] = field(default_factory=dict)
    stage_cpu_seconds: dict[str, float] = field(default_factory=dict)

    def stage_mean_power(self, stage: str) -> float:
        """Mean power of one stage while scheduled (Fig. 4's watt labels)."""
        cpu = self.stage_cpu_seconds.get(stage, 0.0)
        if cpu <= 0:
            return 0.0
        return self.stage_energy_joules.get(stage, 0.0) / cpu

    def merge_carried(self, carried: dict[str, float]) -> None:
        """Merge statistics piggy-backed on a cross-machine message."""
        self.cpu_seconds += carried.get("cpu_seconds", 0.0)
        self.io_energy_joules += carried.get("io_energy_joules", 0.0)
        for key, value in carried.items():
            if key.startswith("energy:"):
                approach = key.split(":", 1)[1]
                self.energy_joules[approach] = (
                    self.energy_joules.get(approach, 0.0) + value
                )

    def export_carried(self) -> dict[str, float]:
        """Statistics snapshot to piggy-back on a cross-machine message."""
        carried: dict[str, float] = {
            "cpu_seconds": self.cpu_seconds,
            "io_energy_joules": self.io_energy_joules,
        }
        for approach, joules in self.energy_joules.items():
            carried[f"energy:{approach}"] = joules
        return carried

    @property
    def mean_duty_ratio(self) -> float:
        """Time-averaged duty-cycle ratio over the request's CPU time."""
        if self.cpu_seconds <= 0.0:
            return 1.0
        return self.duty_weighted_seconds / self.cpu_seconds

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        ev = self.events
        return {
            "v": 1,
            "events": [
                ev.nonhalt_cycles, ev.instructions, ev.flops, ev.cache_refs,
                ev.mem_trans, ev.disk_bytes, ev.net_bytes,
            ],
            "energy_joules": dict(sorted(self.energy_joules.items())),
            "io_energy_joules": self.io_energy_joules,
            "cpu_seconds": self.cpu_seconds,
            "duty_weighted_seconds": self.duty_weighted_seconds,
            "sample_count": self.sample_count,
            "first_activity": self.first_activity,
            "last_activity": self.last_activity,
            "stage_energy_joules": dict(
                sorted(self.stage_energy_joules.items())
            ),
            "stage_cpu_seconds": dict(sorted(self.stage_cpu_seconds.items())),
        }


class PowerContainer:
    """One request's power container."""

    def __init__(
        self,
        container_id: int,
        label: str = "",
        created_at: float = 0.0,
        meta: Optional[dict[str, Any]] = None,
    ) -> None:
        self.id = container_id
        self.label = label or f"request-{container_id}"
        self.created_at = created_at
        self.meta: dict[str, Any] = dict(meta) if meta else {}
        self.stats = ContainerStats()
        #: Most recent estimated power draw while scheduled, per approach.
        self.last_power_watts: dict[str, float] = {}
        #: EWMA (alpha 0.3) of the estimated *full-speed* power (the
        #: primary approach's power divided by the duty ratio in effect) --
        #: the conditioning policy's input.  Updated, with
        #: ``last_power_watts`` and the stats, by ``CoreAccountant._charge``.
        self.full_speed_power_ewma: float = 0.0
        #: Per-request active-power cap; ``None`` means uncapped.
        self.power_cap_watts: Optional[float] = None
        #: Tasks currently linked to the container (paper's refcount).
        self.refcount = 0
        self.closed = False
        #: Snapshot of the last cross-machine stats export, so repeated
        #: exports carry deltas and the receiver never double-counts.
        self._last_export: dict[str, float] = {}

    def energy(self, approach: str) -> float:
        """Estimated energy under one accounting approach (J)."""
        return self.stats.energy_joules.get(approach, 0.0)

    def total_energy(self, approach: str) -> float:
        """CPU energy plus attributed I/O energy (J)."""
        return self.energy(approach) + self.stats.io_energy_joules

    def mean_power(self, approach: str) -> float:
        """Mean power over the request's scheduled CPU time (W)."""
        if self.stats.cpu_seconds <= 0.0:
            return 0.0
        return self.energy(approach) / self.stats.cpu_seconds

    def export_carried_delta(self) -> dict[str, float]:
        """Stats delta since the previous export (for message piggy-backing).

        Successive messages of one request each carry only the execution
        cost accrued since the last export, so the dispatcher-side merge
        (Section 3.4) sums to the true total.
        """
        current = self.stats.export_carried()
        delta = {
            key: value - self._last_export.get(key, 0.0)
            for key, value in current.items()
        }
        self._last_export = current
        return delta

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 2,
            "id": self.id,
            "label": self.label,
            "created_at": self.created_at,
            "stats": self.stats.snapshot_state(),
            "last_power_watts": dict(sorted(self.last_power_watts.items())),
            "full_speed_power_ewma": self.full_speed_power_ewma,
            "power_cap_watts": self.power_cap_watts,
            "refcount": self.refcount,
            "closed": self.closed,
            "last_export": dict(sorted(self._last_export.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PowerContainer(#{self.id} {self.label!r} "
            f"cpu={self.stats.cpu_seconds:.4f}s refs={self.refcount})"
        )
