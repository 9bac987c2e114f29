"""Cluster-level power capping with a deterministic brownout ladder (§3.4).

The paper's power-capping experiment conditions individual requests on one
machine.  At cluster scale a cap is an *operational* constraint: when the
measured draw exceeds the configured cap the system must degrade in a
chosen order, not collapse.  :class:`PowerCapEnforcer` implements that
order as a four-rung ladder evaluated on a fixed control interval:

====  ============  =====================================================
rung  name          mechanism
====  ============  =====================================================
0     full-speed    no intervention
1     condition     per-machine :class:`~repro.core.conditioning.\
PowerConditioner` targets clamp the *heaviest* containers (each machine
                    gets an equal share of the cap; the conditioner's
                    per-core budget math throttles only requests whose
                    full-speed power exceeds their share)
2     shed          additionally, the overload protector sheds
                    low-priority arrivals (``brownout_level = 2``)
3     reject        all arrivals are rejected at admission
====  ============  =====================================================

Escalation is one rung per interval while measured power exceeds the
effective cap.  Stepping *down* requires hysteresis: measured power must
stay below ``cap * step_down_headroom`` for ``hold_intervals`` consecutive
intervals, which prevents the ladder from oscillating at the cap boundary.

**Degraded telemetry:** capping decisions are only as good as the meters
behind them.  When any machine's facility watchdog reports a stale meter
(``health.meter_state != "ok"``), the enforcer switches to a conservative
effective cap (``cap * degraded_cap_fraction``) until telemetry recovers --
we would rather over-throttle than browse past the breaker panel blind.

Everything runs on the simulated clock off machine ground-truth energy
integrators, so two identically-seeded runs produce identical ladder
transitions (the chaos determinism gate checks this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.conditioning import PowerConditioner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.cluster import HeterogeneousCluster
    from repro.server.overload import OverloadProtector

#: Ladder rung names, indexed by level.
BROWNOUT_LADDER = ("full-speed", "condition", "shed", "reject")


@dataclass(frozen=True)
class BrownoutTransition:
    """One ladder move, for reports and the CLI demo."""

    at: float
    level: int
    name: str
    measured_watts: float
    effective_cap: float
    direction: str  # "up" | "down"


class PowerCapEnforcer:
    """Periodic cluster power-cap control loop driving the brownout ladder.

    Parameters
    ----------
    cluster:
        The :class:`~repro.server.cluster.HeterogeneousCluster` to cap.
        A :class:`~repro.core.conditioning.PowerConditioner` is attached to
        every member facility (replacing any existing conditioner).
    protector:
        The dispatcher's :class:`~repro.server.overload.OverloadProtector`,
        whose ``brownout_level`` this enforcer drives.  ``None`` restricts
        the ladder to rungs 0-1 (conditioning only).
    cap_watts:
        Cluster-wide *active* power cap in watts.  Mutable at runtime --
        the chaos :class:`~repro.faults.injectors.PowerCapInjector`
        squeezes it mid-run.
    interval:
        Control interval in simulated seconds; measured power is the
        active energy accumulated over the previous interval divided by
        its length.
    """

    def __init__(
        self,
        cluster: "HeterogeneousCluster",
        cap_watts: float,
        protector: Optional["OverloadProtector"] = None,
        interval: float = 0.02,
        step_down_headroom: float = 0.85,
        hold_intervals: int = 3,
        degraded_cap_fraction: float = 0.6,
        telemetry=None,
    ) -> None:
        if cap_watts <= 0:
            raise ValueError("power cap must be positive")
        if interval <= 0:
            raise ValueError("control interval must be positive")
        if not 0.0 < step_down_headroom <= 1.0:
            raise ValueError("step_down_headroom must be in (0, 1]")
        if hold_intervals < 1:
            raise ValueError("hold_intervals must be at least 1")
        if not 0.0 < degraded_cap_fraction <= 1.0:
            raise ValueError("degraded_cap_fraction must be in (0, 1]")
        self.cluster = cluster
        self.protector = protector
        self.cap_watts = cap_watts
        self.interval = interval
        self.step_down_headroom = step_down_headroom
        self.hold_intervals = hold_intervals
        self.degraded_cap_fraction = degraded_cap_fraction
        #: Optional :class:`~repro.telemetry.Telemetry` handle; ``None``
        #: (the default) keeps the control loop byte-identical.
        self.telemetry = telemetry

        self.level = 0
        self.transitions: list[BrownoutTransition] = []
        self.ticks = 0
        self.escalations = 0
        self.deescalations = 0
        self.over_cap_intervals = 0
        self.degraded_intervals = 0
        self.max_consecutive_over = 0
        self.measured_watts = 0.0
        self.degraded = False
        self._consecutive_over = 0
        self._intervals_under = 0
        self._last_joules: dict[str, float] = {}
        self._started = False

        # One conditioner per member, idle (infinite target) until rung 1.
        self.conditioners: dict[str, PowerConditioner] = {}
        for member in cluster.machines:
            conditioner = PowerConditioner(
                member.kernel, target_active_watts=float("inf")
            )
            member.facility.attach_conditioner(conditioner)
            self.conditioners[member.name] = conditioner

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Checkpoint energy and begin the recurring control loop."""
        if self._started:
            return
        self._started = True
        for member in self.cluster.machines:
            member.machine.checkpoint()
            self._last_joules[member.name] = member.machine.integrator.active_joules
        self.cluster.simulator.schedule_recurring(self.interval, self._tick)

    def effective_cap(self) -> float:
        """The cap actually enforced this interval (degraded mode aware)."""
        if self.degraded:
            return self.cap_watts * self.degraded_cap_fraction
        return self.cap_watts

    # ------------------------------------------------------------------
    def _measure(self) -> float:
        """Cluster active watts over the last interval (ground truth)."""
        total = 0.0
        for member in self.cluster.machines:
            member.machine.checkpoint()
            joules = member.machine.integrator.active_joules
            total += joules - self._last_joules.get(member.name, joules)
            self._last_joules[member.name] = joules
        return total / self.interval

    def _tick(self) -> None:
        self.ticks += 1
        now = self.cluster.simulator.now
        self.measured_watts = self._measure()
        # Degraded telemetry: any stale facility meter forces the
        # conservative cap until the watchdog reports recovery.
        self.degraded = any(
            member.facility.health.meter_state != "ok"
            for member in self.cluster.machines
        )
        if self.degraded:
            self.degraded_intervals += 1
        cap = self.effective_cap()

        if self.measured_watts > cap:
            self.over_cap_intervals += 1
            self._consecutive_over += 1
            self.max_consecutive_over = max(
                self.max_consecutive_over, self._consecutive_over
            )
            self._intervals_under = 0
            self._step(now, +1)
        else:
            self._consecutive_over = 0
            if self.measured_watts <= cap * self.step_down_headroom:
                self._intervals_under += 1
                if self._intervals_under >= self.hold_intervals:
                    self._intervals_under = 0
                    self._step(now, -1)
            else:
                # Inside the hysteresis band: hold the current rung.
                self._intervals_under = 0
        self._apply()

    def _step(self, now: float, direction: int) -> None:
        max_level = len(BROWNOUT_LADDER) - 1 if self.protector is not None else 1
        new_level = min(max_level, max(0, self.level + direction))
        if new_level == self.level:
            return
        self.level = new_level
        if direction > 0:
            self.escalations += 1
        else:
            self.deescalations += 1
        self.transitions.append(BrownoutTransition(
            at=now,
            level=new_level,
            name=BROWNOUT_LADDER[new_level],
            measured_watts=self.measured_watts,
            effective_cap=self.effective_cap(),
            direction="up" if direction > 0 else "down",
        ))
        t = self.telemetry
        if t is not None and t.enabled:
            t.tracer.instant(
                now,
                "powercap",
                f"brownout.{BROWNOUT_LADDER[new_level]}",
                {
                    "level": new_level,
                    "direction": "up" if direction > 0 else "down",
                    "measured_watts": self.measured_watts,
                    "effective_cap": self.effective_cap(),
                },
            )

    def _apply(self) -> None:
        """Push the current rung into conditioners and the protector."""
        alive = [m for m in self.cluster.machines if m.alive]
        if self.level >= 1 and alive:
            share = self.effective_cap() / len(alive)
            for member in alive:
                self.conditioners[member.name].target_active_watts = share
        else:
            for conditioner in self.conditioners.values():
                conditioner.target_active_watts = float("inf")
        if self.protector is not None:
            self.protector.brownout_level = self.level

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Ladder position, hysteresis counters, and per-member state."""
        return {
            "v": 1,
            "cap_watts": self.cap_watts,
            "level": self.level,
            "ticks": self.ticks,
            "escalations": self.escalations,
            "deescalations": self.deescalations,
            "over_cap_intervals": self.over_cap_intervals,
            "degraded_intervals": self.degraded_intervals,
            "max_consecutive_over": self.max_consecutive_over,
            "measured_watts": self.measured_watts,
            "degraded": self.degraded,
            "consecutive_over": self._consecutive_over,
            "intervals_under": self._intervals_under,
            "last_joules": dict(sorted(self._last_joules.items())),
            "started": self._started,
            "transitions": [
                [t.at, t.level, t.name, t.measured_watts, t.effective_cap,
                 t.direction]
                for t in self.transitions
            ],
            "conditioners": {
                name: conditioner.snapshot_state()
                for name, conditioner in sorted(self.conditioners.items())
            },
        }

    # ------------------------------------------------------------------
    def publish_metrics(self, registry=None) -> None:
        """Publish the control-loop counters as ``powercap_*`` gauges.

        Ladder level, cap, effective cap, measured watts, tick and
        escalation counters, degraded-telemetry state, transitions, and
        conditioner adjustments.  With no explicit ``registry`` the
        attached telemetry handle's registry is used; without either this
        is a no-op.
        """
        if registry is None:
            if self.telemetry is None:
                return
            registry = self.telemetry.registry

        def put(key: str, value: float) -> None:
            registry.gauge(f"powercap_{key}").set(value)

        put("level", self.level)
        put("cap_watts", self.cap_watts)
        put("effective_cap", self.effective_cap())
        put("measured_watts", self.measured_watts)
        put("ticks", self.ticks)
        put("escalations", self.escalations)
        put("deescalations", self.deescalations)
        put("over_cap_intervals", self.over_cap_intervals)
        put("max_consecutive_over", self.max_consecutive_over)
        put("degraded_intervals", self.degraded_intervals)
        put("degraded", 1.0 if self.degraded else 0.0)
        put("transitions", len(self.transitions))
        put(
            "conditioner_adjustments",
            sum(c.adjustments for c in self.conditioners.values()),
        )
