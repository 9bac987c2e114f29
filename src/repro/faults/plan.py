"""Composable, sim-clock-driven fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent`\\ s -- "at
virtual time *t*, do *action* at *site*".  Plans are pure data until
:meth:`FaultPlan.apply` binds them to live injectors and schedules every
event on the simulator, so the same plan can be rendered, hashed, replayed
against a fresh world, or merged with another plan.  Random plans draw from
a caller-supplied :class:`numpy.random.Generator` (normally a
``repro.sim.rng`` stream), which makes chaos runs reproducible from a seed.

Sites and their actions:

``meter``
    ``kill`` / ``restore`` (outage window), ``profile`` (activate a
    :class:`~repro.faults.injectors.MeterFaultProfile`, passed in
    ``params["profile"]``), ``clear_profile``.
``tags:<endpoint>``
    ``activate`` (``params`` may carry ``loss_prob`` / ``truncate_prob``),
    ``deactivate``.
``mailbox``
    ``freeze`` / ``thaw`` of core ``params["core"]``.
``cluster``
    ``crash`` / ``recover`` of machine ``params["machine"]``.
``meter:<machine>``
    Per-machine meter faults in cluster worlds: same actions as ``meter``,
    resolved against ``targets.meters[machine]``.
``arrivals``
    ``surge`` (``params["multiplier"]``) / ``calm`` on the dispatcher's
    open-loop arrival rate (traffic storms).
``powercap``
    ``squeeze`` (``params["fraction"]``) / ``release`` on the cluster
    power-cap enforcer (utility brownouts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.faults.injectors import (
    ArrivalSurgeInjector,
    ClusterFaultInjector,
    MailboxFaultInjector,
    MeterFaultInjector,
    MeterFaultProfile,
    PowerCapInjector,
    TagFaultInjector,
)
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action: at ``at`` seconds, ``action`` on ``site``."""

    at: float
    site: str
    action: str
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key: str, default: object = None) -> object:
        """Look up one parameter by name."""
        for name, value in self.params:
            if name == key:
                return value
        return default


def _params(**kwargs: object) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(kwargs.items()))


@dataclass
class FaultTargets:
    """The live injectors a plan's sites resolve against."""

    meter: Optional[MeterFaultInjector] = None
    tags: dict[str, TagFaultInjector] = field(default_factory=dict)
    mailbox: Optional[MailboxFaultInjector] = None
    cluster: Optional[ClusterFaultInjector] = None
    #: Per-machine meter injectors for cluster worlds (site ``meter:<name>``).
    meters: dict[str, MeterFaultInjector] = field(default_factory=dict)
    arrivals: Optional[ArrivalSurgeInjector] = None
    powercap: Optional[PowerCapInjector] = None

    def export_stats(self) -> dict[str, float]:
        """Merged injection counters from every bound injector."""
        stats: dict[str, float] = {}
        if self.meter is not None:
            stats.update(self.meter.export_stats())
        for name, injector in sorted(self.tags.items()):
            for key, value in injector.export_stats().items():
                stats[f"{name}_{key}"] = value
        if self.mailbox is not None:
            stats.update(self.mailbox.export_stats())
        if self.cluster is not None:
            stats.update(self.cluster.export_stats())
        for name, injector in sorted(self.meters.items()):
            for key, value in injector.export_stats().items():
                stats[f"{name}_{key}"] = value
        if self.arrivals is not None:
            stats.update(self.arrivals.export_stats())
        if self.powercap is not None:
            stats.update(self.powercap.export_stats())
        return stats

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        """Every bound injector's state, keyed by site name."""
        return {
            "v": 1,
            "meter": (
                self.meter.snapshot_state() if self.meter is not None else None
            ),
            "tags": {
                name: injector.snapshot_state()
                for name, injector in sorted(self.tags.items())
            },
            "mailbox": (
                self.mailbox.snapshot_state()
                if self.mailbox is not None
                else None
            ),
            "cluster": (
                self.cluster.snapshot_state()
                if self.cluster is not None
                else None
            ),
            "meters": {
                name: injector.snapshot_state()
                for name, injector in sorted(self.meters.items())
            },
            "arrivals": (
                self.arrivals.snapshot_state()
                if self.arrivals is not None
                else None
            ),
            "powercap": (
                self.powercap.snapshot_state()
                if self.powercap is not None
                else None
            ),
        }


class FaultPlan:
    """An ordered, composable schedule of fault events."""

    def __init__(
        self,
        events: Optional[list[FaultEvent]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.events: list[FaultEvent] = list(events) if events else []
        #: The generator :meth:`random` drew from, kept so the plan's RNG
        #: cursor is part of its checkpoint (:meth:`snapshot_state`).
        self.rng = rng

    # -- composition ----------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append one event (returns self for chaining)."""
        self.events.append(event)
        return self

    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """A new plan containing both plans' events."""
        return FaultPlan(self.events + other.events)

    def sorted_events(self) -> list[FaultEvent]:
        """Events in firing order (stable for equal times)."""
        return sorted(self.events, key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self.events)

    # -- convenience constructors for common windows --------------------
    def meter_outage(self, at: float, duration: float) -> "FaultPlan":
        """Meter dies at ``at`` and recovers ``duration`` later."""
        self.add(FaultEvent(at, "meter", "kill"))
        self.add(FaultEvent(at + duration, "meter", "restore"))
        return self

    def meter_noise_window(
        self, at: float, duration: float, profile: MeterFaultProfile
    ) -> "FaultPlan":
        """Per-sample meter faults active over ``[at, at + duration)``."""
        self.add(FaultEvent(at, "meter", "profile", _params(profile=profile)))
        self.add(FaultEvent(at + duration, "meter", "clear_profile"))
        return self

    def tag_loss_window(
        self,
        endpoint: str,
        at: float,
        duration: float,
        loss_prob: float = 0.0,
        truncate_prob: float = 0.0,
    ) -> "FaultPlan":
        """Tag stripping/truncation on one endpoint over a window."""
        self.add(
            FaultEvent(
                at,
                f"tags:{endpoint}",
                "activate",
                _params(loss_prob=loss_prob, truncate_prob=truncate_prob),
            )
        )
        self.add(FaultEvent(at + duration, f"tags:{endpoint}", "deactivate"))
        return self

    def mailbox_freeze(
        self, core: int, at: float, duration: float
    ) -> "FaultPlan":
        """Freeze one core's sample mailbox over a window."""
        self.add(FaultEvent(at, "mailbox", "freeze", _params(core=core)))
        self.add(FaultEvent(at + duration, "mailbox", "thaw", _params(core=core)))
        return self

    def machine_crash(
        self, machine: str, at: float, duration: float
    ) -> "FaultPlan":
        """Crash one cluster machine at ``at``; recover ``duration`` later."""
        self.add(FaultEvent(at, "cluster", "crash", _params(machine=machine)))
        self.add(
            FaultEvent(at + duration, "cluster", "recover", _params(machine=machine))
        )
        return self

    def arrival_storm(
        self, at: float, duration: float, multiplier: float
    ) -> "FaultPlan":
        """Arrival-rate surge: ``multiplier`` times base over a window."""
        self.add(
            FaultEvent(at, "arrivals", "surge", _params(multiplier=multiplier))
        )
        self.add(FaultEvent(at + duration, "arrivals", "calm"))
        return self

    def cap_squeeze(
        self, at: float, duration: float, fraction: float
    ) -> "FaultPlan":
        """Power-cap squeeze to ``fraction`` of the base cap over a window."""
        self.add(
            FaultEvent(at, "powercap", "squeeze", _params(fraction=fraction))
        )
        self.add(FaultEvent(at + duration, "powercap", "release"))
        return self

    def machine_meter_outage(
        self, machine: str, at: float, duration: float
    ) -> "FaultPlan":
        """One cluster member's meter dies at ``at``; recovers later."""
        self.add(FaultEvent(at, f"meter:{machine}", "kill"))
        self.add(FaultEvent(at + duration, f"meter:{machine}", "restore"))
        return self

    # -- random plan generation -----------------------------------------
    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        duration: float,
        endpoints: tuple[str, ...] = (),
        machines: tuple[str, ...] = (),
        n_cores: int = 0,
        max_windows: int = 4,
    ) -> "FaultPlan":
        """A random-but-reproducible plan over ``[0, duration)``.

        Every window starts in the first 70% of the run and lasts at most
        25% of it, so the world always gets fault-free time at the end to
        demonstrate recovery.  Which fault kinds are eligible follows from
        the targets provided (no machines -> no crash windows, etc.).
        """
        plan = cls(rng=rng)
        kinds = ["outage", "noise"]
        if endpoints:
            kinds.append("tags")
        if n_cores > 0:
            kinds.append("mailbox")
        if machines:
            kinds.append("crash")
        n_windows = int(rng.integers(1, max_windows + 1))
        for _ in range(n_windows):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            at = float(rng.uniform(0.05, 0.7)) * duration
            span = float(rng.uniform(0.05, 0.25)) * duration
            if kind == "outage":
                plan.meter_outage(at, span)
            elif kind == "noise":
                profile = MeterFaultProfile(
                    drop_prob=float(rng.uniform(0.0, 0.3)),
                    nan_prob=float(rng.uniform(0.0, 0.2)),
                    negative_prob=float(rng.uniform(0.0, 0.15)),
                    spike_prob=float(rng.uniform(0.0, 0.15)),
                    stuck_prob=float(rng.uniform(0.0, 0.15)),
                    duplicate_prob=float(rng.uniform(0.0, 0.2)),
                    extra_delay_prob=float(rng.uniform(0.0, 0.2)),
                )
                plan.meter_noise_window(at, span, profile)
            elif kind == "tags":
                endpoint = endpoints[int(rng.integers(0, len(endpoints)))]
                plan.tag_loss_window(
                    endpoint,
                    at,
                    span,
                    loss_prob=float(rng.uniform(0.05, 0.5)),
                    truncate_prob=float(rng.uniform(0.0, 0.3)),
                )
            elif kind == "mailbox":
                plan.mailbox_freeze(int(rng.integers(0, n_cores)), at, span)
            else:
                machine = machines[int(rng.integers(0, len(machines)))]
                plan.machine_crash(machine, at, span)
        return plan

    # -- checkpoint protocol --------------------------------------------
    _PROFILE_FIELDS = (
        "drop_prob", "nan_prob", "negative_prob", "spike_prob",
        "stuck_prob", "duplicate_prob", "extra_delay_prob",
        "spike_watts", "extra_delay",
    )

    def snapshot_state(self) -> dict:
        """The plan as plain data: events plus its RNG cursor.

        :class:`MeterFaultProfile` params are flattened to field dicts so
        the snapshot stays plain data a resume can verify bit for bit.
        """
        from repro.checkpoint.state import generator_state

        def render(value: object) -> object:
            if isinstance(value, MeterFaultProfile):
                return [
                    "__profile__",
                    {f: getattr(value, f) for f in self._PROFILE_FIELDS},
                ]
            return value

        return {
            "v": 1,
            "rng": generator_state(self.rng) if self.rng is not None else None,
            "events": [
                [e.at, e.site, e.action,
                 [[key, render(value)] for key, value in e.params]]
                for e in self.events
            ],
        }

    # -- execution ------------------------------------------------------
    def apply(
        self, simulator: Simulator, targets: FaultTargets, telemetry=None
    ) -> None:
        """Schedule every event against the bound injectors.

        Raises :class:`ValueError` when an event names a site the targets
        cannot resolve -- a mis-built plan should fail loudly, not silently
        skip its faults and report a spuriously clean run.  With a
        ``telemetry`` handle, every firing also emits a ``fault.*`` trace
        instant (injector firings become part of the request timeline).
        """
        for event in self.sorted_events():
            callback = self._resolve(event, targets)
            if telemetry is not None:
                # Default-arg closure: late binding would make every firing
                # report the last event in the plan.
                def traced(
                    cb=callback, site=event.site, action=event.action
                ) -> None:
                    telemetry.tracer.instant(
                        simulator.now, "faults", f"fault.{site}.{action}"
                    )
                    cb()

                callback = traced
            simulator.schedule_at(
                event.at, callback, label=f"fault-{event.site}-{event.action}"
            )

    def _resolve(self, event: FaultEvent, targets: FaultTargets):
        site, action = event.site, event.action
        if site == "meter" or site.startswith("meter:"):
            if site == "meter":
                injector = targets.meter
            else:
                injector = targets.meters.get(site.split(":", 1)[1])
            if injector is None:
                raise ValueError(
                    f"plan targets {site!r} but no meter injector bound"
                )
            if action == "kill":
                return injector.kill
            if action == "restore":
                return injector.restore
            if action == "profile":
                profile = event.param("profile")
                return lambda: injector.set_profile(profile)
            if action == "clear_profile":
                return lambda: injector.set_profile(None)
        elif site.startswith("tags:"):
            name = site.split(":", 1)[1]
            tag_injector = targets.tags.get(name)
            if tag_injector is None:
                raise ValueError(f"no tag injector bound for endpoint {name!r}")
            if action == "activate":
                loss = event.param("loss_prob")
                truncate = event.param("truncate_prob")
                return lambda: tag_injector.activate(loss, truncate)
            if action == "deactivate":
                return tag_injector.deactivate
        elif site == "mailbox":
            mailbox = targets.mailbox
            if mailbox is None:
                raise ValueError("plan freezes a mailbox but no injector bound")
            core = event.param("core")
            if action == "freeze":
                return lambda: mailbox.freeze(core)
            if action == "thaw":
                return lambda: mailbox.thaw(core)
        elif site == "cluster":
            cluster = targets.cluster
            if cluster is None:
                raise ValueError("plan crashes a machine but no cluster injector bound")
            machine = event.param("machine")
            if action == "crash":
                return lambda: cluster.crash(machine)
            if action == "recover":
                return lambda: cluster.recover(machine)
        elif site == "arrivals":
            arrivals = targets.arrivals
            if arrivals is None:
                raise ValueError("plan surges arrivals but no injector bound")
            if action == "surge":
                multiplier = event.param("multiplier")
                return lambda: arrivals.surge(multiplier)
            if action == "calm":
                return arrivals.calm
        elif site == "powercap":
            powercap = targets.powercap
            if powercap is None:
                raise ValueError("plan squeezes the cap but no injector bound")
            if action == "squeeze":
                fraction = event.param("fraction")
                return lambda: powercap.squeeze(fraction)
            if action == "release":
                return powercap.release
        raise ValueError(f"unknown fault event {site!r}/{action!r}")
