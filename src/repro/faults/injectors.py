"""Seeded fault injectors wrapping the hardware, kernel, and cluster layers.

Each injector attaches to one target through the target's dedicated
fault-injection hook (``_PeriodicMeter.fault_hook``, ``Endpoint.tag_fault``,
``SampleMailbox.frozen``, ``ClusterMachine.crash``), draws all randomness
from one :class:`numpy.random.Generator` handed in by the caller (normally a
``repro.sim.rng`` stream), and counts everything it does -- so a chaos run
can both reproduce bit-for-bit from a seed and report exactly which faults
fired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.hardware.meters import MeterSample, _PeriodicMeter
from repro.kernel.sockets import ContextTag, Endpoint, Message
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class MeterFaultProfile:
    """Per-sample fault probabilities for a meter while a window is active.

    ``drop_prob`` discards the reading entirely; ``nan_prob`` /
    ``negative_prob`` / ``spike_prob`` / ``stuck_prob`` corrupt its watts
    (a NaN, a negative glitch, a +``spike_watts`` spike, or a repeat of the
    previously published value); ``duplicate_prob`` publishes the reading
    twice; ``extra_delay_prob`` delays delivery by ``extra_delay`` seconds.
    Corruption draws are mutually exclusive (their probabilities are summed
    against one uniform draw) -- keep the sum at or below 1.
    """

    drop_prob: float = 0.0
    nan_prob: float = 0.0
    negative_prob: float = 0.0
    spike_prob: float = 0.0
    stuck_prob: float = 0.0
    duplicate_prob: float = 0.0
    extra_delay_prob: float = 0.0
    spike_watts: float = 200.0
    extra_delay: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "drop_prob", "nan_prob", "negative_prob", "spike_prob",
            "stuck_prob", "duplicate_prob", "extra_delay_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        corrupt = (
            self.nan_prob + self.negative_prob + self.spike_prob
            + self.stuck_prob
        )
        if corrupt > 1.0 + 1e-9:
            raise ValueError("corruption probabilities must sum to <= 1")


class MeterFaultInjector:
    """Injects outages and per-sample faults into one periodic meter."""

    def __init__(self, meter: _PeriodicMeter, rng: np.random.Generator) -> None:
        self.meter = meter
        self.rng = rng
        self.profile: Optional[MeterFaultProfile] = None
        self._last_watts: Optional[float] = None
        self.dropped = 0
        self.corrupted = 0
        self.duplicated = 0
        self.delayed = 0
        self.outages = 0
        meter.fault_hook = self._filter

    # -- live controls (called by FaultPlan events) ---------------------
    def set_profile(self, profile: Optional[MeterFaultProfile]) -> None:
        """Activate (or with ``None`` deactivate) per-sample faulting."""
        self.profile = profile

    def kill(self) -> None:
        """Meter outage: sampling stops until :meth:`restore`."""
        self.outages += 1
        self.meter.stop()

    def restore(self) -> None:
        """Meter recovery: periodic sampling resumes."""
        self.meter.start()

    def export_stats(self) -> dict[str, float]:
        """What this injector did (chaos-report material)."""
        return {
            "meter_dropped": float(self.dropped),
            "meter_corrupted": float(self.corrupted),
            "meter_duplicated": float(self.duplicated),
            "meter_delayed": float(self.delayed),
            "meter_outages": float(self.outages),
        }

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        """RNG state, counters, and the active profile (as plain fields)."""
        from repro.checkpoint.state import generator_state

        profile = None
        if self.profile is not None:
            profile = {
                name: getattr(self.profile, name)
                for name in (
                    "drop_prob", "nan_prob", "negative_prob", "spike_prob",
                    "stuck_prob", "duplicate_prob", "extra_delay_prob",
                    "spike_watts", "extra_delay",
                )
            }
        return {
            "v": 1,
            "rng": generator_state(self.rng),
            "profile": profile,
            "last_watts": self._last_watts,
            "dropped": self.dropped,
            "corrupted": self.corrupted,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "outages": self.outages,
        }

    # -- the fault hook -------------------------------------------------
    def _filter(self, sample: MeterSample) -> list[MeterSample]:
        profile = self.profile
        if profile is None:
            self._last_watts = sample.watts
            return [sample]
        if self.rng.random() < profile.drop_prob:
            self.dropped += 1
            return []
        watts = sample.watts
        draw = self.rng.random()
        edge = profile.nan_prob
        if draw < edge:
            watts = math.nan
            self.corrupted += 1
        elif draw < (edge := edge + profile.negative_prob):
            watts = -abs(watts) - 1.0
            self.corrupted += 1
        elif draw < (edge := edge + profile.spike_prob):
            watts = watts + profile.spike_watts
            self.corrupted += 1
        elif draw < edge + profile.stuck_prob and self._last_watts is not None:
            watts = self._last_watts
            self.corrupted += 1
        available_at = sample.available_at
        if self.rng.random() < profile.extra_delay_prob:
            available_at += profile.extra_delay
            self.delayed += 1
        published = MeterSample(
            interval_end=sample.interval_end,
            available_at=available_at,
            watts=watts,
        )
        out = [published]
        if self.rng.random() < profile.duplicate_prob:
            out.append(published)
            self.duplicated += 1
        if math.isfinite(watts):
            self._last_watts = watts
        return out


class TagFaultInjector:
    """Strips or truncates in-band context tags on one endpoint.

    ``loss_prob`` removes the whole tag (the segment arrives untagged, as
    when a middlebox drops the TCP option); ``truncate_prob`` keeps the
    container id but discards the piggy-backed statistics (a shortened
    option field).  ``on_loss`` is invoked with each lost container id so
    the harness can release the in-flight reference the tag carried.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        rng: np.random.Generator,
        loss_prob: float = 0.0,
        truncate_prob: float = 0.0,
        on_loss: Optional[Callable[[int], None]] = None,
    ) -> None:
        if not 0.0 <= loss_prob <= 1.0 or not 0.0 <= truncate_prob <= 1.0:
            raise ValueError("tag fault probabilities must be in [0, 1]")
        self.endpoint = endpoint
        self.rng = rng
        self.loss_prob = loss_prob
        self.truncate_prob = truncate_prob
        self.on_loss = on_loss
        self.active = False
        self.lost_tags = 0
        self.truncated_tags = 0
        endpoint.tag_fault = self._filter

    def activate(
        self,
        loss_prob: Optional[float] = None,
        truncate_prob: Optional[float] = None,
    ) -> None:
        """Start faulting (optionally overriding the probabilities)."""
        if loss_prob is not None:
            self.loss_prob = loss_prob
        if truncate_prob is not None:
            self.truncate_prob = truncate_prob
        self.active = True

    def deactivate(self) -> None:
        """Stop faulting; segments pass through verbatim again."""
        self.active = False

    def export_stats(self) -> dict[str, float]:
        """What this injector did (chaos-report material)."""
        return {
            "tags_lost": float(self.lost_tags),
            "tags_truncated": float(self.truncated_tags),
        }

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        from repro.checkpoint.state import generator_state

        return {
            "v": 1,
            "rng": generator_state(self.rng),
            "loss_prob": self.loss_prob,
            "truncate_prob": self.truncate_prob,
            "active": self.active,
            "lost_tags": self.lost_tags,
            "truncated_tags": self.truncated_tags,
        }

    def _filter(self, message: Message) -> Message:
        if not self.active or message.tag.container_id is None:
            return message
        if self.rng.random() < self.loss_prob:
            self.lost_tags += 1
            if self.on_loss is not None:
                self.on_loss(message.tag.container_id)
            return replace(message, tag=ContextTag())
        if message.tag.carried_stats and self.rng.random() < self.truncate_prob:
            self.truncated_tags += 1
            return replace(
                message, tag=ContextTag(container_id=message.tag.container_id)
            )
        return message


class MailboxFaultInjector:
    """Freezes per-core sample mailboxes (stale sibling counter snapshots).

    While a core's mailbox is frozen its posts are discarded, so sibling
    chip-share reads (Eq. 3) keep seeing an arbitrarily old utilization --
    the unsynchronized-mailbox hazard Section 3.1 describes, pushed to its
    pathological extreme.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.freezes = 0

    def freeze(self, core_index: int) -> None:
        """Stop one core's mailbox from taking new posts."""
        mailbox = self.machine.cores[core_index].mailbox
        if not mailbox.frozen:
            mailbox.frozen = True
            self.freezes += 1

    def thaw(self, core_index: int) -> None:
        """Resume posts to one core's mailbox."""
        self.machine.cores[core_index].mailbox.frozen = False

    def export_stats(self) -> dict[str, float]:
        """What this injector did (chaos-report material)."""
        return {"mailbox_freezes": float(self.freezes)}

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {"v": 1, "freezes": self.freezes}


class ClusterFaultInjector:
    """Crashes and recovers cluster machines on the simulated clock."""

    def __init__(self, machines_by_name: dict) -> None:
        self.machines = dict(machines_by_name)
        self.crashes = 0

    def crash(self, name: str) -> None:
        """Crash one machine now (its dispatcher listeners fail over)."""
        self.machines[name].crash()
        self.crashes += 1

    def recover(self, name: str) -> None:
        """Recover one machine now."""
        self.machines[name].recover()

    def export_stats(self) -> dict[str, float]:
        """What this injector did (chaos-report material)."""
        return {"machine_crashes": float(self.crashes)}

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {"v": 1, "crashes": self.crashes}


class ArrivalSurgeInjector:
    """Multiplies a dispatcher's open-loop arrival rate (traffic storms).

    The dispatcher samples ``request_rate`` afresh for every inter-arrival
    gap, so changing it mid-run takes effect from the next arrival on --
    no rescheduling needed, and the arrival RNG stream stays untouched
    (the same draws just map to shorter gaps).
    """

    def __init__(self, dispatcher) -> None:
        self.dispatcher = dispatcher
        self.base_rate = dispatcher.request_rate
        self.surges = 0

    def surge(self, multiplier: float) -> None:
        """Scale arrivals to ``multiplier`` times the base rate."""
        if multiplier <= 0:
            raise ValueError("surge multiplier must be positive")
        self.dispatcher.request_rate = self.base_rate * multiplier
        self.surges += 1

    def calm(self) -> None:
        """Restore the base arrival rate."""
        self.dispatcher.request_rate = self.base_rate

    def export_stats(self) -> dict[str, float]:
        """What this injector did (chaos-report material)."""
        return {"arrival_surges": float(self.surges)}

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "base_rate": self.base_rate,
            "current_rate": self.dispatcher.request_rate,
            "surges": self.surges,
        }


class PowerCapInjector:
    """Squeezes a cluster power cap (utility brownout, thermal event).

    The :class:`~repro.core.powercap.PowerCapEnforcer` reads ``cap_watts``
    every control interval, so a squeeze takes effect within one interval
    and the brownout ladder escalates deterministically from there.
    """

    def __init__(self, enforcer) -> None:
        self.enforcer = enforcer
        self.base_cap = enforcer.cap_watts
        self.squeezes = 0

    def squeeze(self, fraction: float) -> None:
        """Drop the cap to ``fraction`` of its base value."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("cap squeeze fraction must be in (0, 1]")
        self.enforcer.cap_watts = self.base_cap * fraction
        self.squeezes += 1

    def release(self) -> None:
        """Restore the base cap."""
        self.enforcer.cap_watts = self.base_cap

    def export_stats(self) -> dict[str, float]:
        """What this injector did (chaos-report material)."""
        return {"cap_squeezes": float(self.squeezes)}

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "base_cap": self.base_cap,
            "current_cap": self.enforcer.cap_watts,
            "squeezes": self.squeezes,
        }


def schedule_meter_outage(
    simulator: Simulator,
    injector: MeterFaultInjector,
    at: float,
    duration: float,
) -> None:
    """Convenience: one kill/restore pair on the simulated clock."""
    simulator.schedule_at(at, injector.kill, label="fault-meter-kill")
    simulator.schedule_at(
        at + duration, injector.restore, label="fault-meter-restore"
    )
