"""Deterministic energy anomaly detection over the merged shard stream.

Detectors consume the same per-window inputs on every run -- rack watts
from the :class:`~repro.telemetry.store.TelemetryStore` rollups, scheduler
shed/failover deltas, and instant-name counts from merged telemetry
frames -- and emit :class:`AlertRecord`\\ s in a fixed order: windows
ascending, detectors in catalog order within a window, subjects sorted
within a detector.  Because the inputs are shard-count-invariant, so is
``alert_fingerprint()``.

Alert catalog (detector / severity / subject):

* ``cap-violation-streak`` / ``page`` / ``rack<N>`` -- a rack's mean
  window watts exceeded its cap for ``cap_streak`` consecutive windows.
* ``shed-rate-spike`` / ``warn`` / ``cluster`` -- this window's shed
  count is at least ``shed_spike_factor`` times the trailing-window mean
  (and at least ``shed_spike_min`` absolute).
* ``meter-staleness-storm`` / ``warn`` / ``cluster`` -- at least
  ``stale_storm`` ``meter.stale`` instants arrived in one window.
* ``recalibration-churn`` / ``info`` / ``cluster`` -- at least
  ``recal_churn`` ``recal.refit`` instants arrived in one window.
* ``attribution-drift`` / ``warn`` / ``<machine>`` -- at finalize, a
  machine's attributed joules diverged from its measured (integrator)
  joules by more than ``drift_ratio`` relative error.

Shard workers run without meters or recalibration (the coordinator owns
all randomness), so the staleness/churn detectors only fire when frames
carry those facility instants -- single-world chaos runs and synthetic
unit tests exercise them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class AlertRecord:
    """One fired alert: plain data with a canonical rendering."""

    time: float
    window: int
    detector: str
    severity: str
    subject: str
    value: float
    threshold: float
    message: str

    def canonical(self) -> str:
        """Stable one-line rendering hashed by ``alert_fingerprint``."""
        return (
            f"{self.time!r}|{self.window}|{self.detector}|{self.severity}"
            f"|{self.subject}|{self.value!r}|{self.threshold!r}"
            f"|{self.message}"
        )

    def to_wire(self) -> dict:
        return {
            "time": self.time,
            "window": self.window,
            "detector": self.detector,
            "severity": self.severity,
            "subject": self.subject,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


def alert_fingerprint(alerts: list[AlertRecord]) -> str:
    """sha256[:16] over the canonical alert lines in emission order."""
    return hashlib.sha256(
        "\n".join(alert.canonical() for alert in alerts).encode()
    ).hexdigest()[:16]


@dataclass(frozen=True)
class AnomalyThresholds:
    """Tunable knobs for every detector (plain data, fingerprint-safe)."""

    #: Consecutive over-cap windows before a rack pages.
    cap_streak: int = 3
    #: Absolute shed floor below which spikes are ignored.
    shed_spike_min: int = 20
    #: Multiple of the trailing mean that counts as a spike.
    shed_spike_factor: float = 3.0
    #: Trailing windows kept for the shed-rate baseline.
    shed_history: int = 4
    #: ``meter.stale`` instants per window that make a storm.
    stale_storm: int = 8
    #: ``recal.refit`` instants per window that make churn.
    recal_churn: int = 4
    #: Relative attributed-vs-measured error that counts as drift.
    drift_ratio: float = 0.25
    #: Measured-joule floor below which drift is ignored.
    drift_min_joules: float = 1.0


@dataclass
class WindowInputs:
    """Everything the per-window detectors see for one epoch barrier."""

    window: int
    time: float
    #: ``((rack, mean_watts), ...)`` for this window, rack-sorted.
    rack_watts: tuple = ()
    shed: int = 0
    failovers: int = 0
    completed: int = 0
    #: ``((instant_name, count), ...)`` from merged frames, name-sorted.
    instant_counts: tuple = ()


class AnomalyEngine:
    """Ordered, deterministic detectors with checkpointable state."""

    def __init__(
        self,
        rack_caps: dict[int, float] | None = None,
        thresholds: AnomalyThresholds | None = None,
    ) -> None:
        self.rack_caps = dict(rack_caps or {})
        self.thresholds = thresholds or AnomalyThresholds()
        self.alerts: list[AlertRecord] = []
        self._cap_streaks: dict[int, int] = {}
        self._shed_history: list[int] = []
        self.windows_observed = 0

    def _emit(self, alert: AlertRecord) -> None:
        self.alerts.append(alert)

    # -- per-window detectors -------------------------------------------
    def observe_window(self, inputs: WindowInputs) -> list[AlertRecord]:
        """Run the per-window detectors; returns alerts fired just now."""
        before = len(self.alerts)
        t = self.thresholds
        # 1. Cap-violation streaks, racks in sorted order.
        for rack, watts in sorted(inputs.rack_watts):
            cap = self.rack_caps.get(rack)
            if cap is not None and watts > cap:
                streak = self._cap_streaks.get(rack, 0) + 1
                self._cap_streaks[rack] = streak
                if streak == t.cap_streak:
                    self._emit(AlertRecord(
                        time=inputs.time,
                        window=inputs.window,
                        detector="cap-violation-streak",
                        severity="page",
                        subject=f"rack{rack}",
                        value=watts,
                        threshold=cap,
                        message=(
                            f"rack{rack} over cap for {streak} consecutive"
                            f" windows ({watts:.1f}W > {cap:.1f}W)"
                        ),
                    ))
            else:
                self._cap_streaks[rack] = 0
        # 2. Shed-rate spike vs the trailing-window mean.
        if self._shed_history:
            mean = sum(self._shed_history) / len(self._shed_history)
            floor = max(float(t.shed_spike_min), t.shed_spike_factor * mean)
            if inputs.shed >= floor and inputs.shed >= t.shed_spike_min:
                self._emit(AlertRecord(
                    time=inputs.time,
                    window=inputs.window,
                    detector="shed-rate-spike",
                    severity="warn",
                    subject="cluster",
                    value=float(inputs.shed),
                    threshold=floor,
                    message=(
                        f"shed {inputs.shed} requests this window"
                        f" (trailing mean {mean:.1f})"
                    ),
                ))
        self._shed_history.append(inputs.shed)
        if len(self._shed_history) > t.shed_history:
            del self._shed_history[0]
        # 3. Meter-staleness storm and 4. recalibration churn from
        # merged facility instants.
        counts = dict(inputs.instant_counts)
        stale = counts.get("meter.stale", 0)
        if stale >= t.stale_storm:
            self._emit(AlertRecord(
                time=inputs.time,
                window=inputs.window,
                detector="meter-staleness-storm",
                severity="warn",
                subject="cluster",
                value=float(stale),
                threshold=float(t.stale_storm),
                message=f"{stale} stale-meter reads in one window",
            ))
        refits = counts.get("recal.refit", 0)
        if refits >= t.recal_churn:
            self._emit(AlertRecord(
                time=inputs.time,
                window=inputs.window,
                detector="recalibration-churn",
                severity="info",
                subject="cluster",
                value=float(refits),
                threshold=float(t.recal_churn),
                message=f"{refits} recalibration refits in one window",
            ))
        self.windows_observed += 1
        return self.alerts[before:]

    # -- finalize-time detector -----------------------------------------
    def finalize(
        self, time: float, machine_rows: list
    ) -> list[AlertRecord]:
        """Attribution-vs-measured drift over the final machine table.

        ``machine_rows`` uses the coordinator's row shape:
        ``(name, completed, attributed_joules, measured_joules, ...)``.
        """
        before = len(self.alerts)
        t = self.thresholds
        for row in machine_rows:
            name, completed, attributed, measured = row[:4]
            if completed <= 0 or measured < t.drift_min_joules:
                continue
            ratio = abs(attributed - measured) / measured
            if ratio > t.drift_ratio:
                self._emit(AlertRecord(
                    time=time,
                    window=self.windows_observed,
                    detector="attribution-drift",
                    severity="warn",
                    subject=str(name),
                    value=ratio,
                    threshold=t.drift_ratio,
                    message=(
                        f"{name} attributed {attributed:.1f}J vs measured"
                        f" {measured:.1f}J ({ratio:.0%} drift)"
                    ),
                ))
        return self.alerts[before:]

    def alert_fingerprint(self) -> str:
        return alert_fingerprint(self.alerts)

    def alert_table(self) -> list[dict]:
        """Alerts as plain dicts in emission order (dashboard-ready)."""
        return [alert.to_wire() for alert in self.alerts]

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "alerts": [alert.to_wire() for alert in self.alerts],
            "cap_streaks": {
                str(rack): streak
                for rack, streak in sorted(self._cap_streaks.items())
            },
            "shed_history": list(self._shed_history),
            "windows_observed": self.windows_observed,
        }
