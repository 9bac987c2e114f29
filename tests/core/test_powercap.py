"""Unit tests for the cluster power-cap enforcer and its brownout ladder.

The enforcer is exercised against a fake two-machine cluster whose power
draw is set directly by the test, so every ladder transition (escalation
rate, hysteresis band, degraded-telemetry cap) can be provoked exactly.
The closed loop against real machines runs in the chaos scenarios
(``cap-squeeze``) and the CLI demo.
"""

import pytest

from repro.core.powercap import (
    BROWNOUT_LADDER,
    PowerCapEnforcer,
)
from repro.server.overload import OverloadProtector
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry

INTERVAL = 0.02


class _FakeKernel:
    machine = None  # the conditioner's budget math is not driven here


class _FakeHealth:
    def __init__(self):
        self.meter_state = "ok"


class _FakeFacility:
    def __init__(self):
        self.health = _FakeHealth()
        self.conditioner = None

    def attach_conditioner(self, conditioner):
        self.conditioner = conditioner


class _FakeIntegrator:
    def __init__(self):
        self.active_joules = 0.0


class _FakeMachine:
    """Ground-truth integrator whose draw the test sets directly."""

    def __init__(self, sim):
        self._sim = sim
        self.integrator = _FakeIntegrator()
        self.watts = 0.0
        self._last = 0.0

    def checkpoint(self):
        now = self._sim.now
        self.integrator.active_joules += self.watts * (now - self._last)
        self._last = now


class _FakeMember:
    def __init__(self, name, sim):
        self.name = name
        self.machine = _FakeMachine(sim)
        self.kernel = _FakeKernel()
        self.facility = _FakeFacility()
        self.alive = True


class _FakeCluster:
    def __init__(self, names=("m0", "m1")):
        self.simulator = Simulator()
        self.machines = [_FakeMember(n, self.simulator) for n in names]


def _world(**kwargs):
    cluster = _FakeCluster()
    protector = kwargs.pop("protector", OverloadProtector())
    enforcer = PowerCapEnforcer(
        cluster, kwargs.pop("cap_watts", 100.0), protector=protector,
        interval=INTERVAL, **kwargs,
    )
    return cluster, protector, enforcer


def _set_watts(cluster, per_machine_watts):
    """Checkpoint, then change the draw (clean interval boundaries)."""
    for member in cluster.machines:
        member.machine.checkpoint()
        member.machine.watts = per_machine_watts


def _run_ticks(cluster, n):
    cluster.simulator.run_until(cluster.simulator.now + n * INTERVAL + 1e-6)


def test_parameter_validation():
    cluster = _FakeCluster()
    with pytest.raises(ValueError):
        PowerCapEnforcer(cluster, cap_watts=0.0)
    with pytest.raises(ValueError):
        PowerCapEnforcer(cluster, 100.0, interval=0.0)
    with pytest.raises(ValueError):
        PowerCapEnforcer(cluster, 100.0, step_down_headroom=1.5)
    with pytest.raises(ValueError):
        PowerCapEnforcer(cluster, 100.0, hold_intervals=0)
    with pytest.raises(ValueError):
        PowerCapEnforcer(cluster, 100.0, degraded_cap_fraction=0.0)


def test_escalates_one_rung_per_interval_to_full_rejection():
    cluster, protector, enforcer = _world(hold_intervals=2)
    enforcer.start()
    _set_watts(cluster, 80.0)  # 160 W total, cap 100
    _run_ticks(cluster, 3)
    assert enforcer.level == 3
    assert BROWNOUT_LADDER[enforcer.level] == "reject"
    assert enforcer.escalations == 3
    assert [t.direction for t in enforcer.transitions] == ["up"] * 3
    assert [t.level for t in enforcer.transitions] == [1, 2, 3]
    assert protector.brownout_level == 3
    # At rung >= 1 every alive machine gets an equal share of the cap.
    for member in cluster.machines:
        assert member.facility.conditioner.target_active_watts == \
            pytest.approx(50.0)
    assert enforcer.max_consecutive_over >= 3


def test_steps_down_with_hysteresis_after_load_drops():
    cluster, protector, enforcer = _world(hold_intervals=2)
    enforcer.start()
    _set_watts(cluster, 80.0)
    _run_ticks(cluster, 3)  # level 3 (previous test's ramp)
    _set_watts(cluster, 10.0)  # 20 W total, far below 85 W headroom
    _run_ticks(cluster, 2)
    assert enforcer.level == 2  # one rung down per hold_intervals
    _run_ticks(cluster, 4)
    assert enforcer.level == 0
    assert protector.brownout_level == 0
    assert enforcer.deescalations == 3
    # Back at full speed the conditioners idle again.
    for member in cluster.machines:
        assert member.facility.conditioner.target_active_watts == float("inf")


def test_hysteresis_band_holds_the_current_rung():
    cluster, _, enforcer = _world(hold_intervals=1)
    enforcer.start()
    _set_watts(cluster, 60.0)  # 120 W > 100 W: escalate once
    _run_ticks(cluster, 1)
    assert enforcer.level == 1
    # 90 W total is under the cap but above the 85 W step-down threshold:
    # the ladder must hold, not oscillate at the boundary.
    _set_watts(cluster, 45.0)
    _run_ticks(cluster, 5)
    assert enforcer.level == 1
    assert enforcer.deescalations == 0
    _set_watts(cluster, 25.0)  # 50 W, clearly under the headroom
    _run_ticks(cluster, 1)
    assert enforcer.level == 0
    assert enforcer.deescalations == 1


def test_stale_meter_forces_conservative_cap():
    cluster, _, enforcer = _world(degraded_cap_fraction=0.6, hold_intervals=1)
    enforcer.start()
    # 70 W total: comfortably under the 100 W cap with healthy telemetry...
    cluster.machines[0].facility.health.meter_state = "stale"
    _set_watts(cluster, 35.0)
    _run_ticks(cluster, 1)
    # ...but over the degraded 60 W cap, so the enforcer throttles.
    assert enforcer.degraded
    assert enforcer.effective_cap() == pytest.approx(60.0)
    assert enforcer.level == 1
    assert enforcer.degraded_intervals == 1
    assert cluster.machines[0].facility.conditioner.target_active_watts == \
        pytest.approx(30.0)
    # Telemetry recovers: the nominal cap returns and the rung releases.
    cluster.machines[0].facility.health.meter_state = "ok"
    _run_ticks(cluster, 1)
    assert not enforcer.degraded
    assert enforcer.effective_cap() == pytest.approx(100.0)
    assert enforcer.level == 0  # 70 W < 85 W headroom


def test_without_protector_ladder_stops_at_conditioning():
    cluster = _FakeCluster()
    enforcer = PowerCapEnforcer(cluster, 100.0, protector=None,
                                interval=INTERVAL)
    enforcer.start()
    _set_watts(cluster, 80.0)
    _run_ticks(cluster, 5)
    assert enforcer.level == 1  # shedding/rejection need a protector
    assert enforcer.escalations == 1
    assert enforcer.over_cap_intervals == 5


def test_dead_machines_do_not_dilute_the_cap_share():
    cluster, _, enforcer = _world()
    enforcer.start()
    cluster.machines[1].alive = False
    _set_watts(cluster, 120.0)
    _run_ticks(cluster, 1)
    # The whole effective cap goes to the lone survivor.
    assert cluster.machines[0].facility.conditioner.target_active_watts == \
        pytest.approx(100.0)


def test_published_powercap_gauges():
    cluster, _, enforcer = _world()
    enforcer.start()
    _set_watts(cluster, 80.0)
    _run_ticks(cluster, 2)
    registry = MetricsRegistry()
    enforcer.publish_metrics(registry)
    stats = registry.snapshot()
    assert stats["powercap_level"] == 2.0
    assert stats["powercap_cap_watts"] == 100.0
    assert stats["powercap_ticks"] == 2.0
    assert stats["powercap_escalations"] == 2.0
    assert stats["powercap_measured_watts"] == pytest.approx(160.0)
    for key in ("powercap_effective_cap", "powercap_deescalations",
                "powercap_over_cap_intervals", "powercap_max_consecutive_over",
                "powercap_degraded_intervals", "powercap_degraded",
                "powercap_transitions", "powercap_conditioner_adjustments"):
        assert key in stats
    assert all(name.startswith("powercap_") for name in stats)
