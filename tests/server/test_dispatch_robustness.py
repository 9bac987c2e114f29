"""Dispatcher fault tolerance: dead machines, retries, exclusion, failover.

The unit tests drive the policy eligibility logic with lightweight fakes;
the integration tests crash real cluster machines mid-run and check the
dispatcher's full self-healing loop (failover, exclusion, re-admission,
late-reply tolerance).
"""

import pytest

from repro.requests import RequestSpec
from repro.server import (
    Dispatcher,
    HeterogeneousCluster,
    MachineHeterogeneityAwarePolicy,
    NoAvailableMachine,
    SimpleLoadBalancePolicy,
    WorkloadHeterogeneityAwarePolicy,
)
from repro.hardware import SANDYBRIDGE
from repro.sim import RngHub
from repro.telemetry import MetricsRegistry
from repro.workloads import SyntheticWorkload
from repro.workloads.synthetic import StageSpec
from repro.hardware.events import RateProfile


class _FakeMachine:
    def __init__(self, name, alive=True):
        self.name = name
        self.alive = alive


class _FakeCluster:
    def __init__(self, machines):
        self.machines = machines

    def by_name(self, name):
        for m in self.machines:
            if m.name == name:
                return m
        raise KeyError(name)


class _FakeWorkload:
    name = "wl"


class _FakeDispatcher:
    def __init__(self, machines, utils):
        from repro.core.distribution import EnergyProfileTable

        self.cluster = _FakeCluster(machines)
        self._utils = utils
        self.profiles = EnergyProfileTable()

    def smoothed_utilization(self, name):
        return self._utils[name]


# ----------------------------------------------------------------------
# Policy eligibility (unit level)
# ----------------------------------------------------------------------
def test_round_robin_skips_dead_machines():
    policy = SimpleLoadBalancePolicy()
    machines = [_FakeMachine("a"), _FakeMachine("b", alive=False),
                _FakeMachine("c")]
    disp = _FakeDispatcher(machines, {})
    picks = [policy.choose(_FakeWorkload(), RequestSpec("x"), disp).name
             for _ in range(4)]
    assert picks == ["a", "c", "a", "c"]


def test_round_robin_raises_when_everything_is_dead():
    policy = SimpleLoadBalancePolicy()
    disp = _FakeDispatcher(
        [_FakeMachine("a", alive=False), _FakeMachine("b", alive=False)], {}
    )
    with pytest.raises(NoAvailableMachine):
        policy.choose(_FakeWorkload(), RequestSpec("x"), disp)


def test_machine_aware_falls_back_when_preferred_is_dead():
    policy = MachineHeterogeneityAwarePolicy("fast", "slow")
    disp = _FakeDispatcher(
        [_FakeMachine("fast", alive=False), _FakeMachine("slow")],
        {"fast": 0.1, "slow": 0.1},
    )
    assert policy.choose(_FakeWorkload(), RequestSpec("x"), disp).name == "slow"


def test_machine_aware_raises_when_both_are_dead():
    policy = MachineHeterogeneityAwarePolicy("fast", "slow")
    disp = _FakeDispatcher(
        [_FakeMachine("fast", alive=False), _FakeMachine("slow", alive=False)],
        {"fast": 0.1, "slow": 0.1},
    )
    with pytest.raises(NoAvailableMachine):
        policy.choose(_FakeWorkload(), RequestSpec("x"), disp)


def test_workload_aware_spills_back_when_fallback_is_dead():
    """Under pressure the policy would spill to the fallback; if the
    fallback is dead, the (overloaded but alive) preferred machine still
    serves rather than dropping the request."""
    policy = WorkloadHeterogeneityAwarePolicy("fast", "slow")
    disp = _FakeDispatcher(
        [_FakeMachine("fast"), _FakeMachine("slow", alive=False)],
        {"fast": 0.95, "slow": 0.1},
    )
    assert policy.choose(_FakeWorkload(), RequestSpec("x"), disp).name == "fast"


# ----------------------------------------------------------------------
# Dispatcher integration (real cluster)
# ----------------------------------------------------------------------
_PROFILE = RateProfile(name="disp-test", ipc=1.2, cache_per_cycle=0.01,
                       mem_per_cycle=0.004, hidden_watts=1.0)


def _workload():
    return SyntheticWorkload(
        name="disp-test",
        stages=[StageSpec("work", cycles=1.2e7, profile=_PROFILE)],
        demand_jitter=0.1,
        n_workers=6,
    )


def _cluster_with_dispatcher(sb_cal, rate=400.0, seed=11, **dispatcher_kwargs):
    cluster = HeterogeneousCluster()
    for name in ("m0", "m1"):
        cluster.add_machine(SANDYBRIDGE, sb_cal, name=name)
    workload = _workload()
    cluster.build_workload(workload)
    dispatcher = Dispatcher(
        cluster, [(workload, 1.0)], SimpleLoadBalancePolicy(), rate,
        RngHub(seed).stream("arrivals"), **dispatcher_kwargs,
    )
    return cluster, dispatcher


def _published(dispatcher):
    registry = MetricsRegistry()
    dispatcher.publish_metrics(registry)
    return registry.snapshot()


def test_crash_mid_run_fails_over_and_readmits(sb_cal):
    cluster, dispatcher = _cluster_with_dispatcher(sb_cal)
    sim = cluster.simulator
    victim = cluster.by_name("m1")
    sim.schedule_at(0.25, victim.crash)
    sim.schedule_at(0.6, victim.recover)
    dispatcher.start(1.0)
    sim.run_until(1.0)

    assert victim.crash_count == 1
    assert dispatcher.failed_over >= 1
    assert dispatcher.retries >= 1
    assert dispatcher.completed > 0
    # Nothing was handed to the dead machine while it was down...
    downtime = [r for r in dispatcher.results
                if r.machine_name == "m1" and 0.25 < r.arrival < 0.6]
    assert not downtime
    # ...and it serves again after recovery (re-admission).
    assert any(r.machine_name == "m1" and r.arrival >= 0.6
               for r in dispatcher.results)


def test_crashed_machines_late_reply_is_tolerated(sb_cal):
    """A request in flight on the crashing machine is failed over, but the
    dead machine's worker process still finishes and replies; the reply
    must be counted, not double-completed."""
    cluster, dispatcher = _cluster_with_dispatcher(sb_cal)
    sim = cluster.simulator
    victim = cluster.by_name("m1")
    sim.schedule_at(0.25, victim.crash)
    dispatcher.start(0.8)
    sim.run_until(0.8)
    assert dispatcher.failed_over >= 1
    # Every failed-over request's worker eventually replied late.
    assert dispatcher.late_replies >= 1
    # Failovers were re-dispatched, not silently lost: completions plus
    # still-in-flight plus explicit drops account for every dispatch.
    assert dispatcher.dropped_requests == 0


def test_total_outage_drops_requests_after_max_retries(sb_cal):
    cluster, dispatcher = _cluster_with_dispatcher(
        sb_cal, rate=300.0, max_retries=2, retry_backoff=1e-3,
    )
    sim = cluster.simulator
    for member in cluster.machines:
        sim.schedule_at(0.2, member.crash)
    dispatcher.start(0.6)
    sim.run_until(0.6)
    assert dispatcher.dispatch_failures >= 1
    assert dispatcher.dropped_requests >= 1
    # The dispatcher itself survived the outage to the end of the run.
    assert sim.now == 0.6


def test_published_dispatch_gauges_cover_the_full_schema(sb_cal):
    """``Dispatcher.publish_metrics`` is the one schema chaos reports and
    the CI overload lane read: global counters plus per-machine exclusion
    state, stable names."""
    cluster, dispatcher = _cluster_with_dispatcher(
        sb_cal, failure_threshold=2, exclusion_cooldown=0.5,
    )
    dispatcher._record_failure("m0")
    dispatcher._record_failure("m0")  # m0 now excluded
    stats = _published(dispatcher)
    for key in ("completed", "dispatch_failures", "retries",
                "dropped_requests", "failed_over", "late_replies"):
        assert f"dispatch_{key}" in stats
    assert stats["dispatch_m0_consecutive_failures"] == 2.0
    assert stats["dispatch_m0_excluded"] == 1.0
    assert stats["dispatch_m1_excluded"] == 0.0
    assert stats["dispatch_m0_dispatched"] == 0.0
    # Without an overload protector no overload gauge is published: the
    # schema reflects what is actually wired, not aspirations.
    assert not any(name.startswith("overload_") for name in stats)


def test_overload_dispatcher_serves_storms_with_exact_accounting(sb_cal):
    """End to end: an overload-protected dispatcher under 3x overload keeps
    serving, sheds/rejects the excess explicitly, and accounts for every
    arrival exactly once."""
    from repro.server import OverloadConfig, OverloadProtector

    protector = OverloadProtector(OverloadConfig(
        max_inflight=3, queue_depth=4, bucket_rate=300.0,
        bucket_capacity=10.0, deadline_budget=0.1,
    ))
    cluster, dispatcher = _cluster_with_dispatcher(
        sb_cal, rate=1200.0, overload=protector,
    )
    dispatcher.start(0.5)
    cluster.simulator.run_until(0.5)
    assert dispatcher.completed > 0
    assert protector.rejected + protector.shed > 0
    assert protector.completed == dispatcher.completed
    assert protector.accounting_gap() == 0
    stats = _published(dispatcher)
    assert stats["overload_arrivals"] == float(protector.arrivals)
    assert stats["overload_accounting_gap"] == 0.0
    assert "overload_m0_breaker_state" in stats


def test_overload_breaker_composes_with_exclusion_in_is_dispatchable(sb_cal):
    """Both PR 2's health exclusion and the circuit breaker must admit a
    machine; either one alone blocks dispatch to it."""
    from repro.server import OverloadConfig, OverloadProtector

    protector = OverloadProtector(OverloadConfig(
        breaker_failure_threshold=2, breaker_reset_timeout=10.0,
    ))
    cluster, dispatcher = _cluster_with_dispatcher(
        sb_cal, overload=protector, failure_threshold=5,
    )
    member = cluster.by_name("m0")
    # Two failures trip the breaker (threshold 2) while staying below the
    # dispatcher's own exclusion threshold (5): the breaker alone blocks.
    dispatcher._record_failure("m0")
    dispatcher._record_failure("m0")
    assert dispatcher._health["m0"].excluded_until is None
    assert not dispatcher.is_dispatchable(member)
    # A success closes the breaker and the machine is dispatchable again.
    dispatcher._record_success("m0")
    assert dispatcher.is_dispatchable(member)


def test_failure_exclusion_and_cooldown_probe(sb_cal):
    cluster, dispatcher = _cluster_with_dispatcher(
        sb_cal, failure_threshold=2, exclusion_cooldown=0.1,
    )
    member = cluster.by_name("m0")
    dispatcher._record_failure("m0")
    assert dispatcher.is_dispatchable(member)  # below threshold
    dispatcher._record_failure("m0")
    assert not dispatcher.is_dispatchable(member)  # excluded
    cluster.simulator.run_until(0.15)  # let the cooldown expire
    assert dispatcher.is_dispatchable(member)  # probe re-admits
    dispatcher._record_success("m0")
    assert dispatcher._health["m0"].consecutive_failures == 0
