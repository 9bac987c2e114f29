"""Unit tests for admission control, shedding, and circuit breaking.

Everything here drives :mod:`repro.server.overload` directly with explicit
``now`` floats -- no simulator, no cluster -- so each admission gate and the
accounting identity can be pinned down in isolation.  The end-to-end
behaviour under real traffic lives in ``test_dispatch_robustness.py`` and
the chaos scenarios.
"""

import pytest

from repro.requests import RequestSpec
from repro.server.overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DECISION_ADMIT,
    DECISION_QUEUE,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    CircuitBreaker,
    OverloadConfig,
    OverloadProtector,
    TokenBucket,
)
from repro.sim import RngHub
from repro.telemetry import MetricsRegistry


class _Workload:
    name = "wl"


def _spec(priority=0, deadline=None, rtype="q"):
    return RequestSpec(rtype, priority=priority, deadline=deadline)


def _protector(**overrides):
    """A protector whose token bucket never interferes unless asked to."""
    defaults = dict(
        max_inflight=2, queue_depth=2, bucket_rate=1e6, bucket_capacity=1e6,
        deadline_budget=None,
    )
    defaults.update(overrides)
    protector = OverloadProtector(OverloadConfig(**defaults))
    protector.bind(["m0"])
    return protector


def _arrive(protector, now=0.0, **spec_kwargs):
    return protector.register_arrival(_spec(**spec_kwargs), now)


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, capacity=10.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=10.0, capacity=-1.0)


def test_token_bucket_burst_then_deny_then_lazy_refill():
    bucket = TokenBucket(rate=10.0, capacity=2.0)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)  # burst capacity spent
    assert bucket.accepted == 2 and bucket.denied == 1
    # No timer events: tokens reappear purely from the elapsed sim time.
    assert bucket.try_take(0.1)  # 0.1 s * 10/s = 1 token
    assert not bucket.try_take(0.1)
    # Refill clamps at capacity no matter how long the idle gap was.
    bucket.refill(100.0)
    assert bucket.tokens == pytest.approx(2.0)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(half_open_probes=0)
    with pytest.raises(ValueError):
        CircuitBreaker(reset_timeout=0.0)


def test_breaker_opens_after_threshold_and_recovers_via_half_open():
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=0.1,
                             half_open_probes=1)
    breaker.record_failure(0.0)
    assert breaker.state == BREAKER_CLOSED and breaker.allow(0.0)
    breaker.record_failure(0.01)
    assert breaker.state == BREAKER_OPEN and breaker.opened_count == 1
    assert not breaker.allow(0.05)  # still inside the reset timeout
    # After the timeout the next query transitions to half-open...
    assert breaker.allow(0.2)
    assert breaker.state == BREAKER_HALF_OPEN
    # ...with a bounded probe budget consumed by actual dispatch attempts.
    breaker.note_attempt()
    assert not breaker.allow(0.2)  # single probe spent
    breaker.record_success(0.25)
    assert breaker.state == BREAKER_CLOSED and breaker.closed_count == 1
    assert breaker.allow(0.3)


def test_breaker_failure_during_half_open_reopens_immediately():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=0.1)
    for _ in range(3):
        breaker.record_failure(0.0)
    assert breaker.allow(0.2)  # half-open
    breaker.record_failure(0.2)  # probe failed: one strike re-opens
    assert breaker.state == BREAKER_OPEN and breaker.opened_count == 2
    assert not breaker.allow(0.25)
    assert breaker.state_code == 2.0


# ----------------------------------------------------------------------
# OverloadConfig
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    dict(max_inflight=0),
    dict(queue_depth=-1),
    dict(bucket_rate=0.0),
    dict(bucket_capacity=-5.0),
    dict(deadline_budget=0.0),
    dict(n_priorities=0),
])
def test_overload_config_validation(bad):
    with pytest.raises(ValueError):
        OverloadConfig(**bad)


# ----------------------------------------------------------------------
# OverloadProtector: arrival classification
# ----------------------------------------------------------------------
def test_register_arrival_stamps_deadline_and_draws_priority():
    protector = OverloadProtector(
        OverloadConfig(deadline_budget=0.25, n_priorities=3),
        priority_rng=RngHub(7).stream("priorities"),
    )
    tickets = [protector.register_arrival(_spec(), now=1.0) for _ in range(32)]
    assert [t.arrival_id for t in tickets] == list(range(32))
    assert all(t.spec.deadline == pytest.approx(1.25) for t in tickets)
    assert {t.spec.priority for t in tickets} == {0, 1, 2}


def test_register_arrival_preserves_explicit_deadline():
    protector = _protector(deadline_budget=0.25)
    ticket = protector.register_arrival(_spec(deadline=9.0), now=1.0)
    assert ticket.spec.deadline == 9.0


# ----------------------------------------------------------------------
# OverloadProtector: admission gates, in gate order
# ----------------------------------------------------------------------
def test_brownout_level3_rejects_everything():
    protector = _protector()
    protector.brownout_level = 3
    ticket = _arrive(protector, priority=2)
    assert protector.admit(_Workload(), ticket, "m0", 0.0) == OUTCOME_REJECTED
    assert protector.shed_log[-1].reason == "brownout-reject"
    assert protector.rejected == 1


def test_brownout_level2_sheds_only_below_priority_floor():
    protector = _protector(shed_floor_priority=1)
    protector.brownout_level = 2
    low = _arrive(protector, priority=0)
    high = _arrive(protector, priority=1)
    assert protector.admit(_Workload(), low, "m0", 0.0) == OUTCOME_SHED
    assert protector.shed_log[-1].reason == "brownout-shed"
    assert protector.admit(_Workload(), high, "m0", 0.0) == DECISION_ADMIT


def test_expired_deadline_is_shed_at_admission():
    protector = _protector()
    ticket = protector.register_arrival(_spec(deadline=0.5), now=0.0)
    assert protector.admit(_Workload(), ticket, "m0", 0.6) == OUTCOME_SHED
    assert protector.shed_log[-1].reason == "deadline"
    assert protector.deadline_sheds == 1


def test_open_breaker_rejects_at_the_door():
    protector = _protector()
    for _ in range(protector.config.breaker_failure_threshold):
        protector.on_machine_failure("m0", 0.0)
    assert not protector.machine_available("m0", 0.0)
    ticket = _arrive(protector)
    assert protector.admit(_Workload(), ticket, "m0", 0.0) == OUTCOME_REJECTED
    assert protector.shed_log[-1].reason == "circuit-open"


def test_empty_token_bucket_rejects():
    protector = _protector(bucket_rate=1.0, bucket_capacity=1.0)
    first, second = _arrive(protector), _arrive(protector)
    assert protector.admit(_Workload(), first, "m0", 0.0) == DECISION_ADMIT
    assert protector.admit(_Workload(), second, "m0", 0.0) == OUTCOME_REJECTED
    assert protector.shed_log[-1].reason == "token-bucket"
    assert protector.machines["m0"].bucket.denied == 1


def test_admit_queue_and_queue_full_shed():
    protector = _protector(max_inflight=1, queue_depth=1)
    wl = _Workload()
    a, b, c = (_arrive(protector) for _ in range(3))
    assert protector.admit(wl, a, "m0", 0.0) == DECISION_ADMIT
    protector.note_inject("m0", a)
    assert protector.admit(wl, b, "m0", 0.0) == DECISION_QUEUE
    # Queue full and the newcomer does not outrank anyone: it is shed.
    assert protector.admit(wl, c, "m0", 0.0) == OUTCOME_SHED
    assert protector.shed_log[-1].reason == "queue-full"
    assert protector.accounting_gap() == 0


def test_priority_eviction_displaces_lowest_priority_waiter():
    protector = _protector(max_inflight=1, queue_depth=1)
    wl = _Workload()
    serving = _arrive(protector, priority=0)
    waiter = _arrive(protector, priority=0)
    vip = _arrive(protector, priority=2)
    assert protector.admit(wl, serving, "m0", 0.0) == DECISION_ADMIT
    protector.note_inject("m0", serving)
    assert protector.admit(wl, waiter, "m0", 0.0) == DECISION_QUEUE
    assert protector.admit(wl, vip, "m0", 0.0) == DECISION_QUEUE
    shed = protector.shed_log[-1]
    assert shed.arrival_id == waiter.arrival_id
    assert shed.reason == "priority-evicted"
    assert protector.machines["m0"].evictions == 1
    # The VIP now holds the only queue slot.
    assert protector.machines["m0"].queue[0].ticket is vip


# ----------------------------------------------------------------------
# OverloadProtector: serving lifecycle + accounting identity
# ----------------------------------------------------------------------
def test_completion_drains_queue_and_sheds_expired_waiters():
    protector = _protector(max_inflight=1, queue_depth=2)
    wl = _Workload()
    serving = _arrive(protector)
    stale = protector.register_arrival(_spec(deadline=0.1), now=0.0)
    fresh = protector.register_arrival(_spec(deadline=9.0), now=0.0)
    protector.admit(wl, serving, "m0", 0.0)
    protector.note_inject("m0", serving)
    assert protector.admit(wl, stale, "m0", 0.0) == DECISION_QUEUE
    assert protector.admit(wl, fresh, "m0", 0.0) == DECISION_QUEUE
    # The slot frees after the stale waiter's deadline: it is shed at
    # dequeue (never served late) and the fresh one is handed back.
    ready = protector.on_complete("m0", now=0.5)
    assert [e.ticket.arrival_id for e in ready] == [fresh.arrival_id]
    assert protector.shed_log[-1].arrival_id == stale.arrival_id
    assert protector.shed_log[-1].reason == "deadline"
    for entry in ready:
        protector.note_inject("m0", entry.ticket)
    assert protector.accounting_gap() == 0


def test_accounting_identity_through_mixed_outcomes():
    protector = _protector(max_inflight=1, queue_depth=1)
    wl = _Workload()
    outcomes = []
    for _ in range(6):
        ticket = _arrive(protector)
        decision = protector.admit(wl, ticket, "m0", 0.0)
        if decision == DECISION_ADMIT:
            protector.note_inject("m0", ticket)
        outcomes.append(decision)
    # 1 admitted, 1 queued, 4 shed (queue full, equal priorities).
    assert outcomes.count(DECISION_ADMIT) == 1
    assert outcomes.count(DECISION_QUEUE) == 1
    assert outcomes.count(OUTCOME_SHED) == 4
    assert protector.pending() == 2
    assert protector.accounting_gap() == 0
    # The freed slot drains the queue; the drained ticket is injected and
    # stays pending, so arrivals == completed + shed + pending throughout.
    for entry in protector.on_complete("m0", 0.0):
        protector.note_inject("m0", entry.ticket)
    assert protector.accounting_gap() == 0
    # A retry backoff keeps its ticket pending, not lost.
    protector.note_retry_scheduled()
    extra = _arrive(protector)
    assert protector.accounting_gap() == 0
    protector.note_retry_fired()
    protector.reject(extra, "retries-exhausted", 1.0)
    assert protector.accounting_gap() == 0
    assert protector.shed_log[-1].reason == "retries-exhausted"


def test_failover_and_queue_eviction_return_tickets():
    protector = _protector(max_inflight=1, queue_depth=2)
    wl = _Workload()
    serving, w1, w2 = (_arrive(protector) for _ in range(3))
    protector.admit(wl, serving, "m0", 0.0)
    protector.note_inject("m0", serving)
    protector.admit(wl, w1, "m0", 0.0)
    protector.admit(wl, w2, "m0", 0.0)
    # Crash: the in-flight slot frees, the queue is handed back whole.
    protector.on_failover("m0")
    entries = protector.evict_queue("m0")
    assert [e.ticket.arrival_id for e in entries] == [
        w1.arrival_id, w2.arrival_id,
    ]
    assert protector.queued_now() == 0 and protector.inflight_now() == 0
    # The stranded ticket carries its injection count into any terminal
    # outcome: partial energy was really burned on the dead machine.
    protector.reject(serving, "retries-exhausted", 1.0)
    assert protector.shed_log[-1].injections == 1


# ----------------------------------------------------------------------
# Fingerprint + stats export
# ----------------------------------------------------------------------
def _scripted_run(flip_priority=False):
    protector = _protector(max_inflight=1, queue_depth=0)
    wl = _Workload()
    for i in range(4):
        priority = (i % 2) if not flip_priority else ((i + 1) % 2)
        ticket = _arrive(protector, priority=priority)
        if protector.admit(wl, ticket, "m0", 0.0) == DECISION_ADMIT:
            protector.note_inject("m0", ticket)
    return protector


def test_shed_fingerprint_is_stable_and_outcome_sensitive():
    assert _scripted_run().shed_fingerprint() == \
        _scripted_run().shed_fingerprint()
    assert _scripted_run().shed_fingerprint() != \
        _scripted_run(flip_priority=True).shed_fingerprint()


def test_published_overload_gauges():
    protector = _scripted_run()
    registry = MetricsRegistry()
    protector.publish_metrics(registry)
    stats = registry.snapshot()
    assert stats["overload_arrivals"] == 4.0
    assert stats["overload_admitted"] == 1.0
    assert stats["overload_shed"] == 3.0
    assert stats["overload_accounting_gap"] == 0.0
    # The digest is 48 bits so the float round-trip is exact.
    assert stats["overload_shed_fingerprint"] == float(
        int(protector.shed_fingerprint(), 16)
    )
    for key in ("m0_breaker_state", "m0_breaker_opened", "m0_bucket_denied",
                "m0_queue_peak", "m0_queue_evictions"):
        assert f"overload_{key}" in stats
    assert all(name.startswith("overload_") for name in stats)
