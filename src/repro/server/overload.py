"""Overload protection: admission control, load shedding, brownouts.

The ROADMAP's north star is a production-scale cluster under heavy traffic,
which means demand routinely *exceeds* capacity -- a regime PR 2's fault
tolerance (crashes, flaky meters) says nothing about.  This module makes
degradation a first-class, policy-driven mode instead of an emergent
failure:

* :class:`TokenBucket` -- per-machine admission rate limiting on the
  simulated clock (lazy refill, no wall clock, bit-reproducible);
* :class:`CircuitBreaker` -- a closed/open/half-open state machine per
  machine that *composes* with the dispatcher's PR 2 health-based exclusion
  (both are consulted by ``Dispatcher.is_dispatchable``);
* bounded per-machine **admission queues** with priority-aware eviction:
  when the queue is full, a high-priority arrival displaces the oldest
  lowest-priority waiter rather than being turned away;
* per-request **deadlines** propagated through
  :class:`~repro.requests.RequestSpec`: a request whose deadline has
  already passed is shed at admission or at dequeue, never served late;
* explicit :class:`ShedResult` outcomes -- every arrival terminates in
  exactly one of ``completed`` / ``shed`` / ``rejected``, with the shed set
  itself fingerprintable for the determinism gate.

The cluster-level brownout ladder (:mod:`repro.core.powercap`) drives the
``brownout_level`` attribute: at level 2 low-priority arrivals are shed, at
level 3 everything is rejected at admission.

All of this is opt-in: a :class:`~repro.server.dispatch.Dispatcher` without
an :class:`OverloadProtector` behaves exactly as before.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.requests import RequestSpec

#: Terminal outcomes an arrival can reach besides completion.
OUTCOME_SHED = "shed"
OUTCOME_REJECTED = "rejected"

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

_BREAKER_STATE_CODES = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0,
                        BREAKER_OPEN: 2.0}


class TokenBucket:
    """A deterministic token bucket on the simulated clock.

    Refill is computed lazily from elapsed simulated time, so the bucket
    needs no timer events and two identically-seeded runs take identical
    admission decisions.
    """

    def __init__(
        self, rate: float, capacity: float, initial: Optional[float] = None
    ) -> None:
        if rate <= 0 or capacity <= 0:
            raise ValueError("token bucket rate and capacity must be positive")
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity if initial is None else min(initial, capacity)
        self._last_refill = 0.0
        self.accepted = 0
        self.denied = 0

    def refill(self, now: float) -> None:
        """Bring the token count current as of ``now``."""
        if now > self._last_refill:
            self.tokens = min(
                self.capacity, self.tokens + (now - self._last_refill) * self.rate
            )
            self._last_refill = now

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; count the decision."""
        self.refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            self.accepted += 1
            return True
        self.denied += 1
        return False

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "tokens": self.tokens,
            "last_refill": self._last_refill,
            "accepted": self.accepted,
            "denied": self.denied,
        }


class CircuitBreaker:
    """Closed -> open -> half-open breaker guarding one machine.

    ``failure_threshold`` consecutive failures open the breaker; after
    ``reset_timeout`` simulated seconds the next :meth:`allow` query moves
    it to half-open, where at most ``half_open_probes`` dispatch attempts
    (noted via :meth:`note_attempt`) may probe the machine.  One recorded
    success closes the breaker; one failure re-opens it.

    This composes with the dispatcher's PR 2 exclusion window rather than
    replacing it: ``Dispatcher.is_dispatchable`` requires *both* the health
    window and the breaker to admit the machine.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 0.25,
        half_open_probes: int = 2,
    ) -> None:
        if failure_threshold < 1 or half_open_probes < 1:
            raise ValueError("breaker thresholds must be at least 1")
        if reset_timeout <= 0:
            raise ValueError("breaker reset timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self.state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_used = 0
        self.opened_count = 0
        self.closed_count = 0

    def allow(self, now: float) -> bool:
        """True when a dispatch to the guarded machine may proceed."""
        if self.state == BREAKER_OPEN:
            if now - self._opened_at >= self.reset_timeout:
                self.state = BREAKER_HALF_OPEN
                self._probes_used = 0
            else:
                return False
        if self.state == BREAKER_HALF_OPEN:
            return self._probes_used < self.half_open_probes
        return True

    def note_attempt(self) -> None:
        """Record that a dispatch attempt was actually made (probe budget)."""
        if self.state == BREAKER_HALF_OPEN:
            self._probes_used += 1

    def record_success(self, now: float) -> None:
        """A request served by the machine completed."""
        self._consecutive_failures = 0
        if self.state != BREAKER_CLOSED:
            self.closed_count += 1
            self.state = BREAKER_CLOSED

    def record_failure(self, now: float) -> None:
        """A dispatch to the machine failed (crash, dead pick, ...)."""
        self._consecutive_failures += 1
        tripped = (
            self.state == BREAKER_HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        )
        if tripped and self.state != BREAKER_OPEN:
            self.state = BREAKER_OPEN
            self._opened_at = now
            self.opened_count += 1

    @property
    def state_code(self) -> float:
        """Numeric state for stats export (0 closed, 1 half-open, 2 open)."""
        return _BREAKER_STATE_CODES[self.state]

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "opened_at": self._opened_at,
            "probes_used": self._probes_used,
            "opened_count": self.opened_count,
            "closed_count": self.closed_count,
        }


@dataclass(frozen=True)
class ShedResult:
    """One arrival's terminal non-completion outcome, fully explicit.

    ``injections`` is how many times the request had been injected into a
    machine before this terminal outcome: 0 means it was turned away before
    ever minting a container (and therefore contributed zero attributed
    energy); >0 means it ran partially (e.g. its machine crashed and
    re-admission then refused it).
    """

    arrival_id: int
    rtype: str
    priority: int
    outcome: str  # OUTCOME_SHED | OUTCOME_REJECTED
    reason: str
    machine: str  # "" for cluster-wide decisions
    at: float
    injections: int = 0


@dataclass
class AdmissionTicket:
    """One arrival's identity as it flows through admission and retries."""

    arrival_id: int
    spec: RequestSpec
    arrived_at: float
    #: Times this request was injected into a machine (0 until admitted).
    injections: int = 0


@dataclass(frozen=True)
class OverloadConfig:
    """Tunables of the overload-protection subsystem (per machine)."""

    #: Concurrent admitted-and-injected requests per machine before queueing.
    max_inflight: int = 8
    #: Bounded admission queue depth per machine.
    queue_depth: int = 12
    #: Token-bucket refill rate (requests/second) per machine.
    bucket_rate: float = 400.0
    #: Token-bucket burst capacity per machine.
    bucket_capacity: float = 24.0
    #: Seconds from arrival to deadline (None disables deadlines).
    deadline_budget: Optional[float] = 0.25
    #: Number of priority classes drawn for unclassified arrivals.
    n_priorities: int = 3
    #: Brownout level 2 sheds arrivals with priority strictly below this.
    shed_floor_priority: int = 1
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 0.25
    breaker_half_open_probes: int = 2

    def __post_init__(self) -> None:
        if self.max_inflight < 1 or self.queue_depth < 0:
            raise ValueError("max_inflight must be >= 1 and queue_depth >= 0")
        if self.bucket_rate <= 0 or self.bucket_capacity <= 0:
            raise ValueError("token bucket parameters must be positive")
        if self.deadline_budget is not None and self.deadline_budget <= 0:
            raise ValueError("deadline budget must be positive (or None)")
        if self.n_priorities < 1:
            raise ValueError("need at least one priority class")


@dataclass
class _QueueEntry:
    ticket: AdmissionTicket
    workload: object
    enqueued_at: float


class _MachineAdmission:
    """Per-machine admission state: bucket, breaker, bounded queue."""

    def __init__(self, name: str, config: OverloadConfig) -> None:
        self.name = name
        self.bucket = TokenBucket(config.bucket_rate, config.bucket_capacity)
        self.breaker = CircuitBreaker(
            config.breaker_failure_threshold,
            config.breaker_reset_timeout,
            config.breaker_half_open_probes,
        )
        self.queue: list[_QueueEntry] = []
        self.inflight = 0
        self.queue_peak = 0
        self.evictions = 0


#: Admission decisions returned by :meth:`OverloadProtector.admit`.
DECISION_ADMIT = "admit"
DECISION_QUEUE = "queue"
DECISION_SHED = OUTCOME_SHED
DECISION_REJECT = OUTCOME_REJECTED


class OverloadProtector:
    """Cluster-wide overload-protection state attached to a dispatcher.

    The dispatcher calls :meth:`register_arrival` once per arriving
    request, :meth:`admit` after the placement policy picked a machine,
    :meth:`note_inject` / :meth:`on_complete` / :meth:`on_failover` as the
    request moves through serving, and :meth:`machine_available` from
    ``is_dispatchable`` so placement policies see the circuit breakers.

    Every arrival reaches exactly one terminal state:
    ``completed + shed + rejected + pending() == arrivals`` at all times,
    where ``pending()`` counts requests still queued, in flight, or waiting
    in a retry backoff.  The chaos harness asserts this identity.
    """

    def __init__(
        self,
        config: Optional[OverloadConfig] = None,
        priority_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config if config is not None else OverloadConfig()
        self.priority_rng = priority_rng
        #: Optional :class:`~repro.telemetry.Telemetry` handle (settable;
        #: the dispatcher propagates its own).  ``None`` keeps the
        #: admission pipeline byte-identical.
        self.telemetry = None
        #: Brownout ladder rung, driven by repro.core.powercap (0..3).
        self.brownout_level = 0
        self.machines: dict[str, _MachineAdmission] = {}
        self.shed_log: list[ShedResult] = []
        self.arrivals = 0
        self.admitted = 0  # admit decisions that led to an injection slot
        self.injections = 0
        self.completed = 0
        self.shed = 0
        self.rejected = 0
        self.queued_total = 0
        self.retry_pending = 0
        self.deadline_sheds = 0

    # ------------------------------------------------------------------
    # Binding & arrival classification
    # ------------------------------------------------------------------
    def bind(self, machine_names: list[str]) -> None:
        """Create per-machine admission state (called by the dispatcher)."""
        for name in machine_names:
            if name not in self.machines:
                self.machines[name] = _MachineAdmission(name, self.config)

    def register_arrival(self, spec: RequestSpec, now: float) -> AdmissionTicket:
        """Mint the arrival's ticket: priority class + absolute deadline."""
        arrival_id = self.arrivals
        self.arrivals += 1
        priority = spec.priority
        if self.priority_rng is not None:
            priority = int(self.priority_rng.integers(0, self.config.n_priorities))
        deadline = spec.deadline
        if deadline is None and self.config.deadline_budget is not None:
            deadline = now + self.config.deadline_budget
        spec = replace(spec, priority=priority, deadline=deadline)
        return AdmissionTicket(arrival_id=arrival_id, spec=spec, arrived_at=now)

    # ------------------------------------------------------------------
    # Admission pipeline
    # ------------------------------------------------------------------
    def admit(
        self, workload, ticket: AdmissionTicket, machine_name: str, now: float
    ) -> str:
        """Decide one arrival's fate at one machine.

        Returns one of ``admit`` / ``queue`` / ``shed`` / ``rejected``;
        the latter two are terminal and recorded in :attr:`shed_log`.
        """
        machine = self.machines[machine_name]
        spec = ticket.spec
        # Cluster-wide brownout gates first: they are the cheapest and the
        # most intentional ("the operator chose this degradation").
        if self.brownout_level >= 3:
            return self._terminal(
                ticket, OUTCOME_REJECTED, "brownout-reject", machine_name, now
            )
        if (
            self.brownout_level >= 2
            and spec.priority < self.config.shed_floor_priority
        ):
            return self._terminal(
                ticket, OUTCOME_SHED, "brownout-shed", machine_name, now
            )
        if spec.deadline is not None and now > spec.deadline:
            return self._terminal(
                ticket, OUTCOME_SHED, "deadline", machine_name, now
            )
        # Placement policies consult machine_available(), but a retry can
        # still race the breaker opening; re-check at the door.
        if not machine.breaker.allow(now):
            return self._terminal(
                ticket, OUTCOME_REJECTED, "circuit-open", machine_name, now
            )
        if not machine.bucket.try_take(now):
            return self._terminal(
                ticket, OUTCOME_REJECTED, "token-bucket", machine_name, now
            )
        if machine.inflight < self.config.max_inflight:
            self.admitted += 1
            return DECISION_ADMIT
        if len(machine.queue) < self.config.queue_depth:
            self._enqueue(machine, workload, ticket, now)
            return DECISION_QUEUE
        # Queue full: priority-aware shedding.  Displace the oldest
        # lowest-priority waiter when the arrival outranks it (a zero-depth
        # queue has no waiters to displace: straight to shedding).
        if machine.queue:
            victim_index = min(
                range(len(machine.queue)),
                key=lambda i: machine.queue[i].ticket.spec.priority,
            )
            victim = machine.queue[victim_index]
            if victim.ticket.spec.priority < spec.priority:
                machine.queue.pop(victim_index)
                machine.evictions += 1
                self._terminal(
                    victim.ticket, OUTCOME_SHED, "priority-evicted",
                    machine_name, now,
                )
                self._enqueue(machine, workload, ticket, now)
                return DECISION_QUEUE
        return self._terminal(
            ticket, OUTCOME_SHED, "queue-full", machine_name, now
        )

    def _enqueue(
        self, machine: _MachineAdmission, workload, ticket: AdmissionTicket,
        now: float,
    ) -> None:
        machine.queue.append(_QueueEntry(ticket, workload, now))
        self.queued_total += 1
        machine.queue_peak = max(machine.queue_peak, len(machine.queue))

    def _terminal(
        self,
        ticket: AdmissionTicket,
        outcome: str,
        reason: str,
        machine_name: str,
        now: float,
    ) -> str:
        self.shed_log.append(ShedResult(
            arrival_id=ticket.arrival_id,
            rtype=ticket.spec.rtype,
            priority=ticket.spec.priority,
            outcome=outcome,
            reason=reason,
            machine=machine_name,
            at=now,
            injections=ticket.injections,
        ))
        if outcome == OUTCOME_SHED:
            self.shed += 1
            if reason == "deadline":
                self.deadline_sheds += 1
        else:
            self.rejected += 1
        t = self.telemetry
        if t is not None:
            t.tracer.instant(
                now,
                "overload",
                f"request.{outcome}",
                {
                    "arrival": ticket.arrival_id,
                    "reason": reason,
                    "machine": machine_name,
                    "priority": ticket.spec.priority,
                },
            )
        return outcome

    def reject(
        self, ticket: AdmissionTicket, reason: str, now: float,
        machine_name: str = "",
    ) -> None:
        """Terminal rejection outside :meth:`admit` (e.g. retries exhausted)."""
        self._terminal(ticket, OUTCOME_REJECTED, reason, machine_name, now)

    # ------------------------------------------------------------------
    # Serving lifecycle callbacks (dispatcher-driven)
    # ------------------------------------------------------------------
    def note_inject(self, machine_name: str, ticket: AdmissionTicket) -> None:
        """An admitted request was handed to the machine's server."""
        machine = self.machines[machine_name]
        machine.inflight += 1
        machine.breaker.note_attempt()
        ticket.injections += 1
        self.injections += 1

    def on_complete(
        self, machine_name: str, now: float
    ) -> list[_QueueEntry]:
        """A request finished on ``machine_name``; drain its queue.

        Returns the entries (at most one, given one freed slot) the
        dispatcher must now inject; queued entries whose deadline expired
        while waiting are shed here, never returned.
        """
        self.completed += 1
        machine = self.machines[machine_name]
        machine.inflight = max(0, machine.inflight - 1)
        return self._pop_ready(machine, now)

    def on_failover(self, machine_name: str) -> None:
        """An in-flight request was stranded by a crash and re-enters dispatch."""
        machine = self.machines[machine_name]
        machine.inflight = max(0, machine.inflight - 1)

    def evict_queue(self, machine_name: str) -> list[_QueueEntry]:
        """Hand back every queued entry (crashed machine); queue empties."""
        machine = self.machines[machine_name]
        entries, machine.queue = machine.queue, []
        return entries

    def _pop_ready(
        self, machine: _MachineAdmission, now: float
    ) -> list[_QueueEntry]:
        ready: list[_QueueEntry] = []
        while machine.queue and machine.inflight + len(ready) < self.config.max_inflight:
            entry = machine.queue.pop(0)
            deadline = entry.ticket.spec.deadline
            if deadline is not None and now > deadline:
                self._terminal(
                    entry.ticket, OUTCOME_SHED, "deadline", machine.name, now
                )
                continue
            self.admitted += 1
            ready.append(entry)
        return ready

    # -- retry bookkeeping (requests sleeping in a dispatch backoff) ----
    def note_retry_scheduled(self) -> None:
        """A ticket entered a retry backoff (still pending, not lost)."""
        self.retry_pending += 1

    def note_retry_fired(self) -> None:
        """The backed-off ticket re-entered dispatch."""
        self.retry_pending = max(0, self.retry_pending - 1)

    # ------------------------------------------------------------------
    # Health / machine gating
    # ------------------------------------------------------------------
    def machine_available(self, machine_name: str, now: float) -> bool:
        """Circuit-breaker gate consulted by ``Dispatcher.is_dispatchable``."""
        machine = self.machines.get(machine_name)
        return machine is None or machine.breaker.allow(now)

    def on_machine_failure(self, machine_name: str, now: float) -> None:
        """Mirror of the dispatcher's health bookkeeping into the breaker."""
        machine = self.machines.get(machine_name)
        if machine is not None:
            machine.breaker.record_failure(now)

    def on_machine_success(self, machine_name: str, now: float) -> None:
        """A successful completion closes the machine's breaker."""
        machine = self.machines.get(machine_name)
        if machine is not None:
            machine.breaker.record_success(now)

    # ------------------------------------------------------------------
    # Accounting & export
    # ------------------------------------------------------------------
    def inflight_now(self) -> int:
        """Admitted requests currently being served."""
        return sum(m.inflight for m in self.machines.values())

    def queued_now(self) -> int:
        """Requests currently waiting in admission queues."""
        return sum(len(m.queue) for m in self.machines.values())

    def pending(self) -> int:
        """Arrivals not yet at a terminal state (queued/in-flight/backoff)."""
        return self.inflight_now() + self.queued_now() + self.retry_pending

    def accounting_gap(self) -> int:
        """Zero when every arrival is accounted for exactly once."""
        return self.arrivals - (
            self.completed + self.shed + self.rejected + self.pending()
        )

    def shed_fingerprint(self) -> str:
        """Stable digest of the full shed set (order-independent).

        Two identically-seeded runs must shed the *same* requests for the
        same reasons; this digest folds the whole set into one comparable
        value for chaos fingerprints.
        """
        canon = ";".join(
            f"{r.arrival_id}:{r.outcome}:{r.reason}:{r.machine}:{r.priority}"
            for r in sorted(self.shed_log, key=lambda r: r.arrival_id)
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def publish_metrics(self, registry=None) -> None:
        """Publish the admission counters as ``overload_*`` gauges.

        Global counters (``overload_arrivals``, ``overload_shed``, ...,
        ``overload_brownout_level``, and ``overload_shed_fingerprint``, a
        48-bit digest of the shed set, exactly representable in a float)
        and per-machine breaker and queue state
        (``overload_<machine>_breaker_state``, ...).  With no explicit
        ``registry`` the attached telemetry handle's registry is used;
        without either this is a no-op.
        """
        if registry is None:
            if self.telemetry is None:
                return
            registry = self.telemetry.registry

        def put(key: str, value: float) -> None:
            registry.gauge(f"overload_{key}").set(value)

        put("arrivals", self.arrivals)
        put("admitted", self.admitted)
        put("injections", self.injections)
        put("completed", self.completed)
        put("shed", self.shed)
        put("rejected", self.rejected)
        put("queued_total", self.queued_total)
        put("queue_now", self.queued_now())
        put("inflight_now", self.inflight_now())
        put("retry_pending", self.retry_pending)
        put("deadline_sheds", self.deadline_sheds)
        put("accounting_gap", self.accounting_gap())
        put("brownout_level", self.brownout_level)
        put("shed_fingerprint", int(self.shed_fingerprint(), 16))
        for name in sorted(self.machines):
            machine = self.machines[name]
            put(f"{name}_breaker_state", machine.breaker.state_code)
            put(f"{name}_breaker_opened", machine.breaker.opened_count)
            put(f"{name}_bucket_denied", machine.bucket.denied)
            put(f"{name}_queue_peak", machine.queue_peak)
            put(f"{name}_queue_evictions", machine.evictions)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Counters, shed log, and per-machine admission state.

        Queued entries reference live workload/ticket objects, so queues
        are rendered as arrival-id lists for verification alongside the
        numeric state (buckets, breakers, counters, the shed log).
        """
        from repro.checkpoint.state import generator_state

        return {
            "v": 1,
            "brownout_level": self.brownout_level,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "injections": self.injections,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "queued_total": self.queued_total,
            "retry_pending": self.retry_pending,
            "deadline_sheds": self.deadline_sheds,
            "priority_rng": (
                generator_state(self.priority_rng)
                if self.priority_rng is not None
                else None
            ),
            "shed_log": [
                [r.arrival_id, r.rtype, r.priority, r.outcome, r.reason,
                 r.machine, r.at, r.injections]
                for r in self.shed_log
            ],
            "machines": {
                name: {
                    "bucket": machine.bucket.snapshot_state(),
                    "breaker": machine.breaker.snapshot_state(),
                    "inflight": machine.inflight,
                    "queue_peak": machine.queue_peak,
                    "evictions": machine.evictions,
                    "queue": [
                        entry.ticket.arrival_id for entry in machine.queue
                    ],
                }
                for name, machine in sorted(self.machines.items())
            },
        }
