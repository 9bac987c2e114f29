"""Request distribution policies over a heterogeneous cluster (Section 4.4).

Three policies, matching the paper's comparison:

* :class:`SimpleLoadBalancePolicy` -- equal load to each machine, oblivious
  to heterogeneity;
* :class:`MachineHeterogeneityAwarePolicy` -- load the more energy-efficient
  machine to a healthy utilization (~70%) before spilling to the other, but
  spill the *same request composition*;
* :class:`WorkloadHeterogeneityAwarePolicy` -- additionally use the power
  containers' per-request-type energy profiles: when spilling, displace the
  request types with the highest cross-machine energy ratio (cheapest to
  move) and keep high-affinity types on the efficient machine.

The :class:`Dispatcher` plays the paper's dispatcher machine: it mints a
container per request on the serving machine, injects the tagged request,
collects replies, and feeds completed-request energies into the
:class:`~repro.core.distribution.EnergyProfileTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.distribution import EnergyProfileTable
from repro.kernel import ContextTag, Message
from repro.requests import RequestResult, RequestSpec
from repro.server.cluster import ClusterMachine, HeterogeneousCluster
from repro.server.overload import (
    DECISION_ADMIT,
    AdmissionTicket,
    OverloadProtector,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.base import Workload


class NoAvailableMachine(RuntimeError):
    """Raised by a policy when no dispatchable machine exists right now."""


@dataclass(frozen=True)
class DispatchTicket:
    """One placed request as plain wire data (crosses process boundaries).

    A sharded run's coordinator samples the request (so RNG draws are
    shard-count independent), the scheduler binds it to a machine, and the
    ticket -- nothing but strings, numbers, and a params dict -- travels to
    whichever worker process owns that machine.  :meth:`to_wire` /
    :meth:`from_wire` round-trip through the checkpoint layer's plain-data
    discipline, so a ticket pickles to identical bytes in every process.
    """

    request_id: int
    workload: str
    rtype: str
    params: dict
    arrival: float
    machine: str
    attempt: int = 0

    def spec(self) -> RequestSpec:
        """Materialize the :class:`RequestSpec` a server handler expects."""
        return RequestSpec(rtype=self.rtype, params=dict(self.params))

    def to_wire(self) -> tuple:
        """Canonical plain-data rendering (sortable, picklable, diffable)."""
        return (
            self.request_id, self.workload, self.rtype,
            tuple(sorted(self.params.items())), self.arrival, self.machine,
            self.attempt,
        )

    @classmethod
    def from_wire(cls, wire: tuple) -> "DispatchTicket":
        """Rebuild a ticket from :meth:`to_wire` output."""
        request_id, workload, rtype, params, arrival, machine, attempt = wire
        return cls(
            request_id=request_id, workload=workload, rtype=rtype,
            params=dict(params), arrival=arrival, machine=machine,
            attempt=attempt,
        )


def _dispatchable(machine, dispatcher) -> bool:
    """True when a policy may choose ``machine``.

    Honors the machine's ``alive`` flag (crashed machines are never chosen)
    and the dispatcher's health-based exclusion window when present.  Both
    checks degrade gracefully for lightweight test doubles.
    """
    if not getattr(machine, "alive", True):
        return False
    checker = getattr(dispatcher, "is_dispatchable", None)
    return bool(checker(machine)) if checker is not None else True


class DispatchPolicy:
    """Chooses the serving machine for each arriving request."""

    def choose(
        self, workload: Workload, spec: RequestSpec, dispatcher: "Dispatcher"
    ) -> ClusterMachine:
        raise NotImplementedError


class SimpleLoadBalancePolicy(DispatchPolicy):
    """Round-robin: equal request volume to every dispatchable machine."""

    def __init__(self) -> None:
        self._next = 0

    def choose(self, workload, spec, dispatcher) -> ClusterMachine:
        machines = dispatcher.cluster.machines
        for _ in range(len(machines)):
            machine = machines[self._next]
            self._next = (self._next + 1) % len(machines)
            if _dispatchable(machine, dispatcher):
                return machine
        raise NoAvailableMachine("every cluster machine is down or excluded")

    # -- checkpoint protocol -------------------------------------------
    def snapshot_state(self) -> dict:
        return {"v": 1, "next": self._next}


class MachineHeterogeneityAwarePolicy(DispatchPolicy):
    """Fill the preferred (efficient) machine to ~70% before spilling."""

    def __init__(
        self, preferred: str, fallback: str, utilization_threshold: float = 0.70
    ) -> None:
        self.preferred = preferred
        self.fallback = fallback
        self.utilization_threshold = utilization_threshold

    def _pick(self, dispatcher, *names: str) -> ClusterMachine:
        """First dispatchable machine in preference order."""
        for name in names:
            machine = dispatcher.cluster.by_name(name)
            if _dispatchable(machine, dispatcher):
                return machine
        raise NoAvailableMachine("every cluster machine is down or excluded")

    def choose(self, workload, spec, dispatcher) -> ClusterMachine:
        if dispatcher.smoothed_utilization(self.preferred) < self.utilization_threshold:
            return self._pick(dispatcher, self.preferred, self.fallback)
        return self._pick(dispatcher, self.fallback, self.preferred)


class WorkloadHeterogeneityAwarePolicy(MachineHeterogeneityAwarePolicy):
    """Spill preferentially the request types cheapest to displace.

    Until energy profiles exist for a type on both machines, it behaves like
    the machine-aware policy (the profiling bootstrap).  Once profiles are
    known, spilled load consists of the types whose cross-machine energy
    ratio is highest; types that benefit most from the efficient machine
    stay there unless it is severely overloaded.
    """

    def __init__(
        self,
        preferred: str,
        fallback: str,
        utilization_threshold: float = 0.70,
        overload_threshold: float = 0.92,
        ratio_split: float = 0.5,
    ) -> None:
        super().__init__(preferred, fallback, utilization_threshold)
        self.overload_threshold = overload_threshold
        #: Types with a ratio above this fraction of the known ratio range
        #: are considered displaceable.
        self.ratio_split = ratio_split

    def _displaceable(self, profile_key: str, dispatcher: "Dispatcher") -> bool:
        profiles = dispatcher.profiles
        if not (
            profiles.has_profile(self.preferred, profile_key)
            and profiles.has_profile(self.fallback, profile_key)
        ):
            return True  # unknown affinity: free to displace (bootstrap)
        ratios = {}
        for known in profiles.known_types(self.preferred):
            if profiles.has_profile(self.fallback, known):
                ratios[known] = profiles.ratio(known, self.preferred, self.fallback)
        if len(ratios) <= 1:
            return True
        lo, hi = min(ratios.values()), max(ratios.values())
        if hi - lo < 1e-9:
            return True
        threshold = lo + self.ratio_split * (hi - lo)
        return ratios[profile_key] >= threshold

    def choose(self, workload, spec, dispatcher) -> ClusterMachine:
        util = dispatcher.smoothed_utilization(self.preferred)
        if util < self.utilization_threshold:
            return self._pick(dispatcher, self.preferred, self.fallback)
        profile_key = f"{workload.name}:{spec.rtype}"
        if util < self.overload_threshold and not self._displaceable(
            profile_key, dispatcher
        ):
            return self._pick(dispatcher, self.preferred, self.fallback)
        return self._pick(dispatcher, self.fallback, self.preferred)


@dataclass
class ClusterRequestResult(RequestResult):
    """A completed cluster request, annotated with its serving machine."""

    machine_name: str = ""
    workload_name: str = ""


@dataclass
class _MachineDispatchHealth:
    """Dispatcher-side view of one machine's recent dispatch outcomes."""

    consecutive_failures: int = 0
    excluded_until: Optional[float] = None


class Dispatcher:
    """Open-loop request dispatcher over a heterogeneous cluster.

    Beyond placement, the dispatcher is the cluster's failure domain
    boundary: requests aimed at a crashed machine are retried elsewhere
    with exponential backoff, machines that keep failing are excluded from
    dispatch until a cooldown expires (then probed again, re-admitted on
    the first success), and replies from machines that crashed while
    serving are counted rather than crashing the dispatcher.
    """

    def __init__(
        self,
        cluster: HeterogeneousCluster,
        components: list[tuple[Workload, float]],
        policy: DispatchPolicy,
        request_rate: float,
        rng: np.random.Generator,
        utilization_sample_period: float = 5e-3,
        utilization_ewma_alpha: float = 0.12,
        max_retries: int = 3,
        retry_backoff: float = 5e-3,
        failure_threshold: int = 3,
        exclusion_cooldown: float = 0.25,
        overload: Optional[OverloadProtector] = None,
        telemetry=None,
    ) -> None:
        if request_rate <= 0:
            raise ValueError("request rate must be positive")
        total_share = sum(share for _, share in components)
        if total_share <= 0:
            raise ValueError("component shares must sum to a positive value")
        if max_retries < 0 or retry_backoff < 0:
            raise ValueError("retry settings must be non-negative")
        self.cluster = cluster
        self.components = [(w, share / total_share) for w, share in components]
        self.policy = policy
        self.request_rate = request_rate
        self.rng = rng
        self.profiles = EnergyProfileTable()
        self.results: list[ClusterRequestResult] = []
        self.inflight: dict[int, tuple] = {}
        self.dispatched_to: dict[str, int] = {
            m.name: 0 for m in cluster.machines
        }
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.failure_threshold = failure_threshold
        self.exclusion_cooldown = exclusion_cooldown
        #: Dispatch attempts that found no (or a dead) machine.
        self.dispatch_failures = 0
        #: Requests re-dispatched after a failed attempt.
        self.retries = 0
        #: Requests abandoned after exhausting ``max_retries``.
        self.dropped_requests = 0
        #: Requests failed over because their serving machine crashed.
        self.failed_over = 0
        #: Replies from requests already written off (machine crashed).
        self.late_replies = 0
        self._health: dict[str, _MachineDispatchHealth] = {
            m.name: _MachineDispatchHealth() for m in cluster.machines
        }
        #: Optional overload protection (admission control + shedding);
        #: ``None`` preserves the pre-overload dispatch path bit-for-bit.
        self.overload = overload
        if overload is not None:
            overload.bind([m.name for m in cluster.machines])
        #: Optional :class:`~repro.telemetry.Telemetry` handle; ``None``
        #: (the default) keeps the dispatch path byte-identical.
        self.telemetry = telemetry
        if overload is not None and overload.telemetry is None:
            overload.telemetry = telemetry
        self._next_request_id = 0
        self._deadline: Optional[float] = None
        self._util_ewma: dict[str, float] = {m.name: 0.0 for m in cluster.machines}
        self._util_period = utilization_sample_period
        self._util_alpha = utilization_ewma_alpha
        for member in cluster.machines:
            for server in member.servers.values():
                server.client_side.on_message = self._make_reply_handler(member)
            member.on_crash(self._handle_machine_crash)
            member.on_recover(self._handle_machine_recover)

    # ------------------------------------------------------------------
    def start(self, duration: float) -> None:
        """Begin Poisson arrivals and utilization sampling."""
        sim = self.cluster.simulator
        self._deadline = sim.now + duration
        sim.schedule_recurring(self._util_period, self._sample_utilization)
        self._schedule_next_arrival()

    def smoothed_utilization(self, machine_name: str) -> float:
        """EWMA utilization of one machine (the policy input)."""
        return self._util_ewma[machine_name]

    def _sample_utilization(self) -> None:
        sim = self.cluster.simulator
        for member in self.cluster.machines:
            current = member.utilization()
            previous = self._util_ewma[member.name]
            self._util_ewma[member.name] = (
                (1 - self._util_alpha) * previous + self._util_alpha * current
            )
        if self._deadline is not None and sim.now >= self._deadline:
            sim.current_event.cancel()

    def _schedule_next_arrival(self) -> None:
        sim = self.cluster.simulator
        gap = float(self.rng.exponential(1.0 / self.request_rate))
        if self._deadline is not None and sim.now + gap > self._deadline:
            return
        sim.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        workload = self._pick_component()
        spec = workload.sample_request(self.rng)
        t = self.telemetry
        if t is not None and t.enabled:
            t.tracer.instant(
                self.cluster.simulator.now,
                "dispatch",
                "request.arrival",
                {"rtype": spec.rtype, "workload": workload.name},
            )
        if self.overload is not None:
            ticket = self.overload.register_arrival(
                spec, self.cluster.simulator.now
            )
            self._overload_dispatch(workload, ticket, attempt=0)
        else:
            self._dispatch(workload, spec, attempt=0)
        self._schedule_next_arrival()

    def _pick_component(self) -> Workload:
        shares = [share for _, share in self.components]
        index = int(self.rng.choice(len(self.components), p=shares))
        return self.components[index][0]

    # ------------------------------------------------------------------
    # Machine health / retry machinery
    # ------------------------------------------------------------------
    def is_dispatchable(self, member) -> bool:
        """True when ``member`` is alive, not excluded, and breaker-open-free.

        Composes PR 2's health-based exclusion window with the overload
        protector's per-machine circuit breaker: a machine must pass both
        gates before a policy may choose it.
        """
        if not getattr(member, "alive", True):
            return False
        if self.overload is not None and not self.overload.machine_available(
            member.name, self.cluster.simulator.now
        ):
            return False
        health = self._health.get(member.name)
        if health is None or health.excluded_until is None:
            return True
        if self.cluster.simulator.now >= health.excluded_until:
            # Cooldown expired: let the next dispatch probe the machine.
            health.excluded_until = None
            return True
        return False

    def _record_failure(self, machine_name: str) -> None:
        health = self._health.setdefault(machine_name, _MachineDispatchHealth())
        health.consecutive_failures += 1
        if health.consecutive_failures >= self.failure_threshold:
            health.excluded_until = (
                self.cluster.simulator.now + self.exclusion_cooldown
            )
        if self.overload is not None:
            self.overload.on_machine_failure(
                machine_name, self.cluster.simulator.now
            )

    def _record_success(self, machine_name: str) -> None:
        health = self._health.setdefault(machine_name, _MachineDispatchHealth())
        health.consecutive_failures = 0
        health.excluded_until = None
        if self.overload is not None:
            self.overload.on_machine_success(
                machine_name, self.cluster.simulator.now
            )

    def _retry_later(self, workload: Workload, spec: RequestSpec, attempt: int) -> None:
        if attempt > self.max_retries:
            self.dropped_requests += 1
            return
        self.retries += 1
        backoff = self.retry_backoff * (2 ** (attempt - 1))
        self.cluster.simulator.schedule(
            backoff, self._dispatch, workload, spec, attempt,
            label="dispatch-retry",
        )

    def _dispatch(
        self, workload: Workload, spec: RequestSpec, attempt: int
    ) -> None:
        try:
            member = self.policy.choose(workload, spec, self)
        except NoAvailableMachine:
            self.dispatch_failures += 1
            self._retry_later(workload, spec, attempt + 1)
            return
        self._inject(workload, spec, member, attempt=attempt)

    # -- overload-protected dispatch path ------------------------------
    def _retry_overload(
        self, workload: Workload, ticket: AdmissionTicket, attempt: int
    ) -> None:
        """Backoff-retry one ticketed request, or reject it for good.

        The overload analogue of :meth:`_retry_later`: a ticket that runs
        out of retries reaches an *explicit* terminal state (rejected,
        reason ``retries-exhausted``) instead of vanishing into a counter.
        """
        assert self.overload is not None
        now = self.cluster.simulator.now
        if attempt > self.max_retries:
            self.dropped_requests += 1
            self.overload.reject(ticket, "retries-exhausted", now)
            return
        self.retries += 1
        self.overload.note_retry_scheduled()
        backoff = self.retry_backoff * (2 ** (attempt - 1))

        def fire() -> None:
            self.overload.note_retry_fired()
            self._overload_dispatch(workload, ticket, attempt)

        self.cluster.simulator.schedule(backoff, fire, label="dispatch-retry")

    def _overload_dispatch(
        self, workload: Workload, ticket: AdmissionTicket, attempt: int
    ) -> None:
        """Place one ticketed request through admission control."""
        assert self.overload is not None
        try:
            member = self.policy.choose(workload, ticket.spec, self)
        except NoAvailableMachine:
            self.dispatch_failures += 1
            self._retry_overload(workload, ticket, attempt + 1)
            return
        decision = self.overload.admit(
            workload, ticket, member.name, self.cluster.simulator.now
        )
        if decision == DECISION_ADMIT:
            self._inject(workload, ticket.spec, member, attempt=attempt,
                         ticket=ticket)
        # "queue" parks the ticket at the machine (drained on completion);
        # "shed"/"rejected" are terminal and already logged by the protector.

    def _inject(
        self,
        workload: Workload,
        spec: RequestSpec,
        member: ClusterMachine,
        attempt: int = 0,
        ticket: Optional[AdmissionTicket] = None,
    ) -> None:
        if not getattr(member, "alive", True):
            # The policy's pick crashed between choice and injection (or a
            # caller bypassed the policy): never hand work to a dead box.
            self.dispatch_failures += 1
            self._record_failure(member.name)
            if ticket is not None:
                self._retry_overload(workload, ticket, attempt + 1)
            else:
                self._retry_later(workload, spec, attempt + 1)
            return
        request_id = self._next_request_id
        self._next_request_id += 1
        container = member.facility.create_request_container(
            label=f"{workload.name}:{spec.rtype}",
            meta={
                "rtype": spec.rtype,
                "workload": workload.name,
                "params": dict(spec.params),
            },
        )
        member.facility.registry.incref(container.id)  # in-flight message ref
        now = self.cluster.simulator.now
        self.inflight[request_id] = (workload, spec, now, container, member,
                                     ticket)
        self.dispatched_to[member.name] += 1
        t = self.telemetry
        if t is not None and t.enabled:
            t.tracer.instant(
                now,
                "dispatch",
                "request.dispatch",
                {
                    "machine": member.name,
                    "container": container.id,
                    "attempt": attempt,
                },
            )
        if ticket is not None:
            self.overload.note_inject(member.name, ticket)
        member.servers[workload.name].inject(
            Message(
                nbytes=workload.request_bytes(),
                payload=(request_id, spec),
                tag=ContextTag(container_id=container.id),
            )
        )

    def _handle_machine_crash(self, member: ClusterMachine) -> None:
        """Fail over every in-flight request on a crashed machine.

        The requests' containers on the dead machine are released (their
        partial energy stays attributed there -- the work really did burn
        those joules) and the specs are re-dispatched to surviving
        machines through the normal retry path.
        """
        self._record_failure(member.name)
        self._health[member.name].excluded_until = float("inf")
        stranded = [
            (request_id, entry)
            for request_id, entry in self.inflight.items()
            if entry[4] is member
        ]
        for request_id, entry in stranded:
            workload, spec, _arrival, container, served_by, ticket = entry
            del self.inflight[request_id]
            served_by.facility.registry.decref(container.id)
            served_by.facility.complete_request(container)
            self.failed_over += 1
            if ticket is not None:
                self.overload.on_failover(served_by.name)
                self._retry_overload(workload, ticket, attempt=1)
            else:
                self._retry_later(workload, spec, attempt=1)
        if self.overload is not None:
            # Queued arrivals waiting at the dead machine re-enter dispatch
            # and will be re-admitted elsewhere (or shed) by the policy.
            for entry in self.overload.evict_queue(member.name):
                self._retry_overload(entry.workload, entry.ticket, attempt=1)

    def _handle_machine_recover(self, member: ClusterMachine) -> None:
        """Re-admit a recovered machine for dispatch immediately."""
        self._record_success(member.name)

    def _make_reply_handler(self, member: ClusterMachine):
        def on_reply(message: Message) -> None:
            (request_id, _spec), _result = message.payload
            entry = self.inflight.pop(request_id, None)
            if entry is None:
                # The serving machine crashed while this request was in
                # flight and the request was failed over; its late reply
                # must not crash the dispatcher or double-complete.
                self.late_replies += 1
                return
            workload, spec, arrival, container, served_by, ticket = entry
            now = self.cluster.simulator.now
            result = ClusterRequestResult(
                request_id=request_id,
                rtype=spec.rtype,
                arrival=arrival,
                completion=now,
                container=container,
                machine_name=served_by.name,
                workload_name=workload.name,
            )
            self.results.append(result)
            served_by.facility.registry.decref(container.id)
            served_by.facility.complete_request(container)
            self._record_success(served_by.name)
            self.profiles.record(
                served_by.name,
                f"{workload.name}:{spec.rtype}",
                container.total_energy(served_by.facility.primary),
            )
            if ticket is not None:
                # The freed slot drains the machine's admission queue.
                for queued in self.overload.on_complete(served_by.name, now):
                    self._inject(
                        queued.workload, queued.ticket.spec, served_by,
                        attempt=0, ticket=queued.ticket,
                    )

        return on_reply

    # ------------------------------------------------------------------
    def publish_metrics(self, registry=None) -> None:
        """Publish the robustness counters as ``dispatch_*`` gauges.

        Global dispatch counters (``dispatch_completed``,
        ``dispatch_retries``, ...) and per-machine exclusion state
        (``dispatch_<machine>_consecutive_failures``, ``_excluded``,
        ``_dispatched``); with overload protection enabled the protector
        publishes its own ``overload_*`` gauges alongside.  With no
        explicit ``registry`` the attached telemetry handle's registry is
        used; without either this is a no-op.
        """
        if registry is None:
            if self.telemetry is None:
                return
            registry = self.telemetry.registry

        def put(key: str, value: float) -> None:
            registry.gauge(f"dispatch_{key}").set(value)

        put("completed", self.completed)
        put("dispatch_failures", self.dispatch_failures)
        put("retries", self.retries)
        put("dropped_requests", self.dropped_requests)
        put("failed_over", self.failed_over)
        put("late_replies", self.late_replies)
        now = self.cluster.simulator.now
        for name in sorted(self._health):
            health = self._health[name]
            put(f"{name}_consecutive_failures", health.consecutive_failures)
            put(
                f"{name}_excluded",
                1.0
                if health.excluded_until is not None
                and now < health.excluded_until
                else 0.0,
            )
            put(f"{name}_dispatched", self.dispatched_to.get(name, 0))
        if self.overload is not None:
            self.overload.publish_metrics(registry)

    def mean_response_time(
        self, workload_name: Optional[str] = None, since: float = 0.0
    ) -> float:
        """Mean response time, optionally per component workload."""
        pool = [
            r
            for r in self.results
            if r.arrival >= since
            and (workload_name is None or r.workload_name == workload_name)
        ]
        if not pool:
            return 0.0
        return float(np.mean([r.response_time for r in pool]))

    @property
    def completed(self) -> int:
        """Requests completed so far."""
        return len(self.results)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Counters, health windows, profiles, and request bookkeeping.

        Completed results and in-flight entries reference live container,
        machine, and ticket objects; they are rendered as plain data for
        resume-time verification against the replay, alongside the numeric
        state -- counters, EWMA table, health windows, the profile table,
        and the policy cursor.
        """
        from repro.checkpoint.state import generator_state

        policy_state = None
        snapshot = getattr(self.policy, "snapshot_state", None)
        if snapshot is not None:
            policy_state = snapshot()
        return {
            "v": 1,
            "next_request_id": self._next_request_id,
            "deadline": self._deadline,
            "dispatch_failures": self.dispatch_failures,
            "retries": self.retries,
            "dropped_requests": self.dropped_requests,
            "failed_over": self.failed_over,
            "late_replies": self.late_replies,
            "dispatched_to": dict(sorted(self.dispatched_to.items())),
            "util_ewma": dict(sorted(self._util_ewma.items())),
            "health": {
                name: [h.consecutive_failures, h.excluded_until]
                for name, h in sorted(self._health.items())
            },
            "rng": generator_state(self.rng),
            "profiles": self.profiles.snapshot_state(),
            "policy": policy_state,
            "results": [
                [r.request_id, r.rtype, r.arrival, r.completion,
                 r.container.id, r.machine_name, r.workload_name]
                for r in self.results
            ],
            "inflight": {
                str(request_id): [
                    entry[0].name,  # workload
                    entry[1].rtype,
                    entry[2],  # arrival time
                    entry[3].id,  # container
                    entry[4].name,  # member
                    entry[5].arrival_id if entry[5] is not None else None,
                ]
                for request_id, entry in sorted(self.inflight.items())
            },
        }
