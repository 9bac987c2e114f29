"""WattsApp-style power-aware placement for the sharded cluster.

The scheduler lives entirely on the coordinator and operates on plain
data, so its decisions are byte-identical for any shard count.  Following
WattsApp (PAPERS.md), it:

* **predicts per-request power** from the power containers' accounting
  history -- every completion record carries the request's attributed
  energy, and the per-``(arch, workload:rtype)`` profile learns mean
  energy per request from them, bootstrapping from a calibration-derived
  estimate until enough samples exist.  The placement charge is the
  request's *epoch-averaged* draw (mean energy divided by the epoch
  length): requests are short relative to an epoch, so charging their
  full in-service watts for the whole barrier interval would overstate
  concurrency by the inverse duty cycle and shed load a real operator
  would happily serve;
* **places by headroom** -- racks and machines are ranked by predicted
  power headroom (lazy max-heaps keyed ``(-headroom, name)``, so ties
  break on the name and placement is deterministic);
* **oversubscribes rack caps** -- a rack's cap is a fraction of its
  members' aggregate peak, betting that requests rarely peak together; a
  request that fits no rack is deferred to the next epoch and, after
  ``max_defers`` epochs, shed (an explicit, fingerprinted outcome -- never
  a silent drop).

Every mutation happens in the coordinator's merged total order (placement
in arrival order, profile learning in completion order), which is what
keeps the learned profiles -- and therefore every subsequent placement --
independent of how machines are grouped into shards.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field

from repro.server.dispatch import DispatchTicket
from repro.shard.messages import CompletionRecord, FailoverRecord

#: Completions of one profile key required before the learned draw
#: replaces the calibration bootstrap.
MIN_PROFILE_SAMPLES = 8

#: Reason string recorded for requests shed after exhausting their defers.
SHED_NO_HEADROOM = "no-headroom"


@dataclass(frozen=True)
class MachineSlot:
    """Static description of one placeable machine."""

    name: str
    arch: str
    rack: int
    n_cores: int
    idle_watts: float
    peak_watts: float


@dataclass
class _MachineState:
    """Live placement state of one machine."""

    slot: MachineSlot
    predicted_watts: float
    alive: bool = True

    @property
    def headroom(self) -> float:
        return self.slot.peak_watts - self.predicted_watts


@dataclass
class _RackState:
    """Live placement state of one rack."""

    index: int
    cap_watts: float
    machine_names: list[str] = field(default_factory=list)
    predicted_watts: float = 0.0

    @property
    def headroom(self) -> float:
        return self.cap_watts - self.predicted_watts


@dataclass
class _Profile:
    """Accumulated accounting history for one ``(arch, key)`` pair."""

    count: int = 0
    energy_sum: float = 0.0
    service_sum: float = 0.0


class PowerAwareScheduler:
    """Headroom-based request placement with learned power profiles."""

    def __init__(
        self,
        machines: list[MachineSlot],
        rack_caps: dict[int, float],
        bootstrap_joules: dict[str, float],
        epoch_seconds: float,
        max_defers: int = 4,
    ) -> None:
        """``bootstrap_joules`` maps each arch to the per-request energy
        estimate used until that arch's profile has enough samples;
        ``epoch_seconds`` converts per-request energy into the
        epoch-averaged watts actually charged against headroom."""
        if not machines:
            raise ValueError("need at least one machine")
        if epoch_seconds <= 0:
            raise ValueError("epoch must be positive")
        self.machines: dict[str, _MachineState] = {}
        self.racks: dict[int, _RackState] = {}
        for slot in machines:
            if slot.name in self.machines:
                raise ValueError(f"duplicate machine name {slot.name!r}")
            if slot.rack not in rack_caps:
                raise ValueError(f"rack {slot.rack} has no cap")
            self.machines[slot.name] = _MachineState(
                slot=slot, predicted_watts=slot.idle_watts
            )
            rack = self.racks.setdefault(
                slot.rack, _RackState(index=slot.rack,
                                      cap_watts=rack_caps[slot.rack])
            )
            rack.machine_names.append(slot.name)
            rack.predicted_watts += slot.idle_watts
        self.bootstrap_joules = dict(bootstrap_joules)
        self.epoch_seconds = epoch_seconds
        self.max_defers = max_defers
        self.profiles: dict[tuple[str, str], _Profile] = {}
        #: request_id -> (machine name, charged watts, profile key).
        self._inflight: dict[int, tuple[str, float, str]] = {}
        #: request_id -> times the ticket has been deferred for headroom.
        self._defers: dict[int, int] = {}
        #: Canonical shed log lines (the ``shed`` fingerprint input).
        self.shed_log: list[str] = []
        self.placed = 0
        self.completed = 0
        self.shed = 0
        self.deferred_total = 0
        self.failovers = 0
        # Lazy max-heaps; stale entries are discarded on pop by comparing
        # the recorded headroom against the live one.
        self._rack_heap: list[tuple[float, int]] = []
        self._machine_heaps: dict[int, list[tuple[float, str]]] = {}
        for rack in self.racks.values():
            self._push_rack(rack)
            self._machine_heaps[rack.index] = []
            for name in rack.machine_names:
                self._push_machine(self.machines[name])

    # -- heap plumbing --------------------------------------------------
    def _push_rack(self, rack: _RackState) -> None:
        heapq.heappush(self._rack_heap, (-rack.headroom, rack.index))

    def _push_machine(self, state: _MachineState) -> None:
        heapq.heappush(
            self._machine_heaps[state.slot.rack],
            (-state.headroom, state.slot.name),
        )

    # -- power prediction -----------------------------------------------
    def predicted_request_watts(self, arch: str, key: str) -> float:
        """Epoch-averaged draw one ``key`` request adds to ``arch``.

        Mean energy per request (learned, else bootstrap) spread over one
        epoch: the power this placement adds to the machine's barrier-
        interval average, which is what rack caps meter.
        """
        profile = self.profiles.get((arch, key))
        if profile is not None and profile.count >= MIN_PROFILE_SAMPLES:
            return profile.energy_sum / profile.count / self.epoch_seconds
        return self.bootstrap_joules[arch] / self.epoch_seconds

    # -- placement ------------------------------------------------------
    def _best_machine(self, rack: _RackState, demand_cap: float):
        """Live machine with the most headroom in one rack, or ``None``.

        ``demand_cap`` bounds the demand any arch in this rack could
        charge, so a machine popped with at least that much headroom is
        guaranteed placeable.
        """
        heap = self._machine_heaps[rack.index]
        while heap:
            neg_headroom, name = heap[0]
            state = self.machines[name]
            if not state.alive or -neg_headroom != state.headroom:
                heapq.heappop(heap)  # stale or dead entry
                continue
            if -neg_headroom < demand_cap:
                return None
            return state
        return None

    def _place_one(self, ticket: DispatchTicket) -> str | None:
        """Bind one ticket to a machine; returns the name or ``None``."""
        key = f"{ticket.workload}:{ticket.rtype}"
        demand_cap = max(
            self.predicted_request_watts(arch, key)
            for arch in self.bootstrap_joules
        )
        tried: list[tuple[float, int]] = []
        chosen: _MachineState | None = None
        while self._rack_heap:
            neg_headroom, rack_index = self._rack_heap[0]
            rack = self.racks[rack_index]
            if -neg_headroom != rack.headroom:
                heapq.heappop(self._rack_heap)  # stale entry
                continue
            if -neg_headroom < demand_cap:
                break  # best rack lacks headroom; so does every other
            state = self._best_machine(rack, demand_cap)
            if state is None:
                # Rack has headroom but no placeable machine; set it aside
                # so the next-best rack surfaces, restore afterwards.
                tried.append(heapq.heappop(self._rack_heap))
                continue
            chosen = state
            break
        for entry in tried:
            heapq.heappush(self._rack_heap, entry)
        if chosen is None:
            return None
        demand = self.predicted_request_watts(chosen.slot.arch, key)
        chosen.predicted_watts += demand
        rack = self.racks[chosen.slot.rack]
        rack.predicted_watts += demand
        self._push_machine(chosen)
        self._push_rack(rack)
        self._inflight[ticket.request_id] = (chosen.slot.name, demand, key)
        self.placed += 1
        return chosen.slot.name

    def place(
        self, tickets: list[DispatchTicket], epoch_index: int
    ) -> tuple[list[DispatchTicket], list[DispatchTicket]]:
        """Place tickets in order; returns ``(placed, deferred)``.

        Placed tickets come back bound to their machine.  Tickets that fit
        nowhere are deferred to the next epoch until ``max_defers``, then
        shed into :attr:`shed_log`.
        """
        placed: list[DispatchTicket] = []
        deferred: list[DispatchTicket] = []
        for ticket in tickets:
            name = self._place_one(ticket)
            if name is not None:
                self._defers.pop(ticket.request_id, None)
                placed.append(
                    DispatchTicket(
                        request_id=ticket.request_id,
                        workload=ticket.workload,
                        rtype=ticket.rtype,
                        params=ticket.params,
                        arrival=ticket.arrival,
                        machine=name,
                        attempt=ticket.attempt,
                    )
                )
                continue
            defers = self._defers.get(ticket.request_id, 0) + 1
            if defers > self.max_defers:
                self._defers.pop(ticket.request_id, None)
                self.shed += 1
                self.shed_log.append(
                    f"{ticket.request_id}:{ticket.rtype}:"
                    f"{SHED_NO_HEADROOM}:epoch{epoch_index}"
                )
            else:
                self._defers[ticket.request_id] = defers
                self.deferred_total += 1
                deferred.append(ticket)
        return placed, deferred

    # -- feedback from the merged record streams ------------------------
    def note_completed(self, record: CompletionRecord) -> None:
        """Release the request's charge and learn its profile."""
        machine_name, demand, key = self._inflight.pop(record.request_id)
        state = self.machines[machine_name]
        state.predicted_watts -= demand
        rack = self.racks[state.slot.rack]
        rack.predicted_watts -= demand
        self._push_machine(state)
        self._push_rack(rack)
        self.completed += 1
        profile = self.profiles.setdefault((state.slot.arch, key), _Profile())
        profile.count += 1
        profile.energy_sum += record.energy_joules
        profile.service_sum += record.response_time
        if self._defers:
            # Completed requests can never still be marked deferred.
            self._defers.pop(record.request_id, None)

    def note_failover(self, record: FailoverRecord) -> None:
        """Release a stranded request's charge without learning from it."""
        machine_name, demand, _key = self._inflight.pop(record.request_id)
        state = self.machines[machine_name]
        state.predicted_watts -= demand
        rack = self.racks[state.slot.rack]
        rack.predicted_watts -= demand
        self._push_machine(state)
        self._push_rack(rack)
        self.failovers += 1

    def note_crashed(self, machine_name: str) -> None:
        """Stop routing to a machine (from the epoch containing its crash)."""
        self.machines[machine_name].alive = False

    def note_recovered(self, machine_name: str) -> None:
        """Re-admit a recovered machine for placement."""
        state = self.machines[machine_name]
        state.alive = True
        self._push_machine(state)

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        """Plain-data snapshot of the live placement state.

        Heaps are deliberately absent: they are a lazy cache over
        ``predicted_watts``/``alive`` (stale entries are discarded on
        pop), so the fields below decide every later placement.
        """
        return {
            "v": 1,
            "machines": [
                [name, state.predicted_watts, state.alive]
                for name, state in sorted(self.machines.items())
            ],
            "racks": [
                [index, rack.predicted_watts]
                for index, rack in sorted(self.racks.items())
            ],
            "profiles": [
                [arch, key, profile.count, profile.energy_sum,
                 profile.service_sum]
                for (arch, key), profile in sorted(self.profiles.items())
            ],
            "inflight": [
                [request_id, machine, demand, key]
                for request_id, (machine, demand, key)
                in sorted(self._inflight.items())
            ],
            "defers": [
                [request_id, count]
                for request_id, count in sorted(self._defers.items())
            ],
            "shed_log": list(self.shed_log),
            "counters": {
                "placed": self.placed,
                "completed": self.completed,
                "shed": self.shed,
                "deferred_total": self.deferred_total,
                "failovers": self.failovers,
            },
        }

    # -- reporting ------------------------------------------------------
    def inflight_count(self) -> int:
        """Requests currently charged to some machine."""
        return len(self._inflight)

    def shed_fingerprint(self) -> str:
        """SHA-256 over the canonical shed log (order is deterministic)."""
        return hashlib.sha256(
            "\n".join(self.shed_log).encode()
        ).hexdigest()

    def stats(self) -> dict[str, float]:
        """Stable-keyed counters for reports and fingerprints."""
        return {
            "placed": float(self.placed),
            "completed": float(self.completed),
            "shed": float(self.shed),
            "deferred_total": float(self.deferred_total),
            "failovers": float(self.failovers),
            "inflight": float(self.inflight_count()),
            "profiles": float(len(self.profiles)),
        }
