"""The simulated OS kernel: action interpretation, dispatch, interrupts.

The kernel owns one machine.  It interprets process programs (generators
yielding actions), runs :class:`~repro.kernel.process.Compute` actions as
timed slices on cores, delivers counter-overflow interrupts at non-halt
cycle thresholds, and routes socket messages with per-segment context tags.

Observers (the power-container facility, tests) attach a
:class:`KernelHooks` implementation.  Hook call sites mirror the paper's
instrumentation points:

* ``on_dispatch`` / ``on_undispatch`` -- request context switches on a core
  (sampling scenario 1 in Section 3.3);
* ``on_overflow`` -- the periodic counter-overflow sampling interrupt;
* ``on_binding_change`` -- a running or waking process receives a new
  context binding via a tagged socket segment (sampling scenario 2);
* ``on_fork`` / ``on_exit`` -- container inheritance and reference counting;
* ``on_send`` / ``on_recv`` / ``on_io`` -- message and I/O attribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import Any, Generator, Optional

from repro.hardware.core import Core
from repro.hardware.counters import COUNTER_WRAP
from repro.hardware.machine import Machine
from repro.kernel.process import (
    Compute,
    DiskIO,
    Exit,
    Fork,
    NetIO,
    Process,
    ProcessState,
    Recv,
    Send,
    Sleep,
    SyncAccess,
    WaitChild,
)
from repro.kernel.sockets import ContextTag, Endpoint, Message
from repro.kernel.scheduler import Scheduler
from repro.sim.engine import ScheduledEvent, SimulationError, Simulator

#: Tolerance, in cycles, for treating a Compute action as finished.
_CYCLE_EPS = 1e-3


class KernelHooks:
    """Observer interface; all methods are no-ops by default."""

    def on_dispatch(self, core: Core, process: Process) -> None:
        """A process starts occupying a core."""

    def on_undispatch(self, core: Core, process: Process, reason: str) -> None:
        """A process stops occupying a core (block/preempt/exit)."""

    def on_overflow(self, core: Core, process: Process) -> None:
        """Counter-overflow sampling interrupt fired on a busy core."""

    def on_binding_change(
        self, process: Process, old_id: Optional[int], new_id: Optional[int]
    ) -> None:
        """A process's request-context binding is about to change."""

    def on_fork(self, parent: Process, child: Process) -> None:
        """A child inherited its parent's context binding."""

    def on_exit(self, process: Process) -> None:
        """A process exited (container refcount may drop)."""

    def on_send(self, process: Process, message: Message, dest: Endpoint) -> None:
        """A tagged message left a process."""

    def on_recv(self, process: Process, message: Message, source: Endpoint) -> None:
        """A process consumed a buffered message."""

    def on_io(self, process: Process, device_name: str, nbytes: float) -> None:
        """A process initiated a blocking device transfer."""

    def on_sync(self, process: Process, key: Any) -> None:
        """A process touched a user-level synchronization object."""

    def export_stats(self, process: Process) -> Optional[dict[str, float]]:
        """Container statistics to piggy-back on cross-machine messages."""
        return None


@dataclass(slots=True)
class _Slice:
    """Bookkeeping for one in-progress Compute slice on a core."""

    process: Process
    start_time: float
    planned_cycles: float
    quantum_deadline: float
    end_event: ScheduledEvent
    #: Work retired per non-halt cycle during this slice (contention);
    #: held constant for the slice's (~1 ms) duration.
    work_fraction: float = 1.0


class Kernel:
    """Simulated OS kernel bound to one machine."""

    def __init__(
        self,
        machine: Machine,
        simulator: Simulator,
        hooks: KernelHooks | None = None,
        quantum: float = 2e-3,
    ) -> None:
        if quantum <= 0:
            raise ValueError("scheduling quantum must be positive")
        self.machine = machine
        machine.kernel = self
        self.simulator = simulator
        self.hooks = hooks if hooks is not None else KernelHooks()
        self.quantum = quantum
        self.scheduler = Scheduler(machine)
        self._pids = itertools.count(1)
        self.processes: dict[int, Process] = {}
        self._slices: dict[int, _Slice] = {}
        self._slice_pool: dict[int, _Slice] = {}
        #: Processes blocked in WaitChild, keyed by the awaited child pid.
        self._wait_for_child: dict[int, Process] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator._now

    def spawn(
        self,
        program: Generator,
        name: str = "proc",
        container_id: Optional[int] = None,
        pinned_core: Optional[int] = None,
        parent: Optional[Process] = None,
    ) -> Process:
        """Create a process and make it runnable."""
        if pinned_core is not None and not (
            0 <= pinned_core < self.machine.n_cores
        ):
            raise ValueError(
                f"pinned core {pinned_core} out of range "
                f"[0, {self.machine.n_cores})"
            )
        process = Process(
            pid=next(self._pids),
            name=name,
            program=program,
            container_id=container_id,
            pinned_core=pinned_core,
            parent=parent,
            spawned_at=self.now,
        )
        self.processes[process.pid] = process
        if parent is not None:
            parent.children.append(process)
        self._make_ready(process)
        return process

    def inject(self, endpoint: Endpoint, message: Message) -> None:
        """Deliver an externally-generated message (request arrival).

        Routed through the endpoint's machine's kernel, so injecting into a
        remote machine's listener from any kernel handle is safe.
        """
        endpoint.machine.kernel._deliver(endpoint, message)

    def set_core_duty(self, core: Core, level: int) -> None:
        """Change a core's duty-cycle level, fixing up any active slice.

        A running slice was planned at the old effective frequency, so it is
        closed at the elapsed cycle count and re-planned at the new speed.
        """
        if core.duty_level == level:
            return
        active = self._slices.get(core.index)
        if active is not None:
            self._close_slice_partial(core, active)
        self.machine.checkpoint()
        core.set_duty_level(level)
        if active is not None:
            self._start_slice(active.process, core,
                              quantum_deadline=active.quantum_deadline)

    def set_chip_frequency(self, chip, scale: float) -> None:
        """Program a chip's DVFS P-state, fixing up all active slices.

        Every running slice on the chip was planned at the old effective
        frequency, so each is closed at its elapsed cycle count and
        re-planned at the new speed -- the same treatment as a duty change,
        but chip-wide (DVFS is a package-level knob).
        """
        if chip.freq_scale == scale:
            return
        interrupted: list[tuple] = []
        for core in chip.cores:
            active = self._slices.get(core.index)
            if active is not None:
                self._close_slice_partial(core, active)
                interrupted.append((core, active))
        self.machine.checkpoint()
        chip.set_freq_scale(scale)
        for core, active in interrupted:
            self._start_slice(active.process, core,
                              quantum_deadline=active.quantum_deadline)

    def rebind(self, process: Process, container_id: Optional[int]) -> None:
        """Change a process's request-context binding (with notification)."""
        if process.container_id == container_id:
            return
        self.hooks.on_binding_change(process, process.container_id, container_id)
        process.container_id = container_id

    def running_on(self, core: Core) -> Optional[Process]:
        """Process currently executing a slice on the core, if any."""
        active = self._slices.get(core.index)
        return active.process if active is not None else None

    def effective_core_counters(  # hot-path
        self, core: Core
    ) -> tuple[float, float, float, float, float]:
        """The five CPU counters as read now, in-progress slice included.

        The simulation materializes a slice's events when the slice ends;
        real hardware counters tick continuously.  Observers that read
        counters at arbitrary times (the facility's model tracer) must
        therefore add the events the current slice has produced so far.
        A wrapping bank reduces each register modulo ``COUNTER_WRAP``
        before the in-flight add, the order ``CounterBank.read`` and
        ``EventVector.add`` give; the in-flight terms are the
        ``RateProfile.events_for_cycles`` expressions.
        """
        bank = core.counters
        totals = bank.totals
        cycles_t = totals.nonhalt_cycles
        ins_t = totals.instructions
        flops_t = totals.flops
        cache_t = totals.cache_refs
        mem_t = totals.mem_trans
        if bank.wrap:
            cycles_t %= COUNTER_WRAP
            ins_t %= COUNTER_WRAP
            flops_t %= COUNTER_WRAP
            cache_t %= COUNTER_WRAP
            mem_t %= COUNTER_WRAP
        active = self._slices.get(core.index)
        profile = core.active_profile
        if active is not None and profile is not None:
            elapsed = self.now - active.start_time
            wf = active.work_fraction
            cycles = min(
                core.cycles_for_seconds(elapsed),
                active.process.compute_remaining / wf,
            )
            if cycles > 0:
                retired = cycles * wf
                cycles_t += cycles
                ins_t += profile.ipc * retired
                flops_t += profile.flops_per_cycle * retired
                cache_t += profile.cache_per_cycle * retired
                mem_t += profile.mem_per_cycle * retired
        return (cycles_t, ins_t, flops_t, cache_t, mem_t)

    # ------------------------------------------------------------------
    # Readiness and dispatch
    # ------------------------------------------------------------------
    def _make_ready(self, process: Process) -> None:
        process.state = ProcessState.READY
        core = self.scheduler.select_idle_core(process)
        if core is not None:
            self._dispatch(process, core)
        else:
            self.scheduler.enqueue(process)

    def _dispatch(self, process: Process, core: Core) -> None:
        process.state = ProcessState.RUNNING
        process.core_index = core.index
        self.scheduler.occupied.add(core.index)
        self.hooks.on_dispatch(core, process)
        self._advance(process, core, quantum_deadline=self.now + self.quantum)

    def _release_core(self, process: Process, core: Core, reason: str) -> None:
        self.machine.checkpoint()
        self.hooks.on_undispatch(core, process, reason)
        core.end_activity()
        self.scheduler.occupied.discard(core.index)
        process.core_index = None

    def _schedule_next(self, core: Core) -> None:
        nxt = self.scheduler.next_for_core(core)
        if nxt is not None:
            self._dispatch(nxt, core)

    # ------------------------------------------------------------------
    # Action interpretation
    # ------------------------------------------------------------------
    def _advance(
        self, process: Process, core: Core, quantum_deadline: float
    ) -> None:
        """Interpret actions until a slice starts or the process leaves CPU."""
        while True:
            if (
                isinstance(process.current_action, Compute)
                and process.compute_remaining > _CYCLE_EPS
            ):
                self._start_slice(process, core, quantum_deadline)
                return

            try:
                action = process.program.send(process.pending_result)
            except StopIteration as stop:
                self._do_exit(process, getattr(stop, "value", None))
                self._release_core(process, core, "exit")
                self._schedule_next(core)
                return
            process.pending_result = None
            process.current_action = action

            if isinstance(action, Compute):
                process.compute_remaining = action.cycles
                continue  # loop will start the slice (or skip a 0-cycle one)

            if isinstance(action, Send):
                self._do_send(process, action)
                continue

            if isinstance(action, Recv):
                if action.endpoint.has_data:
                    message = action.endpoint.dequeue()
                    self._consume_message(process, message, action.endpoint)
                    continue
                if not action.blocking:
                    process.pending_result = None
                    continue
                process.state = ProcessState.BLOCKED
                action.endpoint.waiters.append(process)
                self._release_core(process, core, "recv-block")
                self._schedule_next(core)
                return

            if isinstance(action, Fork):
                child = self.spawn(
                    action.program,
                    name=action.name,
                    container_id=process.container_id,
                    parent=process,
                )
                self.hooks.on_fork(process, child)
                process.pending_result = child
                # spawn() may have consumed this core?  It cannot: this core
                # is marked occupied while we interpret actions.
                continue

            if isinstance(action, WaitChild):
                child = action.child
                if child.state is ProcessState.ZOMBIE:
                    self._reap(child)
                    process.pending_result = child.exit_value
                    continue
                if child.state is ProcessState.DEAD:
                    process.pending_result = child.exit_value
                    continue
                process.state = ProcessState.BLOCKED
                self._wait_for_child[child.pid] = process
                self._release_core(process, core, "wait-block")
                self._schedule_next(core)
                return

            if isinstance(action, Sleep):
                process.state = ProcessState.BLOCKED
                self.simulator.schedule(
                    action.seconds, self._wake, process, label="sleep-wake"
                )
                self._release_core(process, core, "sleep")
                self._schedule_next(core)
                return

            if isinstance(action, (DiskIO, NetIO)):
                device = (
                    self.machine.disk
                    if isinstance(action, DiskIO)
                    else self.machine.net
                )
                duration = device.begin_transfer(action.nbytes)
                self.hooks.on_io(process, device.name, action.nbytes)
                process.state = ProcessState.BLOCKED
                self.simulator.schedule(
                    duration, self._finish_io, process, device, label="io-done"
                )
                self._release_core(process, core, "io-block")
                self._schedule_next(core)
                return

            if isinstance(action, SyncAccess):
                # A trapped user-level synchronization access: let the
                # tracking layer infer the request stage transfer.
                self.hooks.on_sync(process, action.key)
                continue

            if isinstance(action, Exit):
                self._do_exit(process, action.value)
                self._release_core(process, core, "exit")
                self._schedule_next(core)
                return

            raise TypeError(f"unknown action from {process}: {action!r}")

    # ------------------------------------------------------------------
    # Compute slices
    # ------------------------------------------------------------------
    def _start_slice(
        self,
        process: Process,
        core: Core,
        quantum_deadline: float,
        event: Optional[ScheduledEvent] = None,
    ) -> None:
        """Start a compute slice ending at the first of: action done,
        counter overflow, quantum expiry.

        ``event`` is the fired slice-end handle of the slice this one
        continues (see :meth:`_end_slice`); it is re-armed instead of
        allocating a new handle.  It was already popped, so the queue
        never holds it twice.
        """
        action = process.current_action
        assert isinstance(action, Compute)
        machine = self.machine
        simulator = self.simulator
        if machine.integrator._last_time != simulator._now:
            machine.checkpoint()
        core.begin_activity(action.profile, owner=process)
        # Contention (if modelled) is evaluated at slice start and held for
        # the slice's ~1 ms duration; stalls stretch the cycles needed.
        work_fraction = (
            machine.contention.work_fraction(core)
            if machine.contention is not None
            else 1.0
        )
        core.set_work_fraction(work_fraction)

        # Inlined seconds_for_cycles / cycles_until_overflow (identical
        # expressions; this runs once per compute slice and the operands
        # are already validated non-negative).
        effective_hz = core._effective_hz
        dt = (process.compute_remaining / work_fraction) / effective_hz
        counters = core.counters
        threshold = counters.overflow_threshold_cycles
        if threshold is not None:
            remaining = threshold - (
                counters.totals.nonhalt_cycles
                - counters._cycles_at_last_overflow
            )
            dt_overflow = (
                0.0 if remaining < 0.0 else remaining
            ) / effective_hz
            if dt_overflow < dt:
                dt = dt_overflow
        now = simulator._now
        dt_quantum = quantum_deadline - now
        if dt_quantum < 0.0:
            dt_quantum = 0.0
        if dt_quantum < dt:
            dt = dt_quantum
        planned_cycles = dt * effective_hz
        # Inlined Simulator.schedule (one slice-end event per compute
        # slice): same guards and push, minus the wrapper call.  ``dt`` is
        # non-negative by construction, so only finiteness is checked:
        # ``t - t`` is 0.0 for finite ``t`` and NaN for NaN, +inf and -inf.
        end_time = now + dt
        if end_time - end_time != 0.0:
            raise SimulationError(f"non-finite event time {end_time!r}")
        if event is None:
            event = ScheduledEvent(
                time=end_time,
                callback=self._end_slice,
                args=(core.index,),
                label="slice-end",
            )
        else:
            event.time = end_time
        _heappush(simulator._queue, (end_time, next(simulator._seq), event))
        if len(simulator._queue) >= simulator._sweep_threshold:
            simulator._sweep_cancelled()
        # Per-core _Slice objects are pooled: a core runs one slice at a
        # time and nothing holds a slice reference across slices, so the
        # record is recycled instead of allocated per slice.
        slice_record = self._slice_pool.get(core.index)
        if slice_record is None:
            slice_record = _Slice(
                process=process,
                start_time=now,
                planned_cycles=planned_cycles,
                quantum_deadline=quantum_deadline,
                end_event=event,
                work_fraction=work_fraction,
            )
            self._slice_pool[core.index] = slice_record
        else:
            slice_record.process = process
            slice_record.start_time = now
            slice_record.planned_cycles = planned_cycles
            slice_record.quantum_deadline = quantum_deadline
            slice_record.end_event = event
            slice_record.work_fraction = work_fraction
        self._slices[core.index] = slice_record

    def _close_slice_partial(self, core: Core, active: _Slice) -> None:
        """Close a slice early (duty change): account elapsed cycles."""
        active.end_event.cancel()
        self.machine.checkpoint()
        elapsed = self.now - active.start_time
        wf = active.work_fraction
        cycles = min(
            core.cycles_for_seconds(elapsed),
            active.process.compute_remaining / wf,
        )
        if cycles > 0:
            core.accumulate_cycles(cycles, wf)
            active.process.compute_remaining -= cycles * wf
            active.process.cpu_seconds += elapsed
        del self._slices[core.index]
        core.end_activity()

    def _end_slice(self, core_index: int) -> None:
        core = self.machine.cores[core_index]
        active = self._slices.pop(core_index)
        process = active.process
        self.machine.checkpoint()

        now = self.simulator._now
        elapsed = now - active.start_time
        wf = active.work_fraction
        # Inlined cycles_for_seconds (elapsed is non-negative here).
        cycles = min(
            elapsed * core._effective_hz, process.compute_remaining / wf
        )
        core.accumulate_cycles(cycles, wf)
        process.compute_remaining -= cycles * wf
        process.cpu_seconds += elapsed

        action_done = process.compute_remaining <= _CYCLE_EPS
        # Inlined overflow_pending(tol_cycles=1.0): clamping the remaining
        # cycles at zero cannot change a <= 1.0 comparison.
        counters = core.counters
        threshold = counters.overflow_threshold_cycles
        overflow = threshold is not None and (
            threshold
            - (
                counters.totals.nonhalt_cycles
                - counters._cycles_at_last_overflow
            )
            <= 1.0
        )
        quantum_expired = now >= active.quantum_deadline - 1e-12

        if overflow:
            self.hooks.on_overflow(core, process)
            core.counters.acknowledge_overflow()

        if action_done:
            process.compute_remaining = 0.0
            process.pending_result = None
            process.current_action = None
            # Keep the core but fall back into the interpreter.  The quantum
            # keeps ticking across actions of the same process.
            self._advance(process, core, active.quantum_deadline)
            return

        if quantum_expired and self.scheduler.has_waiting_for(core):
            process.state = ProcessState.READY
            self._release_core(process, core, "preempt")
            self.scheduler.enqueue(process)
            self._schedule_next(core)
            return

        # Continue the same action: either post-overflow, or quantum renewed
        # because nobody is waiting.
        deadline = (
            now + self.quantum if quantum_expired else active.quantum_deadline
        )
        self._start_slice(process, core, deadline, active.end_event)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _do_send(self, process: Process, action: Send) -> None:
        endpoint = action.endpoint
        if endpoint.peer is None:
            raise RuntimeError(f"endpoint {endpoint.name} is not connected")
        dest = endpoint.peer
        cross = dest.machine is not endpoint.machine
        stats = self.hooks.export_stats(process) if cross else None
        message = Message(
            nbytes=action.nbytes,
            payload=action.payload,
            tag=ContextTag(
                container_id=process.container_id, carried_stats=stats
            ),
            reply_to=action.reply_to,
            sent_at=self.now,
            sender_pid=process.pid,
        )
        self.hooks.on_send(process, message, dest)
        if not cross:
            self._deliver(dest, message)
            return
        # Cross-machine: occupy both NICs for the transfer duration, then
        # deliver after the propagation latency.
        src_duration = endpoint.machine.net.begin_transfer(action.nbytes)
        dest.machine.net.begin_transfer(action.nbytes)
        delay = src_duration + endpoint.pair_latency

        def complete() -> None:
            endpoint.machine.net.end_transfer()
            dest.machine.net.end_transfer()
            # Deliver through the destination machine's own kernel so the
            # receiver wakes on its own cores and its own facility's hooks.
            dest.machine.kernel._deliver(dest, message)

        self.simulator.schedule(delay, complete, label="net-deliver")

    def _deliver(self, endpoint: Endpoint, message: Message) -> None:
        if endpoint.waiters:
            process = endpoint.waiters.popleft()
            # Naive whole-socket tagging must still route the newest tag
            # through the endpoint, so enqueue+dequeue even for a waiter.
            endpoint.enqueue(message)
            delivered = endpoint.dequeue()
            self._consume_message(process, delivered, endpoint)
            self._make_ready(process)
        else:
            endpoint.enqueue(message)

    def _consume_message(
        self, process: Process, message: Message, endpoint: Endpoint
    ) -> None:
        """Apply context inheritance and hand the message to the process."""
        tag = message.tag
        if tag.container_id is not None and tag.container_id != process.container_id:
            self.rebind(process, tag.container_id)
        self.hooks.on_recv(process, message, endpoint)
        process.pending_result = message

    # ------------------------------------------------------------------
    # Blocking completions
    # ------------------------------------------------------------------
    def _wake(self, process: Process) -> None:
        if process.state is not ProcessState.BLOCKED:
            return
        self._make_ready(process)

    def _finish_io(self, process: Process, device) -> None:
        device.end_transfer()
        self._wake(process)

    # ------------------------------------------------------------------
    # Exit / wait
    # ------------------------------------------------------------------
    def _do_exit(self, process: Process, value: Any) -> None:
        process.exit_value = value
        process.state = ProcessState.ZOMBIE
        process.program.close()
        self.hooks.on_exit(process)
        waiter = self._wait_for_child.pop(process.pid, None)
        if waiter is not None:
            self._reap(process)
            waiter.pending_result = process.exit_value
            self._make_ready(waiter)
        elif process.parent is None or not process.parent.alive:
            self._reap(process)

    def _reap(self, child: Process) -> None:
        child.state = ProcessState.DEAD
        if child.parent is not None and child in child.parent.children:
            child.parent.children.remove(child)

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Pid counter plus a plain rendering of the live process world.

        Processes hold running generator frames, which cannot be captured;
        the process table, run queues, and in-progress slices are rendered
        as plain data for resume-time *verification* against the replayed
        world.
        """
        pid_value = next(self._pids)
        self._pids = itertools.count(pid_value)
        processes = {
            str(pid): [
                proc.name,
                proc.container_id,
                proc.pinned_core,
                proc.state.name,
                proc.compute_remaining,
                proc.cpu_seconds,
                proc.core_index,
            ]
            for pid, proc in sorted(self.processes.items())
        }
        slices = {
            str(core_index): [
                rec.process.pid,
                rec.start_time,
                rec.planned_cycles,
                rec.quantum_deadline,
                rec.work_fraction,
            ]
            for core_index, rec in sorted(self._slices.items())
        }
        sched = self.scheduler
        return {
            "v": 1,
            "pid_next": pid_value,
            "quantum": self.quantum,
            "processes": processes,
            "slices": slices,
            "wait_for_child": {
                str(child_pid): waiter.pid
                for child_pid, waiter in sorted(self._wait_for_child.items())
            },
            "occupied": sorted(sched.occupied),
            "global_queue": [p.pid for p in sched.global_queue],
            "pinned_queues": {
                str(core_index): [p.pid for p in queue]
                for core_index, queue in sorted(sched.pinned_queues.items())
                if queue
            },
        }
