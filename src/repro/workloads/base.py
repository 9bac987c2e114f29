"""Workload framework: request specs, drivers, and run orchestration.

A :class:`Workload` knows how to build its server topology on a kernel, how
to sample request specifications, and what a request costs on each
microarchitecture (so the driver can convert a target utilization into a
Poisson arrival rate).  The :class:`OpenLoopDriver` mints a power container
per request, injects the tagged request message, and collects replies with
response times -- playing the role of the paper's test client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.core.facility import PowerContainerFacility
from repro.core.container import PowerContainer
from repro.kernel import ContextTag, Kernel, Message
from repro.requests import RequestResult, RequestSpec
from repro.server.stages import Server

__all__ = [
    "RequestSpec",
    "RequestResult",
    "Workload",
    "OpenLoopDriver",
    "ClosedLoopDriver",
    "WorkloadRun",
    "LiveWorkloadRun",
    "prepare_workload",
    "run_workload",
]


class Workload:
    """Base class for workload models."""

    name: str = "workload"

    def request_types(self) -> list[str]:
        """Names of the request types this workload issues."""
        raise NotImplementedError

    def sample_request(self, rng: np.random.Generator) -> RequestSpec:
        """Draw one request according to the workload mix."""
        raise NotImplementedError

    def mean_demand_seconds(self, arch: str) -> float:
        """Expected total CPU demand of one request on the given arch."""
        raise NotImplementedError

    def driver_demand_seconds(self, arch: str) -> float:
        """Demand figure drivers use to convert load targets to rates.

        Workloads whose serving incurs proportional untracked overhead (the
        GAE runtime's background processing) inflate this so request work
        plus background together fill the target utilization.
        """
        return self.mean_demand_seconds(arch)

    def build_server(
        self, kernel: Kernel, facility: PowerContainerFacility
    ) -> Server:
        """Spawn the server topology; returns the front-end server."""
        raise NotImplementedError

    def request_bytes(self) -> float:
        """Size of a request message on the wire."""
        return 512.0


class OpenLoopDriver:
    """Poisson open-loop client driving one workload on one machine."""

    def __init__(
        self,
        kernel: Kernel,
        facility: PowerContainerFacility,
        workload: Workload,
        server: Server,
        load_fraction: float,
        rng: np.random.Generator,
        label_prefix: str = "",
    ) -> None:
        if not 0.0 < load_fraction <= 1.0:
            raise ValueError("load fraction must be in (0, 1]")
        self.kernel = kernel
        self.facility = facility
        self.workload = workload
        self.server = server
        self.load_fraction = load_fraction
        self.rng = rng
        self.label_prefix = label_prefix or workload.name
        demand = workload.driver_demand_seconds(kernel.machine.arch)
        if demand <= 0:
            raise ValueError("workload reports non-positive demand")
        #: Poisson arrival rate achieving the target utilization.
        self.rate = load_fraction * kernel.machine.n_cores / demand
        self.results: list[RequestResult] = []
        self.inflight: dict[int, tuple[RequestSpec, float, PowerContainer]] = {}
        self._next_request_id = 0
        self._deadline: Optional[float] = None
        server.client_side.on_message = self._on_reply

    # ------------------------------------------------------------------
    def start(self, duration: float) -> None:
        """Begin issuing arrivals for ``duration`` simulated seconds."""
        self._deadline = self.kernel.now + duration
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.rate))
        arrival_time = self.kernel.now + gap
        if self._deadline is not None and arrival_time > self._deadline:
            return
        self.kernel.simulator.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        spec = self.workload.sample_request(self.rng)
        self.inject_request(spec)
        self._schedule_next_arrival()

    def inject_request(self, spec: RequestSpec) -> RequestResult | None:
        """Mint a container and inject one tagged request immediately."""
        request_id = self._next_request_id
        self._next_request_id += 1
        container = self.facility.create_request_container(
            label=f"{self.label_prefix}:{spec.rtype}",
            meta={
                "rtype": spec.rtype,
                "workload": self.workload.name,
                "params": dict(spec.params),
            },
        )
        # The in-flight message holds a container reference (on_send would
        # normally take it; injection bypasses the send hook).
        self.facility.registry.incref(container.id)
        now = self.kernel.now
        self.inflight[request_id] = (spec, now, container)
        self.server.inject(
            Message(
                nbytes=self.workload.request_bytes(),
                payload=(request_id, spec),
                tag=ContextTag(container_id=container.id),
            )
        )
        return None

    def _on_reply(self, message: Message) -> None:
        (request_id, _spec), _result = message.payload
        spec, arrival, container = self.inflight.pop(request_id)
        self.results.append(
            RequestResult(
                request_id=request_id,
                rtype=spec.rtype,
                arrival=arrival,
                completion=self.kernel.now,
                container=container,
            )
        )
        # Release the message reference (taken at inject) and the driver's.
        self.facility.registry.decref(container.id)
        self.facility.complete_request(container)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """Requests completed so far."""
        return len(self.results)

    def results_of_type(self, rtype: str) -> list[RequestResult]:
        """Completed requests of one type."""
        return [r for r in self.results if r.rtype == rtype]

    def mean_response_time(self, rtype: Optional[str] = None) -> float:
        """Mean response time, optionally restricted to one type."""
        pool = self.results if rtype is None else self.results_of_type(rtype)
        if not pool:
            return 0.0
        return float(np.mean([r.response_time for r in pool]))

    def timeout_rate(self, threshold: float, now: Optional[float] = None) -> float:
        """Fraction of requests exceeding a latency threshold.

        Requests still in flight that have already waited past the
        threshold count as timed out (the paper sizes offered load as "the
        maximum volume that can be supported without excessive timeout").
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        now = self.kernel.now if now is None else now
        finished_late = sum(
            1 for r in self.results if r.response_time > threshold
        )
        inflight_late = sum(
            1 for (_spec, arrival, _c) in self.inflight.values()
            if now - arrival > threshold
        )
        total = len(self.results) + len(self.inflight)
        if total == 0:
            return 0.0
        return (finished_late + inflight_late) / total

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Counters, deadline, RNG cursor; requests rendered for verification.

        Completed results and in-flight entries hold live container
        references, so they are captured as plain renders and verified
        against the replay on resume.
        """
        from repro.checkpoint.state import generator_state

        return {
            "v": 1,
            "rate": self.rate,
            "next_request_id": self._next_request_id,
            "deadline": self._deadline,
            "rng": generator_state(self.rng),
            "results": [
                [r.request_id, r.rtype, r.arrival, r.completion,
                 r.container.id]
                for r in self.results
            ],
            "inflight": {
                str(request_id): [spec.rtype, arrival, container.id]
                for request_id, (spec, arrival, container)
                in sorted(self.inflight.items())
            },
        }


class ClosedLoopDriver:
    """A fixed population of synchronous clients with think time.

    Models the paper's test-client alternative: each of ``n_clients``
    issues one request, waits for the reply, thinks for an exponential
    think time, and repeats.  Offered load self-regulates with server
    speed (no unbounded queue growth at saturation), which is why closed
    loops are the standard choice for peak-load experiments.
    """

    def __init__(
        self,
        kernel: Kernel,
        facility: PowerContainerFacility,
        workload: Workload,
        server: Server,
        n_clients: int,
        think_time: float,
        rng: np.random.Generator,
        label_prefix: str = "",
    ) -> None:
        if n_clients <= 0:
            raise ValueError("need at least one client")
        if think_time < 0:
            raise ValueError("think time must be non-negative")
        self.kernel = kernel
        self.facility = facility
        self.workload = workload
        self.server = server
        self.n_clients = n_clients
        self.think_time = think_time
        self.rng = rng
        self.label_prefix = label_prefix or workload.name
        self.results: list[RequestResult] = []
        self.inflight: dict[int, tuple[RequestSpec, float, PowerContainer]] = {}
        self._next_request_id = 0
        self._deadline: Optional[float] = None
        server.client_side.on_message = self._on_reply

    def start(self, duration: float) -> None:
        """Start every client (staggered within one think time)."""
        self._deadline = self.kernel.now + duration
        for i in range(self.n_clients):
            stagger = float(self.rng.random()) * max(self.think_time, 1e-3)
            self.kernel.simulator.schedule(stagger, self._issue)

    def _issue(self) -> None:
        if self._deadline is not None and self.kernel.now >= self._deadline:
            return
        request_id = self._next_request_id
        self._next_request_id += 1
        spec = self.workload.sample_request(self.rng)
        container = self.facility.create_request_container(
            label=f"{self.label_prefix}:{spec.rtype}",
            meta={
                "rtype": spec.rtype,
                "workload": self.workload.name,
                "params": dict(spec.params),
            },
        )
        self.facility.registry.incref(container.id)
        self.inflight[request_id] = (spec, self.kernel.now, container)
        self.server.inject(
            Message(
                nbytes=self.workload.request_bytes(),
                payload=(request_id, spec),
                tag=ContextTag(container_id=container.id),
            )
        )

    def _on_reply(self, message: Message) -> None:
        (request_id, _spec), _result = message.payload
        spec, arrival, container = self.inflight.pop(request_id)
        self.results.append(
            RequestResult(
                request_id=request_id,
                rtype=spec.rtype,
                arrival=arrival,
                completion=self.kernel.now,
                container=container,
            )
        )
        self.facility.registry.decref(container.id)
        self.facility.complete_request(container)
        think = float(self.rng.exponential(self.think_time)) \
            if self.think_time > 0 else 0.0
        self.kernel.simulator.schedule(think, self._issue)

    @property
    def completed(self) -> int:
        """Requests completed so far."""
        return len(self.results)

    def mean_response_time(self) -> float:
        """Mean response time across completed requests."""
        if not self.results:
            return 0.0
        return float(np.mean([r.response_time for r in self.results]))


@dataclass
class WorkloadRun:
    """Everything produced by :func:`run_workload`."""

    workload: Workload
    machine: Any
    kernel: Kernel
    facility: PowerContainerFacility
    driver: OpenLoopDriver
    duration: float
    measure_start: float
    measured_active_joules: float

    @property
    def measured_active_watts(self) -> float:
        """Ground-truth mean active power over the measurement window."""
        return self.measured_active_joules / (self.duration - self.measure_start)

    def results(self) -> list[RequestResult]:
        """Requests that completed inside the measurement window."""
        return [r for r in self.driver.results if r.arrival >= self.measure_start]


def meter_setup_for(spec, calibration, machine, simulator) -> dict[str, Any]:
    """Facility keyword arguments wiring the machine's available meter.

    SandyBridge uses its on-chip package meter (1 ms period, ~1 ms delay).
    The other machines use a Wattsup-style wall meter with its ~1.2 s
    delivery delay; its reporting period is shortened from the physical 1 s
    to 0.25 s so short simulations still collect enough aligned samples --
    a documented substitution that preserves the coarse+delayed character
    (the paper's runs last minutes, ours seconds).
    """
    from repro.hardware.meters import PackageMeter, WallMeter

    if spec.has_package_meter:
        return dict(
            meter=PackageMeter(machine, simulator, period=1e-3, delay=1e-3),
            meter_idle_watts=calibration.package_idle_watts,
            meter_covers_peripherals=False,
            trace_period=1e-3,
            recalib_interval=0.25,
            max_delay_seconds=0.01,
        )
    return dict(
        meter=WallMeter(machine, simulator, period=0.25, delay=1.2),
        meter_idle_watts=calibration.idle_watts,
        meter_covers_peripherals=True,
        trace_period=0.25,
        recalib_interval=0.5,
        max_delay_seconds=2.0,
    )


@dataclass
class LiveWorkloadRun:
    """A fully built workload world whose clock has not finished running.

    :func:`prepare_workload` constructs everything -- machine, kernel,
    facility, server, driver -- and starts the arrival process, but does
    not advance the simulated clock.  Callers that just want the result
    call :meth:`finish`; the checkpoint runner instead schedules its
    auto-checkpoint ticks on :attr:`simulator` first, so snapshots land at
    deterministic safe-points while :meth:`finish` drives the same phases
    the one-shot path always ran.
    """

    workload: Workload
    machine: Any
    kernel: Kernel
    facility: PowerContainerFacility
    driver: OpenLoopDriver
    simulator: Any
    hub: Any
    duration: float
    warmup: float
    _start_energy: Optional[float] = None

    def finish(self) -> WorkloadRun:
        """Drive the clock to the end and package the measurement.

        Phase-for-phase identical to the historical ``run_workload`` body:
        run to warmup, checkpoint the machine and latch the active-energy
        baseline, run to the duration, flush, checkpoint again.  Phases
        already completed (a resumed world rejoining mid-run) are skipped.
        """
        if self.simulator.now < self.warmup:
            self.simulator.run_until(self.warmup)
        if self._start_energy is None:
            self.machine.checkpoint()
            self._start_energy = self.machine.integrator.active_joules
        self.simulator.run_until(self.duration)
        self.facility.flush()
        self.machine.checkpoint()
        measured = self.machine.integrator.active_joules - self._start_energy
        return WorkloadRun(
            workload=self.workload,
            machine=self.machine,
            kernel=self.kernel,
            facility=self.facility,
            driver=self.driver,
            duration=self.duration,
            measure_start=self.warmup,
            measured_active_joules=measured,
        )

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        """The run's own phase marker: the latched energy baseline."""
        return {"v": 1, "start_energy": self._start_energy}


def prepare_workload(
    workload: Workload,
    spec,
    calibration,
    load_fraction: float,
    duration: float = 8.0,
    warmup: float = 1.0,
    seed: int = 0,
    facility_kwargs: Optional[dict[str, Any]] = None,
    conditioner_factory=None,
    background_factory=None,
    with_meter: bool = True,
) -> LiveWorkloadRun:
    """Build the workload world and start arrivals, without running it.

    Everything :func:`run_workload` did before touching the clock: build
    the machine/kernel/facility, wire the meter, start tracing, spawn the
    server, and start the open-loop driver for ``duration`` seconds.
    """
    from repro.hardware.specs import build_machine
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngHub

    sim = Simulator()
    machine = build_machine(spec, sim)
    kernel = Kernel(machine, sim)
    kwargs: dict[str, Any] = {}
    if with_meter:
        kwargs.update(meter_setup_for(spec, calibration, machine, sim))
    if facility_kwargs:
        kwargs.update(facility_kwargs)
    facility = PowerContainerFacility(kernel, calibration, **kwargs)
    if conditioner_factory is not None:
        facility.attach_conditioner(conditioner_factory(kernel))
    facility.start_tracing()
    if background_factory is not None:
        background_factory(kernel, facility)

    hub = RngHub(seed)
    server = workload.build_server(kernel, facility)
    driver = OpenLoopDriver(
        kernel, facility, workload, server,
        load_fraction=load_fraction, rng=hub.stream("arrivals"),
    )
    driver.start(duration)
    return LiveWorkloadRun(
        workload=workload,
        machine=machine,
        kernel=kernel,
        facility=facility,
        driver=driver,
        simulator=sim,
        hub=hub,
        duration=duration,
        warmup=warmup,
    )


def run_workload(
    workload: Workload,
    spec,
    calibration,
    load_fraction: float,
    duration: float = 8.0,
    warmup: float = 1.0,
    seed: int = 0,
    facility_kwargs: Optional[dict[str, Any]] = None,
    conditioner_factory=None,
    background_factory=None,
    with_meter: bool = True,
) -> WorkloadRun:
    """Run one workload at one load level on one machine model.

    ``spec`` is a :class:`~repro.hardware.specs.MachineSpec`;
    ``calibration`` its :class:`~repro.core.calibration.CalibrationResult`.
    The measurement window excludes ``warmup`` seconds at the start.
    ``with_meter`` wires the machine's meter for online recalibration.
    """
    live = prepare_workload(
        workload,
        spec,
        calibration,
        load_fraction,
        duration=duration,
        warmup=warmup,
        seed=seed,
        facility_kwargs=facility_kwargs,
        conditioner_factory=conditioner_factory,
        background_factory=background_factory,
        with_meter=with_meter,
    )
    return live.finish()
