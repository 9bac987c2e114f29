"""Failure-injection tests: the facility degrades gracefully.

A real deployment sees flaky meters, noisy measurements, and workloads with
pathological shapes; the accounting layer must keep producing sane numbers
(falling back to the offline model) rather than crash or corrupt state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PowerContainerFacility
from repro.faults import (
    FaultPlan,
    MeterFaultInjector,
    MeterFaultProfile,
    TagFaultInjector,
    build_cluster_world,
    build_single_world,
    schedule_meter_outage,
)
from repro.hardware import (
    PackageMeter,
    RateProfile,
    SANDYBRIDGE,
    WallMeter,
    build_machine,
)
from repro.kernel import Compute, Kernel, Recv, Send, Sleep
from repro.kernel.sockets import SocketPair
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry

HOT = RateProfile(name="hot", ipc=1.2, cache_per_cycle=0.012,
                  mem_per_cycle=0.007, hidden_watts=5.0)


def _world(sb_cal, meter=None, **kwargs):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    if meter == "package":
        kwargs.setdefault("meter", PackageMeter(machine, sim, period=1e-3,
                                                delay=1e-3))
        kwargs.setdefault("meter_idle_watts", sb_cal.package_idle_watts)
        kwargs.setdefault("trace_period", 1e-3)
        kwargs.setdefault("recalib_interval", 0.1)
        kwargs.setdefault("max_delay_seconds", 0.01)
    facility = PowerContainerFacility(kernel, sb_cal, **kwargs)
    return sim, machine, kernel, facility


def _published(facility):
    registry = MetricsRegistry()
    facility.publish_metrics(registry)
    return registry.snapshot()


def _busy_program(machine, duration):
    def program():
        elapsed = 0.0
        while elapsed < duration:
            yield Compute(cycles=machine.freq_hz * 0.02, profile=HOT)
            yield Sleep(0.005)
            elapsed += 0.025
    return program()


def test_meter_outage_mid_run_degrades_gracefully(sb_cal):
    """The meter dies mid-run: recalibration stops improving, accounting
    keeps running on the last recalibrated model, nothing crashes."""
    sim, machine, kernel, facility = _world(sb_cal, meter="package")
    facility.start_tracing()
    container = facility.create_request_container("r")
    kernel.spawn(_busy_program(machine, 2.0), "w", container_id=container.id)
    sim.schedule(1.0, facility.meter.stop)
    sim.run_until(2.0)
    facility.flush()
    machine.checkpoint()
    measured = machine.integrator.active_joules
    estimated = facility.registry.total_energy("recal")
    # Recalibration ran during the first second, so the estimate is good.
    assert abs(estimated - measured) / measured < 0.12
    samples_at_death = len(facility.meter.all_samples)
    assert samples_at_death < 1100  # sampling genuinely stopped


def test_facility_without_meter_never_recalibrates(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    facility.start_tracing()
    kernel.spawn(_busy_program(machine, 1.0), "w")
    sim.run_until(1.0)
    assert facility.recalibrators["recal"].recalibration_count == 0
    assert facility.estimated_delay_samples is None


def test_noisy_meter_still_recalibrates(sb_cal):
    """Heavy measurement noise (2 W std) slows but does not break
    recalibration: the refit stays within a sane band."""
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    noisy = PackageMeter(machine, sim, period=1e-3, delay=1e-3,
                         noise_std_watts=2.0,
                         rng=np.random.default_rng(1))
    facility = PowerContainerFacility(
        kernel, sb_cal, meter=noisy,
        meter_idle_watts=sb_cal.package_idle_watts,
        trace_period=1e-3, recalib_interval=0.1, max_delay_seconds=0.01,
    )
    facility.start_tracing()
    container = facility.create_request_container("r")
    kernel.spawn(_busy_program(machine, 2.0), "w", container_id=container.id)
    sim.run_until(2.0)
    facility.flush()
    machine.checkpoint()
    measured = machine.integrator.active_joules
    estimated = facility.registry.total_energy("recal")
    assert abs(estimated - measured) / measured < 0.15
    assert (facility.models["recal"].coefficients >= 0).all()


def test_empty_run_produces_no_nans(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal, meter="package")
    facility.start_tracing()
    sim.run_until(0.5)  # machine idle the whole time
    facility.flush()
    _times, watts = facility.model_trace_series()
    assert np.isfinite(watts).all()
    assert facility.registry.total_energy("recal") == 0.0


def test_zero_length_requests_are_harmless(sb_cal):
    sim, machine, kernel, facility = _world(sb_cal)
    container = facility.create_request_container("empty")

    def program():
        yield Compute(cycles=0, profile=HOT)

    kernel.spawn(program(), "w", container_id=container.id)
    sim.run_until(0.01)
    facility.flush()
    assert container.mean_power("recal") == 0.0
    assert container.energy("recal") == 0.0


def test_meter_flapping_three_outages_recovers_each_time(sb_cal):
    """Acceptance: kill the package meter mid-run and restart it, three
    times.  Every outage must trip the staleness watchdog (fallback to the
    last-good model), every restart must be detected (recovery), and the
    end-to-end attribution error must stay bounded throughout."""
    sim, machine, kernel, facility = _world(sb_cal, meter="package")
    facility.start_tracing()
    injector = MeterFaultInjector(facility.meter, np.random.default_rng(0))
    # 0.3 s outages comfortably exceed the 0.2 s staleness timeout.
    for start in (0.3, 1.0, 1.7):
        schedule_meter_outage(sim, injector, at=start, duration=0.3)
    container = facility.create_request_container("r")
    kernel.spawn(_busy_program(machine, 2.4), "w", container_id=container.id)
    sim.run_until(2.4)
    facility.flush()
    machine.checkpoint()

    assert injector.outages == 3
    assert facility.meter.start_count == 4  # initial start + 3 restarts
    health = _published(facility)
    assert health["facility_meter_fallbacks"] >= 2
    assert health["facility_meter_recoveries"] >= 2
    measured = machine.integrator.active_joules
    estimated = facility.registry.total_energy("recal")
    assert abs(estimated - measured) / measured < 0.2


def test_nan_burst_is_rejected_and_models_stay_finite(sb_cal):
    """A burst of NaN / negative readings mid-run: every poisoned sample is
    rejected at ingestion, the guard keeps garbage out of the live model,
    and the trace never shows a non-finite watt."""
    sim, machine, kernel, facility = _world(sb_cal, meter="package")
    facility.start_tracing()
    injector = MeterFaultInjector(facility.meter, np.random.default_rng(2))
    sim.schedule(0.5, injector.set_profile,
                 MeterFaultProfile(nan_prob=0.6, negative_prob=0.3))
    sim.schedule(1.2, injector.set_profile, None)
    container = facility.create_request_container("r")
    kernel.spawn(_busy_program(machine, 2.0), "w", container_id=container.id)
    sim.run_until(2.0)
    facility.flush()
    machine.checkpoint()

    assert injector.corrupted > 50
    assert _published(facility)["facility_rejected_meter_samples"] > 0
    for model in facility.models.values():
        assert np.isfinite(model.coefficients).all()
    _times, watts = facility.model_trace_series()
    assert np.isfinite(watts).all()
    measured = machine.integrator.active_joules
    estimated = facility.registry.total_energy("recal")
    assert abs(estimated - measured) / measured < 0.2


def test_tag_loss_under_pipelined_sockets(sb_cal):
    """Four tagged segments queue on one endpoint before the reader wakes
    (pipelining); the first two lose their in-band tags on the wire.  The
    untagged segments are counted and routed to background, the leaked
    send-side references are released via ``on_loss``, and the reader ends
    bound to the context of the last *tagged* segment it consumed."""
    sim, machine, kernel, facility = _world(
        sb_cal, route_untagged_to_background=True
    )
    pair = SocketPair.local(machine, "pipe")
    lost: list[int] = []

    def on_loss(container_id: int) -> None:
        facility.registry.decref(container_id)  # release the send-side ref
        lost.append(container_id)
        if len(lost) == 2:
            injector.deactivate()

    injector = TagFaultInjector(
        pair.b, np.random.default_rng(0), loss_prob=1.0, on_loss=on_loss
    )
    injector.activate()

    containers = [facility.create_request_container(f"r{i}") for i in range(4)]

    def sender():
        yield Send(pair.a, nbytes=100.0)

    for c in containers:
        kernel.spawn(sender(), f"s{c.id}", container_id=c.id)

    def receiver():
        for _ in range(4):
            yield Recv(pair.b)

    # Spawn the reader only after every segment is buffered: the classic
    # pipelined-socket hazard of Section 3.3.
    reader_ref = {}
    sim.schedule(0.01, lambda: reader_ref.update(
        proc=kernel.spawn(receiver(), "reader")
    ))
    sim.run_until(0.05)

    assert injector.lost_tags == 2
    assert lost == [containers[0].id, containers[1].id]
    assert facility.health.untagged_segments == 2
    # Send increfs in flight; on_recv decrefs on delivery, and on_loss
    # releases the reference a stripped tag would otherwise leak.  With the
    # senders exited and the reader drained, every container must be fully
    # released -- a nonzero refcount here is exactly the tag-loss leak.
    assert [c.refcount for c in containers] == [0, 0, 0, 0]
    # The reader consumed [untagged, untagged, c2, c3] and must end bound
    # to the last tagged context, not a stale one.
    assert reader_ref["proc"].container_id == containers[3].id


def test_cluster_crash_mid_dispatch_fails_over():
    """A machine crashes with requests in flight: the dispatcher fails the
    stranded work over to the survivor, excludes the corpse, and re-admits
    it after recovery -- no request is lost without being counted."""
    world = build_cluster_world(seed=3, duration=1.2)
    sim = world.simulator
    victim = world.cluster.by_name("sb1")
    sim.schedule_at(0.3, victim.crash)
    sim.schedule_at(0.7, victim.recover)
    world.start()
    sim.run_until(1.2)

    dispatcher = world.dispatcher
    assert victim.crash_count == 1
    assert dispatcher.failed_over >= 1
    assert dispatcher.completed > 0
    assert not any(
        r.machine_name == "sb1" and 0.3 < r.arrival < 0.7
        for r in dispatcher.results
    )
    assert any(
        r.machine_name == "sb1" and r.arrival >= 0.7
        for r in dispatcher.results
    )


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_fault_plans_never_corrupt_accounting(seed):
    """Property: whatever random fault plan a seed draws -- outages, noise
    windows, tag loss, frozen mailboxes, in any overlap -- the facility
    never reports NaN or negative energy and every model stays finite."""
    world = build_single_world(seed, duration=0.5)
    plan = FaultPlan.random(
        world.hub.stream("property-plan"), world.duration,
        endpoints=("listener",), n_cores=world.machine.n_cores,
    )
    plan.apply(world.simulator, world.targets)
    world.start()
    world.simulator.run_until(world.duration)
    world.facility.flush()

    _times, watts = world.facility.model_trace_series()
    if len(watts):
        assert np.isfinite(watts).all()
    for model in world.facility.models.values():
        assert np.isfinite(model.coefficients).all()
    primary = world.facility.primary
    for container in world.facility.registry.all_containers():
        energy = container.total_energy(primary)
        assert np.isfinite(energy)
        assert energy >= -1e-6


def test_wall_meter_with_delay_longer_than_run(sb_cal):
    """If the run ends before any sample is delivered, recalibration simply
    never fires -- no crash, offline accounting intact."""
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    meter = WallMeter(machine, sim, period=0.25, delay=60.0)
    facility = PowerContainerFacility(
        kernel, sb_cal, meter=meter, meter_idle_watts=sb_cal.idle_watts,
        meter_covers_peripherals=True, trace_period=0.25,
        recalib_interval=0.5, max_delay_seconds=2.0,
    )
    facility.start_tracing()
    kernel.spawn(_busy_program(machine, 1.5), "w")
    sim.run_until(1.5)
    assert facility.recalibrators["recal"].recalibration_count == 0
