"""The one accounting path: ``CoreAccountant.sample`` and ``Facility.flush``.

``sample()`` unrolls the vector helpers' arithmetic over plain floats so
the interrupt hot path allocates nothing.  The property here holds it to
those helpers on a real accountant: for random counter totals and
baselines (48-bit wraps and fp-noise negatives included), random pending
observer ops and random interval lengths, the arguments ``sample()``
passes to ``_charge`` must equal -- with ``==``, never ``approx`` --
``wrapped_delta`` -> ``subtract(observer.event_vector(ops), clamp=True)``
-> ``/ (freq_hz * dt)``, with ``mcore`` clamped to [0, 1].  Empty and
idle intervals charge nothing and re-baseline.  Focused tests then pin
each branch alone: a wrap across the 48-bit register, the observer clamp,
zero pending ops and an empty interval.  The flush tests pin the
whole-machine pass every run ends with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PowerContainerFacility
from repro.hardware import RateProfile, SANDYBRIDGE, build_machine
from repro.hardware.counters import COUNTER_WRAP, wrapped_delta
from repro.hardware.events import EVENT_NAMES, EventVector
from repro.kernel import Compute, Kernel
from repro.sim import Simulator

SPIN = RateProfile(name="sample-test-spin", ipc=1.0)


def _facility(sb_cal, occupy_every=1):
    """A SANDYBRIDGE facility with one spinning process on every
    ``occupy_every``-th core, each bound to its own container."""
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, sb_cal)
    containers = []
    for index in range(len(machine.cores)):
        container = facility.create_request_container(f"sample-{index}")
        containers.append(container)
        if index % occupy_every:
            continue

        def program():
            yield Compute(cycles=machine.freq_hz * 0.2, profile=SPIN)

        kernel.spawn(
            program(), f"sample-spin-{index}", container_id=container.id,
            pinned_core=index,
        )
    return sim, facility, containers


@pytest.fixture(scope="module")
def accountant(sb_cal):
    """One real accountant whose ``_charge`` records its arguments.

    Every example sets all the state ``sample()`` reads, so examples
    share the accountant without seeing each other.
    """
    sim = Simulator()
    kernel = Kernel(build_machine(SANDYBRIDGE, sim), sim)
    facility = PowerContainerFacility(kernel, sb_cal)
    facility.accountants[0].current_container_id = (
        facility.create_request_container("sample").id
    )
    accountant = facility.accountants[0]
    calls = []
    accountant._charge = lambda *args: calls.append(args)
    accountant.calls = calls
    return accountant


@st.composite
def _registers(draw):
    """``(wrap, totals, baselines)`` for the seven counter registers."""
    wrap = draw(st.booleans())
    totals, baselines = [], []
    for _name in EVENT_NAMES:
        kind = draw(st.sampled_from(("advance", "wrap", "noise", "any")))
        if kind == "advance":
            baseline = draw(st.floats(0.0, COUNTER_WRAP - 1.0))
            total = baseline + draw(st.floats(0.0, 1e10))
        elif kind == "wrap":
            # The register wrapped: it reads at least one event below the
            # baseline.
            baseline = draw(st.floats(1.0, COUNTER_WRAP - 1.0))
            total = draw(st.floats(0.0, baseline - 1.0))
            if wrap:
                total += COUNTER_WRAP
        elif kind == "noise":
            # Floating-point noise just below the baseline: no events.
            baseline = draw(st.floats(0.5, COUNTER_WRAP - 1.0))
            total = baseline - draw(st.floats(0.0, 0.5))
        else:
            baseline = draw(st.floats(0.0, COUNTER_WRAP - 1.0))
            total = draw(st.floats(0.0, 2.0 * COUNTER_WRAP))
        totals.append(total)
        baselines.append(baseline)
    return wrap, totals, baselines


def _prime(
    accountant, totals, baseline, ops, last_time=0.0, occupied=True,
    wrap=False,
):
    """Set every piece of state ``sample()`` reads, and clear the calls."""
    bank = accountant.core.counters
    bank.wrap = wrap
    for name, total in zip(EVENT_NAMES, totals):
        setattr(bank.totals, name, total)
    accountant._last = list(baseline)
    accountant._last_time = last_time
    accountant._pending_overhead_ops = ops
    accountant.occupied = occupied
    accountant.calls.clear()


def _charged_deltas(accountant):
    """The seven event deltas of the one ``_charge`` call made."""
    (call,) = accountant.calls
    return call[2:2 + len(EVENT_NAMES)]


_counts = st.lists(
    st.floats(0.0, 1e9), min_size=len(EVENT_NAMES), max_size=len(EVENT_NAMES),
)


# Each example exercises one branch per register, so a dropped wrap or
# clamp branch on a single register needs a few hundred examples to be
# caught reliably under the randomized profile.
@settings(max_examples=400)
@given(
    registers=_registers(),
    ops=st.integers(0, 10**6),
    last_time=st.floats(0.0, 100.0),
    step=st.floats(-1.0, 10.0),
    occupied=st.sampled_from((True, True, True, False)),
)
def test_sample_charges_what_the_vector_helpers_compute(
    accountant, registers, ops, last_time, step, occupied
):
    wrap, totals, baseline = registers
    _prime(accountant, totals, baseline, ops, last_time, occupied, wrap)
    now = last_time + step
    dt = now - last_time

    accountant.sample(now)

    snapshot = accountant.core.counters.read()
    assert accountant._last == [getattr(snapshot, n) for n in EVENT_NAMES]
    assert accountant._pending_overhead_ops == 0
    if dt <= 0.0 or not occupied:
        # Empty and idle intervals charge nothing; only an idle one moves
        # the interval start.
        assert accountant.calls == []
        assert accountant._last_time == (now if dt > 0.0 else last_time)
        return

    delta = wrapped_delta(snapshot, EventVector(*baseline))
    if ops:
        delta.subtract(accountant.observer.event_vector(ops), clamp=True)
    elapsed = accountant.core.freq_hz * dt
    metrics = [getattr(delta, n) / elapsed for n in EVENT_NAMES[:5]]
    metrics[0] = min(max(metrics[0], 0.0), 1.0)
    expected = (
        now, dt, *(getattr(delta, n) for n in EVENT_NAMES), *metrics, ops,
    )
    assert accountant.calls == [expected]
    assert accountant._last_time == now


def test_flush_at_one_instant_charges_once(sb_cal):
    """A second flush at the same instant (dt == 0) charges nothing."""
    sim, facility, containers = _facility(sb_cal)
    sim.run_until(1.25e-3)  # off the 1 ms OS-tick grid
    facility.flush()
    counts = [c.stats.sample_count for c in containers]
    energies = [c.energy(facility.primary) for c in containers]
    facility.flush()
    assert [c.stats.sample_count for c in containers] == counts
    assert [c.energy(facility.primary) for c in containers] == energies


def test_flush_skips_idle_cores(sb_cal):
    """Idle cores advance their baselines but charge no samples."""
    sim, facility, containers = _facility(sb_cal, occupy_every=2)
    sim.run_until(1.25e-3)  # off the 1 ms OS-tick grid
    before = [c.stats.sample_count for c in containers]
    facility.flush()
    for index, accountant in sorted(facility.accountants.items()):
        charged = containers[index].stats.sample_count - before[index]
        assert accountant.occupied == (index % 2 == 0)
        assert charged == (1 if accountant.occupied else 0)
        assert accountant._last_time == sim.now
        if not accountant.occupied:
            # No maintenance op ran after the read, so the baseline is
            # the register itself.
            snapshot = accountant.core.counters.read()
            assert accountant._last == [
                getattr(snapshot, n) for n in EVENT_NAMES
            ]


def test_flush_double_run_is_bit_identical(sb_cal):
    """Two identical runs of off-grid flush ticks replay bit for bit."""
    energies = []
    for _ in range(2):
        sim, facility, containers = _facility(sb_cal)
        now = 0.0
        for _ in range(15):
            now += 1.37e-3
            sim.run_until(now)
            facility.flush()
        primary = facility.primary
        energies.append(tuple(c.energy(primary) for c in containers))
    assert energies[0] == energies[1]


def test_multi_stage_run_charges_every_sample_to_one_stage(sb_cal):
    """On a seeded WeBWorK run (worker -> MySQL thread -> forked latex and
    dvipng, the Fig. 4 flow), every accounting sample lands in exactly
    one container, and each container's per-stage CPU time and energy
    add up to its totals.  The stage sums add the same terms in a
    different order, hence the relative tolerance."""
    from repro.workloads import WeBWorKWorkload, run_workload

    run = run_workload(
        WeBWorKWorkload(), SANDYBRIDGE, sb_cal,
        load_fraction=0.6, duration=1.0, warmup=0.2, seed=7,
    )
    facility = run.facility
    assert facility.conditioner is None
    facility.flush()
    containers = facility.registry.all_containers()
    samples = sum(a.samples_taken for a in facility.accountants.values())
    assert samples > 1000
    assert sum(c.stats.sample_count for c in containers) == samples
    primary = facility.primary
    staged = 0
    for container in containers:
        stats = container.stats
        if stats.sample_count == 0:
            continue
        assert sum(stats.stage_cpu_seconds.values()) == pytest.approx(
            stats.cpu_seconds, rel=1e-9
        )
        assert sum(stats.stage_energy_joules.values()) == pytest.approx(
            stats.energy_joules[primary], rel=1e-9
        )
        staged += len(stats.stage_cpu_seconds) > 1
    # Requests really crossed stages.
    assert staged > 10


@given(
    start=st.floats(0.0, COUNTER_WRAP - 1.0),
    delta=st.floats(0.0, 1e12),
)
def test_sample_recovers_deltas_across_a_wrap(accountant, start, delta):
    """Registers that wrapped mid-interval charge the physical delta."""
    _prime(accountant, [start + delta] * 7, [start] * 7, ops=0, wrap=True)
    accountant.sample(1e-3)
    snapshot = accountant.core.counters.read()
    expected = wrapped_delta(snapshot, EventVector(*[start] * 7))
    charged = _charged_deltas(accountant)
    assert charged == tuple(getattr(expected, n) for n in EVENT_NAMES)
    for value in charged:
        # One ulp of a 49-bit total is 1/8 event.
        assert value == pytest.approx(delta, abs=1.0)


@given(counts=_counts, ops=st.integers(0, 10**6))
def test_sample_observer_correction_clamps_at_zero(accountant, counts, ops):
    """Maintenance-op events come off the CPU deltas, never below zero;
    disk and network counts are never corrected."""
    _prime(accountant, counts, [0.0] * 7, ops)
    accountant.sample(1e-3)
    charged = _charged_deltas(accountant)
    overhead = accountant.observer.event_vector(ops)
    for name, raw, value in zip(EVENT_NAMES[:5], counts, charged):
        corrected = raw - getattr(overhead, name)
        assert value == (corrected if corrected > 0.0 else 0.0)
    assert charged[5:] == tuple(counts[5:])


@given(counts=_counts)
def test_sample_with_no_observer_ops_charges_raw_deltas(accountant, counts):
    _prime(accountant, counts, [0.0] * 7, ops=0)
    accountant.sample(1e-3)
    assert _charged_deltas(accountant) == tuple(counts)
    assert accountant.calls[0][-1] == 0


def test_sample_empty_interval_charges_nothing(accountant):
    """``dt <= 0`` charges nothing and keeps the interval start."""
    for now in (5.0, 5.0 - 1e-6):
        _prime(accountant, [1.0] * 7, [0.0] * 7, ops=3, last_time=5.0)
        accountant.sample(now)
        assert accountant.calls == []
        assert accountant._last_time == 5.0
        assert accountant._last == [1.0] * 7
        assert accountant._pending_overhead_ops == 0
