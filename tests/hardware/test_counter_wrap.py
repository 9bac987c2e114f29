"""Tests for 48-bit counter wraparound handling."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware import CounterBank, EventVector
from repro.hardware.counters import COUNTER_WRAP, wrapped_delta


def test_unwrapped_bank_reads_raw_totals():
    bank = CounterBank()
    bank.accumulate(EventVector(nonhalt_cycles=COUNTER_WRAP + 100))
    assert bank.read().nonhalt_cycles == COUNTER_WRAP + 100


def test_wrapped_bank_reduces_modulo_width():
    bank = CounterBank(wrap=True)
    bank.accumulate(EventVector(nonhalt_cycles=COUNTER_WRAP + 100))
    assert bank.read().nonhalt_cycles == pytest.approx(100)


def test_wrapped_delta_plain_case():
    a = EventVector(nonhalt_cycles=1000)
    b = EventVector(nonhalt_cycles=4000)
    assert wrapped_delta(b, a).nonhalt_cycles == 3000


def test_wrapped_delta_recovers_across_wrap():
    before = EventVector(nonhalt_cycles=COUNTER_WRAP - 500)
    after = EventVector(nonhalt_cycles=700)  # wrapped: real delta 1200
    assert wrapped_delta(after, before).nonhalt_cycles == pytest.approx(1200)


def test_wrapped_delta_treats_fp_noise_as_zero():
    a = EventVector(instructions=1000.0)
    b = EventVector(instructions=1000.0 - 1e-7)
    assert wrapped_delta(b, a).instructions == 0.0


def test_accounting_correct_across_wrap(sb_cal=None):
    """End-to-end: an accountant reading wrapped registers attributes the
    right event counts across a wrap boundary."""
    from repro.core import calibrate_machine, PowerContainerFacility
    from repro.hardware import SANDYBRIDGE, build_machine, RateProfile
    from repro.kernel import Compute, Kernel
    from repro.sim import Simulator

    cal = calibrate_machine(SANDYBRIDGE, duration=0.1)
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    # Pre-load the counter near the wrap point, then enable wrapping.
    core = machine.cores[0]
    core.counters.accumulate(EventVector(
        nonhalt_cycles=COUNTER_WRAP - 2e6,
        instructions=COUNTER_WRAP - 2e6,
    ))
    core.counters.wrap = True
    core.counters.acknowledge_overflow()
    kernel = Kernel(machine, sim)
    facility = PowerContainerFacility(kernel, cal)
    # The accountant's baseline starts at the preloaded register value.
    baseline = facility.accountants[0]._last
    assert baseline[0] == core.counters.read().nonhalt_cycles
    container = facility.create_request_container("wrap-test")

    def program():
        yield Compute(cycles=8e6, profile=RateProfile(ipc=1.0))

    kernel.spawn(program(), "w", container_id=container.id, pinned_core=0)
    sim.run_until(0.1)
    facility.flush()
    assert container.stats.events.nonhalt_cycles == pytest.approx(8e6, rel=1e-3)


@given(
    start=st.floats(min_value=0, max_value=COUNTER_WRAP - 1),
    delta=st.floats(min_value=0, max_value=1e12),
)
def test_property_wrapped_delta_inverts_modular_addition(start, delta):
    before = EventVector(nonhalt_cycles=start)
    after = EventVector(nonhalt_cycles=(start + delta) % COUNTER_WRAP)
    recovered = wrapped_delta(after, before).nonhalt_cycles
    # abs tolerance: the double-precision ulp near 2**48 is ~0.03 events.
    assert recovered == pytest.approx(delta, rel=1e-9, abs=0.1)
