"""Tests for machine assembly, ground-truth power, and energy integration."""

import pytest

from repro.hardware import (
    RateProfile,
    SANDYBRIDGE,
    WOODCREST,
    WESTMERE,
    build_machine,
    spec_by_name,
)
from repro.sim import Simulator

SPIN = RateProfile(name="spin", ipc=1.0)


@pytest.fixture
def sb():
    sim = Simulator()
    return build_machine(SANDYBRIDGE, sim), sim


def test_topology_sandybridge(sb):
    machine, _ = sb
    assert machine.n_cores == 4
    assert len(machine.chips) == 1
    assert [c.index for c in machine.cores] == [0, 1, 2, 3]


def test_topology_woodcrest():
    sim = Simulator()
    machine = build_machine(WOODCREST, sim)
    assert machine.n_cores == 4
    assert len(machine.chips) == 2
    assert machine.cores[0].chip is machine.chips[0]
    assert machine.cores[2].chip is machine.chips[1]


def test_topology_westmere():
    machine = build_machine(WESTMERE, Simulator())
    assert machine.n_cores == 12
    assert len(machine.chips) == 2


def test_spec_by_name_round_trip():
    assert spec_by_name("sandybridge") is SANDYBRIDGE
    with pytest.raises(KeyError):
        spec_by_name("epyc")


def test_idle_machine_draws_only_idle_power(sb):
    machine, _ = sb
    breakdown = machine.power_breakdown()
    assert breakdown.active_watts == 0.0
    assert breakdown.machine_watts == pytest.approx(26.1)
    # Package still draws its idle floor.
    assert breakdown.package_watts[0] == pytest.approx(2.2)


def test_one_busy_core_includes_maintenance(sb):
    machine, _ = sb
    machine.cores[0].begin_activity(SPIN)
    breakdown = machine.power_breakdown()
    model = SANDYBRIDGE.true_model
    expected_core = model.w_core + model.w_ins * SPIN.ipc
    assert breakdown.per_core_watts[0] == pytest.approx(expected_core)
    assert breakdown.maintenance_watts[0] == pytest.approx(5.6)
    assert breakdown.active_watts == pytest.approx(expected_core + 5.6)


def test_maintenance_charged_once_per_chip_not_per_core(sb):
    machine, _ = sb
    machine.cores[0].begin_activity(SPIN)
    one = machine.power_breakdown().active_watts
    machine.cores[1].begin_activity(SPIN)
    two = machine.power_breakdown().active_watts
    # Second core adds only its core-level power, no second maintenance.
    assert (two - one) < (one - 0.0)
    per_core = machine.power_breakdown().per_core_watts[1]
    assert two - one == pytest.approx(per_core)


def test_woodcrest_second_chip_adds_maintenance():
    machine = build_machine(WOODCREST, Simulator())
    machine.cores[0].begin_activity(SPIN)  # chip 0
    one = machine.power_breakdown().active_watts
    machine.cores[2].begin_activity(SPIN)  # chip 1
    two = machine.power_breakdown().active_watts
    per_core = machine.power_breakdown().per_core_watts[2]
    maintenance = WOODCREST.true_model.maintenance_watts
    assert two - one == pytest.approx(per_core + maintenance)


def test_duty_cycle_scales_core_power_linearly(sb):
    machine, _ = sb
    core = machine.cores[0]
    core.begin_activity(SPIN)
    full = machine.power_breakdown().per_core_watts[0]
    core.set_duty_level(4)  # 4/8 = half speed
    half = machine.power_breakdown().per_core_watts[0]
    assert half == pytest.approx(full / 2)


def test_hidden_watts_contribute_to_truth(sb):
    machine, _ = sb
    plain = RateProfile(name="plain", ipc=1.0)
    hidden = RateProfile(name="hot", ipc=1.0, hidden_watts=4.0)
    machine.cores[0].begin_activity(plain)
    base = machine.power_breakdown().per_core_watts[0]
    machine.cores[0].begin_activity(hidden)
    hot = machine.power_breakdown().per_core_watts[0]
    assert hot - base == pytest.approx(4.0)


def test_energy_integration_piecewise_exact(sb):
    machine, sim = sb
    machine.checkpoint()
    sim.run_until(1.0)
    machine.checkpoint()  # 1 s idle
    machine.cores[0].begin_activity(SPIN)
    sim.run_until(3.0)
    machine.checkpoint()  # 2 s with one spinning core
    idle = 26.1
    active = machine.power_breakdown().active_watts
    expected = idle * 3.0 + active * 2.0
    assert machine.integrator.machine_joules == pytest.approx(expected)
    assert machine.integrator.active_joules == pytest.approx(active * 2.0)


def test_checkpoint_is_idempotent_at_same_time(sb):
    machine, sim = sb
    sim.run_until(1.0)
    machine.checkpoint()
    before = machine.integrator.machine_joules
    machine.checkpoint()
    assert machine.integrator.machine_joules == before


def test_per_core_and_maintenance_energy_split(sb):
    machine, sim = sb
    machine.cores[0].begin_activity(SPIN)
    machine.checkpoint()
    sim.run_until(2.0)
    machine.checkpoint()
    per_core = machine.integrator.per_core_joules(0)
    maint = machine.integrator.maintenance_joules(0)
    model = SANDYBRIDGE.true_model
    assert per_core == pytest.approx((model.w_core + model.w_ins) * 2.0)
    assert maint == pytest.approx(5.6 * 2.0)


def test_package_energy_includes_package_idle(sb):
    machine, sim = sb
    machine.checkpoint()
    sim.run_until(5.0)
    machine.checkpoint()
    assert machine.integrator.package_joules(0) == pytest.approx(2.2 * 5.0)


def test_impulse_energy_charged_to_core_and_package(sb):
    machine, _ = sb
    machine.integrator.add_impulse(0.5, core_index=1)
    assert machine.integrator.machine_joules == pytest.approx(0.5)
    assert machine.integrator.per_core_joules(1) == pytest.approx(0.5)
    assert machine.integrator.package_joules(0) == pytest.approx(0.5)


def test_disk_transfer_power_and_timing(sb):
    machine, sim = sb
    duration = machine.disk.begin_transfer(1_000_000)
    assert duration == pytest.approx(4e-3 + 1_000_000 / 100e6)
    assert machine.power_breakdown().peripheral_watts == pytest.approx(1.7)
    sim.run_until(duration)
    machine.disk.end_transfer()
    assert machine.power_breakdown().peripheral_watts == 0.0
    assert machine.integrator.peripheral_joules == pytest.approx(1.7 * duration)


def test_net_and_disk_power_are_additive(sb):
    machine, _ = sb
    machine.disk.begin_transfer(1000)
    machine.net.begin_transfer(1000)
    assert machine.power_breakdown().peripheral_watts == pytest.approx(1.7 + 5.8)


def test_ending_transfer_without_start_raises(sb):
    machine, _ = sb
    with pytest.raises(RuntimeError):
        machine.disk.end_transfer()


def test_run_for_cycles_requires_active_profile(sb):
    machine, _ = sb
    with pytest.raises(RuntimeError):
        machine.cores[0].run_for_cycles(100)


def test_core_cycles_seconds_round_trip(sb):
    machine, _ = sb
    core = machine.cores[0]
    core.set_duty_level(4)
    cycles = 3.1e6
    assert core.cycles_for_seconds(core.seconds_for_cycles(cycles)) == pytest.approx(cycles)


def test_duty_level_bounds(sb):
    machine, _ = sb
    core = machine.cores[0]
    with pytest.raises(ValueError):
        core.set_duty_level(0)
    with pytest.raises(ValueError):
        core.set_duty_level(9)


def test_sandybridge_calibration_table_shape():
    """The true model reproduces the published Section 4.1 maxima."""
    model = SANDYBRIDGE.true_model
    assert model.w_core * 4 == pytest.approx(33.1)           # Ccore * Mmax
    assert model.w_ins * 10 == pytest.approx(12.4)           # Cins * Mmax
    assert model.w_cache * 0.08 == pytest.approx(13.9)       # Ccache * Mmax
    assert model.w_mem * 0.04 == pytest.approx(8.2)          # Cmem * Mmax
    assert model.maintenance_watts == pytest.approx(5.6)     # Cchipshare * Mmax
    assert model.idle_machine_watts == pytest.approx(26.1)   # Cidle
    assert model.disk_active_watts == pytest.approx(1.7)
    assert model.net_active_watts == pytest.approx(5.8)


def test_energy_for_events_matches_power_times_time():
    model = SANDYBRIDGE.true_model
    profile = RateProfile(ipc=2.0, cache_per_cycle=0.01)
    events = profile.events_for_cycles(3.1e6)  # 1 ms at 3.1 GHz
    joules = model.energy_for_events(events, freq_hz=3.1e9)
    watts = model.core_active_watts(1.0, 2.0, 0.0, 0.01, 0.0, 0.0)
    assert joules == pytest.approx(watts * 1e-3)


def test_energy_for_zero_events_is_zero():
    model = SANDYBRIDGE.true_model
    from repro.hardware import EventVector
    assert model.energy_for_events(EventVector(), 3.1e9) == 0.0
