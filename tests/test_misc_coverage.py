"""Targeted tests for smaller API surfaces across packages."""

import pytest

from repro.core.container import PowerContainer
from repro.hardware import (
    RateProfile,
    SANDYBRIDGE,
    WESTMERE,
    build_machine,
    spec_by_name,
)
from repro.kernel import Compute, Kernel, NetIO
from repro.sim import Simulator
from tests.core.conftest import charge, linear_accountant


def test_spec_with_overrides_is_a_copy():
    modified = SANDYBRIDGE.with_overrides(overflow_threshold_cycles=1e6)
    assert modified.overflow_threshold_cycles == 1e6
    assert SANDYBRIDGE.overflow_threshold_cycles == 3.1e6
    assert modified.n_cores == SANDYBRIDGE.n_cores


def test_spec_release_years_ordered():
    assert spec_by_name("woodcrest").release_year < \
        spec_by_name("westmere").release_year < \
        spec_by_name("sandybridge").release_year


def test_netio_action_blocks_and_charges_nic():
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    done_at = []

    def program():
        yield NetIO(nbytes=1_250_000)  # 10 ms at 125 MB/s
        done_at.append(sim.now)

    kernel.spawn(program(), "uploader")
    sim.run_until(1.0)
    expected = machine.net.base_latency_sec + 1_250_000 / 125e6
    assert done_at == [pytest.approx(expected, rel=1e-6)]
    machine.checkpoint()
    assert machine.integrator.peripheral_joules == pytest.approx(
        5.8 * expected, rel=1e-6
    )


def test_negative_io_rejected():
    from repro.kernel import DiskIO
    with pytest.raises(ValueError):
        DiskIO(nbytes=-1)
    with pytest.raises(ValueError):
        NetIO(nbytes=-1)
    with pytest.raises(ValueError):
        Compute(cycles=-1, profile=RateProfile())


def test_sleep_rejects_negative():
    from repro.kernel import Sleep
    with pytest.raises(ValueError):
        Sleep(-0.1)


def test_stage_breakdown_unit():
    """Per-stage energy is the primary approach's (``eq1`` is charged
    after it, at a different power, and must not leak into the stages)."""
    accountant = linear_accountant({"recal": 20.0, "eq1": 5.0})
    c = accountant.registry.create("req")
    charge(accountant, c, 0.99, 1.0, mcore=1.0, stage="apache")
    charge(accountant, c, 1.08, 1.1, mcore=0.75, stage="mysql")
    charge(accountant, c, 1.19, 1.2, mcore=0.5, stage="apache")
    assert c.stats.stage_energy_joules == {
        "apache": pytest.approx(0.2 + 0.1), "mysql": pytest.approx(0.3)
    }
    assert c.stats.stage_cpu_seconds["apache"] == pytest.approx(0.02)
    assert c.stats.stage_mean_power("apache") == pytest.approx(15.0)
    assert c.stats.stage_mean_power("ghost") == 0.0


def test_stage_breakdown_without_stage_is_skipped():
    accountant = linear_accountant({"recal": 20.0})
    c = accountant.registry.create("req")
    charge(accountant, c, 0.99, 1.0, mcore=1.0)
    assert c.energy("recal") == pytest.approx(0.2)
    assert c.stats.stage_energy_joules == {}


def test_learn_type_profiles_unit(tmp_path):
    from repro.analysis.prediction import learn_type_profiles

    class _FakeDriver:
        def __init__(self, results):
            self.results = results

    class _FakeRun:
        def __init__(self, results):
            self.driver = _FakeDriver(results)

    from repro.requests import RequestResult

    def _result(rtype, energy, cpu):
        c = PowerContainer(1)
        c.stats.cpu_seconds = cpu
        c.stats.energy_joules["recal"] = energy
        return RequestResult(0, rtype, 0.0, 1.0, c)

    run = _FakeRun([
        _result("read", 1.0, 0.01),
        _result("read", 3.0, 0.03),
        _result("write", 10.0, 0.05),
    ])
    profiles = learn_type_profiles(run, "recal")
    assert profiles["read"].mean_energy_joules == pytest.approx(2.0)
    assert profiles["read"].mean_cpu_seconds == pytest.approx(0.02)
    assert profiles["read"].sample_count == 2
    assert profiles["write"].sample_count == 1


def test_westmere_overflow_threshold_about_one_millisecond():
    machine = build_machine(WESTMERE, Simulator())
    threshold = machine.cores[0].counters.overflow_threshold_cycles
    assert threshold / WESTMERE.freq_hz == pytest.approx(1e-3, rel=1e-6)
