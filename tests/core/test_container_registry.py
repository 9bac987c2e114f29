"""Tests for power containers and the registry."""

import pytest

from repro.core import ContainerRegistry, PowerContainer
from repro.core.registry import BACKGROUND_CONTAINER_ID
from tests.core.conftest import charge, linear_accountant


def _spent(container, cpu_seconds, joules, approach="recal"):
    """A container that has already run: CPU time and energy set."""
    container.stats.cpu_seconds = cpu_seconds
    container.stats.energy_joules[approach] = joules
    return container


def test_registry_has_background_container():
    reg = ContainerRegistry()
    assert reg.get(None).id == BACKGROUND_CONTAINER_ID
    assert reg.get(None) is reg.background


def test_create_assigns_unique_ids():
    reg = ContainerRegistry()
    a = reg.create("req-a")
    b = reg.create("req-b")
    assert a.id != b.id
    assert a.id != BACKGROUND_CONTAINER_ID


def test_get_unknown_id_materializes_remote_container():
    reg = ContainerRegistry()
    c = reg.get(12345)
    assert c.id == 12345
    assert reg.get(12345) is c


def test_refcount_lifecycle_closes_container():
    reg = ContainerRegistry()
    c = reg.create("req")
    reg.incref(c.id)
    reg.incref(c.id)
    reg.decref(c.id)
    assert not c.closed
    reg.decref(c.id)
    assert c.closed


def test_background_never_closes():
    reg = ContainerRegistry()
    reg.incref(None)
    reg.decref(None)
    reg.decref(None)  # over-decrement is tolerated
    assert not reg.background.closed


def test_request_containers_excludes_background():
    reg = ContainerRegistry()
    reg.create("a")
    reg.create("b")
    assert len(reg.request_containers()) == 2
    assert len(reg.all_containers()) == 3


def test_label_prefix_filter():
    reg = ContainerRegistry()
    reg.create("solr-1")
    reg.create("solr-2")
    reg.create("gae-1")
    assert len(reg.with_label_prefix("solr")) == 2


def test_record_interval_accumulates_stats():
    """Two charged intervals on a real accountant accumulate events,
    per-approach energy, CPU time, duty and the activity window."""
    accountant = linear_accountant({"eq2": 10.0, "recal": 12.0})
    c = accountant.registry.create("req")
    freq = accountant.core.freq_hz
    charge(accountant, c, 0.999, 1.0, mcore=1.0)
    charge(accountant, c, 1.0, 1.001, mcore=0.5, duty_level=4)
    assert c.stats.cpu_seconds == pytest.approx(0.002)
    assert c.energy("eq2") == pytest.approx(0.01 + 0.005)
    assert c.energy("recal") == pytest.approx(0.012 + 0.006)
    assert c.stats.events.nonhalt_cycles == pytest.approx(1.5e-3 * freq)
    assert c.stats.sample_count == 2
    assert c.stats.mean_duty_ratio == pytest.approx(0.75)
    assert c.stats.first_activity == pytest.approx(0.999)
    assert c.stats.last_activity == pytest.approx(1.001)


def test_mean_power_is_energy_over_cpu_time():
    c = _spent(PowerContainer(1), cpu_seconds=0.5, joules=5.0)
    assert c.mean_power("recal") == pytest.approx(10.0)


def test_mean_power_zero_when_never_scheduled():
    assert PowerContainer(1).mean_power("recal") == 0.0


def test_total_energy_includes_io():
    c = _spent(PowerContainer(1), cpu_seconds=0.1, joules=1.0)
    c.stats.io_energy_joules = 0.5
    assert c.total_energy("recal") == pytest.approx(1.5)


def test_observe_power_ewma_projection():
    """The primary approach's power, divided by the duty ratio, feeds the
    full-speed EWMA (alpha 0.3), seeded by the first charge."""
    accountant = linear_accountant({"recal": 10.0})
    c = accountant.registry.create("req")
    charge(accountant, c, 0.0, 0.001, mcore=0.5, duty_level=4)
    assert c.last_power_watts["recal"] == pytest.approx(5.0)
    assert c.full_speed_power_ewma == pytest.approx(10.0)
    charge(accountant, c, 0.001, 0.002, mcore=0.8)
    assert c.full_speed_power_ewma == pytest.approx(0.7 * 10.0 + 0.3 * 8.0)


def test_observe_power_without_ewma_update():
    """Every approach records its last power; only the primary moves the
    full-speed EWMA."""
    accountant = linear_accountant({"eq1": 10.0, "recal": 20.0})
    c = accountant.registry.create("req")
    charge(accountant, c, 0.0, 0.001, mcore=0.5)
    assert c.last_power_watts == {
        "eq1": pytest.approx(5.0), "recal": pytest.approx(10.0)
    }
    assert c.full_speed_power_ewma == pytest.approx(10.0)


def test_export_carried_delta_never_double_counts():
    c = _spent(PowerContainer(1), cpu_seconds=0.1, joules=1.0)
    first = c.export_carried_delta()
    assert first["energy:recal"] == pytest.approx(1.0)
    second = c.export_carried_delta()
    assert second["energy:recal"] == pytest.approx(0.0)
    _spent(c, cpu_seconds=0.2, joules=1.5)
    third = c.export_carried_delta()
    assert third["energy:recal"] == pytest.approx(0.5)


def test_merge_carried_adds_remote_stats():
    c = PowerContainer(1)
    c.stats.merge_carried(
        {"cpu_seconds": 0.2, "io_energy_joules": 0.1, "energy:recal": 2.0}
    )
    assert c.stats.cpu_seconds == pytest.approx(0.2)
    assert c.stats.io_energy_joules == pytest.approx(0.1)
    assert c.energy("recal") == pytest.approx(2.0)


def test_export_then_merge_round_trip():
    remote = _spent(PowerContainer(7), cpu_seconds=0.3, joules=3.0)
    local = PowerContainer(7)
    local.stats.merge_carried(remote.export_carried_delta())
    assert local.energy("recal") == pytest.approx(3.0)
    assert local.stats.cpu_seconds == pytest.approx(0.3)


def test_total_energy_sums_over_registry():
    reg = ContainerRegistry()
    a = reg.create("a")
    b = reg.create("b")
    _spent(a, cpu_seconds=0.1, joules=1.0)
    _spent(b, cpu_seconds=0.1, joules=2.0)
    b.stats.io_energy_joules = 0.5
    assert reg.total_energy("recal") == pytest.approx(3.5)
