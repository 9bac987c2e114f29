"""Tests for the per-client energy ledger."""

import pytest

from repro.core.clients import ClientEnergyLedger, ClientUsage
from repro.core.container import PowerContainer


def _container(cid, client, energy, rtype="read", cpu=0.01, io=0.0):
    c = PowerContainer(cid, meta={"client": client, "rtype": rtype})
    c.stats.cpu_seconds = cpu
    c.stats.energy_joules["recal"] = energy
    c.stats.io_energy_joules = io
    return c


def test_record_aggregates_per_client():
    ledger = ClientEnergyLedger()
    ledger.record(_container(1, "alice", 2.0))
    ledger.record(_container(2, "alice", 3.0))
    ledger.record(_container(3, "bob", 1.0))
    alice = ledger.usage("alice")
    assert alice.request_count == 2
    assert alice.energy_joules == pytest.approx(5.0)
    assert alice.mean_energy_per_request == pytest.approx(2.5)
    assert ledger.usage("bob").energy_joules == pytest.approx(1.0)


def test_io_energy_included_in_total():
    ledger = ClientEnergyLedger()
    ledger.record(_container(1, "alice", 2.0, io=0.5))
    assert ledger.usage("alice").energy_joules == pytest.approx(2.5)
    assert ledger.usage("alice").io_energy_joules == pytest.approx(0.5)


def test_unattributed_energy_tracked():
    ledger = ClientEnergyLedger()
    anon = PowerContainer(9)
    anon.stats.energy_joules["recal"] = 4.0
    assert ledger.record(anon) is None
    assert ledger.unattributed_joules == pytest.approx(4.0)
    assert ledger.total_joules == 0.0


def test_clients_sorted_by_energy():
    ledger = ClientEnergyLedger()
    ledger.record(_container(1, "small", 1.0))
    ledger.record(_container(2, "big", 10.0))
    ledger.record(_container(3, "mid", 5.0))
    assert ledger.clients() == ["big", "mid", "small"]


def test_by_request_type_breakdown():
    ledger = ClientEnergyLedger()
    ledger.record(_container(1, "alice", 2.0, rtype="read"))
    ledger.record(_container(2, "alice", 6.0, rtype="write"))
    usage = ledger.usage("alice")
    assert usage.by_request_type == {"read": pytest.approx(2.0),
                                     "write": pytest.approx(6.0)}
    assert usage.peak_request_energy == pytest.approx(6.0)


def test_billing():
    ledger = ClientEnergyLedger()
    ledger.record(_container(1, "alice", 100.0))
    bill = ledger.bill(joules_per_unit=10.0)
    assert bill["alice"] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        ledger.bill(0.0)


def test_unseen_client_empty_usage():
    ledger = ClientEnergyLedger()
    usage = ledger.usage("ghost")
    assert isinstance(usage, ClientUsage)
    assert usage.request_count == 0
    assert usage.mean_energy_per_request == 0.0


def test_end_to_end_client_attribution(sb_cal):
    """Containers from a live run, tagged with client ids, aggregate to
    the full measured request energy."""
    from repro.hardware import SANDYBRIDGE
    from repro.workloads import SolrWorkload, run_workload

    run = run_workload(
        SolrWorkload(), SANDYBRIDGE, sb_cal,
        load_fraction=0.4, duration=2.0, warmup=0.0, with_meter=False,
    )
    # Tag each completed request with one of three synthetic tenants.
    for result in run.driver.results:
        result.container.meta["client"] = f"tenant-{result.request_id % 3}"
    ledger = ClientEnergyLedger(approach="recal")
    ledger.record_all(r.container for r in run.driver.results)
    total = sum(r.energy("recal") for r in run.driver.results)
    assert ledger.total_joules == pytest.approx(total, rel=1e-9)
    assert len(ledger.clients()) == 3
