"""Property-based tests for the energy-budget policy arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.core.budget import EnergyBudgetConditioner
from repro.core.container import PowerContainer
from repro.hardware import SANDYBRIDGE, build_machine
from repro.kernel import Kernel
from repro.sim import Simulator


def _conditioner(default=1.0, **kwargs):
    sim = Simulator()
    machine = build_machine(SANDYBRIDGE, sim)
    kernel = Kernel(machine, sim)
    return EnergyBudgetConditioner(kernel, default, **kwargs)


def _container_with_energy(joules):
    c = PowerContainer(1)
    c.stats.energy_joules["recal"] = joules
    return c


@given(
    budget=st.floats(min_value=0.01, max_value=100.0),
    spent=st.floats(min_value=0.0, max_value=200.0),
)
def test_property_remaining_is_budget_minus_spent(budget, spent):
    cond = _conditioner(default=budget)
    container = _container_with_energy(spent)
    assert cond.remaining(container) == pytest.approx(budget - spent)


@given(
    budget=st.floats(min_value=0.01, max_value=10.0),
    grants=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=5),
)
def test_property_grants_accumulate(budget, grants):
    cond = _conditioner(default=budget)
    container = _container_with_energy(0.0)
    for grant in grants:
        cond.grant(container, grant)
    assert cond.budget_of(container) == pytest.approx(budget + sum(grants))


@given(spent=st.floats(min_value=0.0, max_value=100.0))
def test_property_level_is_full_iff_within_budget(spent):
    cond = _conditioner(default=50.0)
    container = _container_with_energy(spent)
    level = cond._level_for(container)
    if spent < 50.0:
        assert level == 8
    else:
        assert level == cond.exhausted_duty_level
