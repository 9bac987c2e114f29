"""Shared fixtures and helpers for core-layer tests."""

import numpy as np
import pytest

from repro.core import (
    ChipShareEstimator,
    ContainerRegistry,
    CoreAccountant,
    PowerModel,
    calibrate_machine,
)
from repro.core.accounting import _Approach
from repro.hardware import SANDYBRIDGE, WOODCREST, build_machine
from repro.sim import Simulator


@pytest.fixture(scope="session")
def sb_cal():
    """Session-cached SandyBridge calibration."""
    return calibrate_machine(SANDYBRIDGE, duration=0.2)


@pytest.fixture(scope="session")
def wc_cal():
    """Session-cached Woodcrest calibration."""
    return calibrate_machine(WOODCREST, duration=0.2)


def linear_accountant(watts_at_full_mcore, primary="recal", registry=None):
    """A real :class:`CoreAccountant` on core 0 of a SandyBridge machine.

    ``watts_at_full_mcore`` maps each approach name to the coefficient of
    a one-feature model, so an approach estimates ``coefficient * mcore``
    watts.  Chip share and the observer effect are off, so a charged
    interval's energy is exactly that power times its length.
    """
    machine = build_machine(SANDYBRIDGE, Simulator())
    approaches = [
        _Approach(
            name,
            PowerModel(("mcore",), np.array([coefficient]), label=name),
            ChipShareEstimator(mode="none"),
        )
        for name, coefficient in watts_at_full_mcore.items()
    ]
    return CoreAccountant(
        machine.cores[0], machine,
        registry if registry is not None else ContainerRegistry(),
        approaches, primary, observer=None,
    )


def charge(accountant, container, start, end, mcore, duty_level=8,
           stage=None):
    """Run ``container`` on the accountant's core over ``[start, end]``.

    Drives the dispatch/undispatch protocol the facility uses: bind and
    sample at ``start``, retire ``mcore`` of the interval's cycles on the
    core at ``duty_level``, then sample and unbind at ``end``.
    """
    core = accountant.core
    core.set_duty_level(duty_level)
    accountant.sample_and_rebind(start, container.id, occupied=True,
                                 stage=stage)
    core.counters.totals.nonhalt_cycles += mcore * core.freq_hz * (end - start)
    accountant.sample_and_rebind(end, None, occupied=False)
