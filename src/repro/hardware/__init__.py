"""Simulated multicore server hardware.

This package stands in for the paper's physical testbed: Intel Woodcrest,
Westmere, and SandyBridge machines with per-core hardware event counters,
per-core duty-cycle modulation, a chip-level shared maintenance power
domain, peripheral (disk/network) devices, and two power meters (an on-chip
RAPL-like package meter and a Wattsup-like wall meter, both with reporting
delay).

Ground-truth power is computed by :class:`~repro.hardware.power.TruePowerModel`
and integrated exactly over piecewise-constant activity intervals, so every
error reported by the accounting layer is genuine model error, as in the
paper.
"""

from repro.hardware.events import EventVector, RateProfile
from repro.hardware.counters import CounterBank, SampleMailbox
from repro.hardware.core import Core, DUTY_LEVELS
from repro.hardware.chip import Chip
from repro.hardware.power import TruePowerModel, PowerBreakdown, EnergyIntegrator
from repro.hardware.machine import Machine, DiskDevice, NetDevice
from repro.hardware.meters import PackageMeter, WallMeter, MeterSample
from repro.hardware.occupancy import OccupancyCounter
from repro.hardware.contention import CacheContentionModel
from repro.hardware.specs import (
    MachineSpec,
    SANDYBRIDGE,
    WOODCREST,
    WESTMERE,
    build_machine,
    spec_by_name,
)

__all__ = [
    "EventVector",
    "RateProfile",
    "CounterBank",
    "SampleMailbox",
    "Core",
    "DUTY_LEVELS",
    "Chip",
    "TruePowerModel",
    "PowerBreakdown",
    "EnergyIntegrator",
    "Machine",
    "DiskDevice",
    "NetDevice",
    "PackageMeter",
    "WallMeter",
    "MeterSample",
    "OccupancyCounter",
    "CacheContentionModel",
    "MachineSpec",
    "SANDYBRIDGE",
    "WOODCREST",
    "WESTMERE",
    "build_machine",
    "spec_by_name",
]
