"""Discrete-event simulation engine underlying the reproduction.

The engine provides a virtual clock, a deterministic event queue, and
named random-number streams.  All other subsystems
(:mod:`repro.hardware`, :mod:`repro.kernel`, :mod:`repro.workloads`) run on
top of one :class:`~repro.sim.engine.Simulator` instance.
"""

from repro.sim.engine import Simulator, ScheduledEvent, SimulationError
from repro.sim.rng import RngHub

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "RngHub",
]
