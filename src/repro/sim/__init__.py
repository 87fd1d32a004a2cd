"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs.  The
paper evaluated BCP in an (unnamed) network simulator; since no off-line DES
library is available here, the kernel is implemented from scratch:

* :class:`Simulator` — clock, heap agenda, one run loop.
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` — the
  waitable primitives.
* :class:`Process` — generator-based active entities.
* :class:`RngRegistry` — named deterministic random streams.

The semantics deliberately mirror SimPy's (events trigger → agenda →
callbacks; processes yield events) so the model code reads like standard
simulation Python.
"""

from repro.sim.errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    StopSimulation,
)
from repro.sim.events import NORMAL, URGENT, AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.simulator import Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "NORMAL",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "URGENT",
    "derive_seed",
]
