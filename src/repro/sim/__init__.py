"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs.  The
paper evaluated BCP in an (unnamed) network simulator; since no off-line DES
library is available here, the kernel is implemented from scratch:

* :class:`Simulator` — clock, heap agenda, one run loop, and the
  ``call_at`` / ``call_later`` timer helpers.
* :class:`Event`, :class:`Timeout` — one-shot occurrences that run their
  callbacks when the loop dispatches them.
* :class:`RngRegistry` — named deterministic random streams.

Every model (radio, MAC, BCP, traffic, faults) is a set of callbacks: a
continuation hangs on the event it waits for, the way SimPy's events run
callbacks, without SimPy's generator processes.
"""

from repro.sim.errors import (
    EventAlreadyTriggered,
    SimulationError,
    StopSimulation,
)
from repro.sim.events import NORMAL, URGENT, Event, Timeout
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.simulator import Simulator

__all__ = [
    "Event",
    "EventAlreadyTriggered",
    "NORMAL",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "URGENT",
    "derive_seed",
]
