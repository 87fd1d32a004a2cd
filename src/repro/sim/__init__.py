"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs.  The
paper evaluated BCP in an (unnamed) network simulator; since no off-line DES
library is available here, the kernel is implemented from scratch:

* :class:`Simulator` — clock, heap agenda, one dispatch loop
  (``run(until=None|float)``), and the ``timeout`` / ``call_at`` /
  ``call_later`` timer helpers.
* :class:`Event`, :class:`Timeout` — one-shot occurrences that run their
  callbacks when the loop dispatches them.  An event only ever
  succeeds; there is no failure value to propagate.
* :class:`RngRegistry` — named deterministic random streams.

Every model (radio, MAC, BCP, traffic, faults) is a set of callbacks: a
continuation hangs on the kernel event it waits for, without SimPy's
generator processes.  Models hand out no futures either: a caller that
wants to hear when its MAC send or radio wake completes passes a
callback, which the model schedules with ``call_at`` at the instant of
completion.  A caller that passes none costs no agenda entry.
"""

from repro.sim.errors import EventAlreadyTriggered, SimulationError
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
    "Timeout",
    "URGENT",
    "derive_seed",
]
