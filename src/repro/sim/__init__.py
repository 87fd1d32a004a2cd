"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs.  The
paper evaluated BCP in an (unnamed) network simulator; since no off-line DES
library is available here, the kernel is implemented from scratch:

* :class:`Simulator` — clock, agenda and one dispatch loop
  (``run(until=None|float)``).  An agenda entry is a plain callback,
  ``[time, priority, sequence, fn, arg]``, scheduled with ``schedule`` /
  ``call_at`` / ``call_later`` and abandoned with ``cancel``; NORMAL
  entries due at the current instant wait in a FIFO lane beside the
  heap.
* :class:`Event` — a one-shot occurrence for several waiters, or for a
  value handed to the waiter; ``Simulator.timeout`` builds one that
  fires by itself.  An event only ever succeeds; there is no failure
  value to propagate.
* :class:`RngRegistry` — named deterministic random streams.

Every model (radio, MAC, BCP, traffic, faults) is a set of callbacks: a
continuation is the agenda entry that resumes it, without SimPy's
generator processes.  Models hand out no futures either: a caller that
wants to hear when its MAC send, radio transmission or radio wake
completes passes a callback, which the model schedules at the instant
of completion.  A caller that passes none costs no agenda entry.
"""

from repro.sim.errors import EventAlreadyTriggered, SimulationError
from repro.sim.events import NORMAL, URGENT, Event
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.simulator import Simulator

__all__ = [
    "Event",
    "EventAlreadyTriggered",
    "NORMAL",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "URGENT",
    "derive_seed",
]
