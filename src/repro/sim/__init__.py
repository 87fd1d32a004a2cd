"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs.  The
paper evaluated BCP in an (unnamed) network simulator; since no off-line DES
library is available here, the kernel is implemented from scratch:

* :class:`Simulator` — clock, agenda and one dispatch loop
  (``run(until=None|float)``).  An agenda entry is a plain callback,
  ``[time, priority, sequence, fn, arg]``, scheduled with ``schedule`` /
  ``call_at`` / ``call_later`` and abandoned with ``cancel``; NORMAL
  entries due at the current instant wait in a FIFO lane beside the
  heap; an URGENT entry runs ahead of the NORMAL ones due with it.
* :class:`RngRegistry` — named deterministic random streams.

Every model (radio, MAC, BCP, traffic, faults) is a set of callbacks: a
continuation is the agenda entry that resumes it, without SimPy's
generator processes.  A wait for whichever of two things comes first
(BCP's WAKEUP-ACK or its timeout) is two entries with one callback that
keeps the first arrival and ignores the other.  Models hand out no
futures either: a caller that wants to hear when its MAC send, radio
transmission or radio wake completes passes a callback, which the model
schedules at the instant of completion.  A caller that passes none
costs no agenda entry.
"""

from repro.sim.errors import SimulationError
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.simulator import NORMAL, URGENT, Simulator

__all__ = [
    "NORMAL",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "URGENT",
    "derive_seed",
]
