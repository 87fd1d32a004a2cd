"""Exception types raised by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class EventAlreadyTriggered(SimulationError):
    """Raised when ``succeed``/``fail`` is called on an already-triggered event."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`repro.sim.Simulator.run` early.

    User code may raise it from a callback to stop the run loop; the
    simulator catches it and returns normally.
    """
