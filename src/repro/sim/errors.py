"""Exception types raised by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""
