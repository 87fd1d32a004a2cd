"""Event primitives for the discrete-event kernel.

The design follows the classic "event with callbacks" model (the same one
SimPy uses): an :class:`Event` starts *pending*; calling :meth:`Event.succeed`
*triggers* it, which schedules it on the simulator's agenda; when the
simulator pops it, the event becomes *processed* and its callbacks run.
Model code chains its continuations as callbacks on the events it waits
for.  Events only succeed: a model reports a bad outcome as a value
(a MAC send reports ``on_done(False)``), never as a failure the kernel
must propagate.
"""

from __future__ import annotations

import typing

from repro.sim.errors import EventAlreadyTriggered, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: Sentinel stored in ``Event._value`` while the event has not triggered.
PENDING = object()

#: Scheduling priority for events that must run before ordinary ones at the
#: same timestamp (the MAC's and BCP's start events).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.simulator.Simulator` that owns this event.

    Notes
    -----
    An event moves through three states: *pending* → *triggered* (it has a
    value and sits in the agenda) → *processed* (callbacks have run).  Both
    transitions are one-way; re-triggering raises
    :class:`~repro.sim.errors.EventAlreadyTriggered`.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_processed",
        "_cancelled",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables ``fn(event)`` invoked when the event is processed.
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        self._processed = False
        self._cancelled = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has a value and is (or was) on the agenda."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def value(self) -> object:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value`` and schedule it."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._value = value
        self.sim._enqueue(self, delay=0.0, priority=NORMAL)
        return self

    def cancel(self) -> bool:
        """Abandon the event: the kernel discards it instead of dispatching.

        Marks the event dead *in place* — the agenda is never searched.
        When the entry's time comes up the run loop still pops it, but
        the kernel drops it undelivered: callbacks never run, the event
        never becomes *processed*, and it counts in
        ``Simulator.events_cancelled`` rather than ``events_processed``.
        This is how model code walks away from a wait it no longer needs
        (a MAC's ack-wait timeout after the ack arrived) without leaving
        dead events for the loop to dispatch.

        A no-op after the event has been processed (callbacks already
        ran; there is nothing left to suppress).  Returns whether the
        cancellation took effect.
        """
        if self._processed:
            return False
        self._cancelled = True
        return True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` marked this event dead before dispatch."""
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires by itself ``delay`` seconds after its creation.

    Build one with :meth:`Simulator.timeout
    <repro.sim.simulator.Simulator.timeout>`, which schedules it at once
    (and reuses a recycled instance when it can).  A timeout is created
    triggered, so calling :meth:`succeed` on it raises
    :class:`~repro.sim.errors.EventAlreadyTriggered`.
    """

    __slots__ = ("delay",)
