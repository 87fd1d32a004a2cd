"""Event primitives for the discrete-event kernel.

The agenda itself holds plain callbacks (see
:mod:`repro.sim.simulator`); an :class:`Event` is the thin helper for the
cases that need more than one: several waiters on one occurrence, or a
value handed to whoever waits.  An :class:`Event` starts *pending*;
calling :meth:`Event.succeed` *triggers* it, which schedules one agenda
entry for it; when the simulator dispatches that entry, the event
becomes *processed* and its callbacks run.  Events only succeed: a model
reports a bad outcome as a value (a MAC send reports
``on_done(False)``), never as a failure the kernel must propagate.
"""

from __future__ import annotations

import typing

from repro.sim.errors import EventAlreadyTriggered, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: Sentinel stored in ``Event._value`` while the event has not triggered.
PENDING = object()

#: Scheduling priority for entries that must run before ordinary ones at
#: the same timestamp (the MAC's and BCP's start entries).
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
    value and an agenda entry) → *processed* (callbacks have run).  Both
    transitions are one-way; re-triggering raises
    :class:`~repro.sim.errors.EventAlreadyTriggered`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_entry", "_cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables ``fn(event)`` invoked when the event is processed;
        #: None once they have run.
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        #: The agenda entry while triggered and undispatched, else None.
        #: Dropped at dispatch: the entry's argument is this event, and
        #: keeping both would make every dispatched event a cycle.
        self._entry: list | None = None
        self._cancelled = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has a value and is (or was) on the agenda."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

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
        sim = self.sim
        entry = sim.schedule(0.0, _dispatch, self)
        if self._cancelled:
            # Cancelled while pending: the entry still takes its place on
            # the agenda, and the loop discards it when it comes up.
            sim.cancel(entry)
        else:
            self._entry = entry
        return self

    def cancel(self) -> bool:
        """Abandon the event: the kernel discards it instead of dispatching.

        Marks the event's agenda entry dead *in place* — the agenda is
        never searched.  When the entry's time comes up the run loop
        still pops it, but drops it undelivered: callbacks never run, the
        event never becomes *processed*, and it counts in
        ``Simulator.events_cancelled`` rather than ``events_processed``.

        A no-op after the event has been processed (callbacks already
        ran; there is nothing left to suppress).  Returns whether the
        cancellation took effect.
        """
        if self.callbacks is None:
            return False
        self._cancelled = True
        entry = self._entry
        if entry is not None:
            self._entry = None
            self.sim.cancel(entry)
        return True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` marked this event dead before dispatch."""
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.callbacks is None
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def _dispatch(event: Event) -> None:
    """The agenda callback of a triggered event: run its callbacks."""
    event._entry = None
    callbacks, event.callbacks = event.callbacks, None
    for callback in callbacks:
        callback(event)
