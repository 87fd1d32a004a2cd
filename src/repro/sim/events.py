"""Event primitives for the discrete-event kernel.

The design follows the classic "event with callbacks" model (the same one
SimPy uses): an :class:`Event` starts *pending*; calling :meth:`Event.succeed`
or :meth:`Event.fail` *triggers* it, which schedules it on the simulator's
agenda; when the simulator pops it, the event becomes *processed* and its
callbacks run.  Model code chains its continuations as callbacks on the
events it waits for.
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
        "_ok",
        "_processed",
        "_defused",
        "_cancelled",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables ``fn(event)`` invoked when the event is processed.
        self.callbacks: list[typing.Callable[["Event"], None]] | None = []
        self._value: object = PENDING
        self._ok: bool = True
        self._processed = False
        self._defused = False
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
    def ok(self) -> bool:
        """Whether the event succeeded (meaningless until triggered)."""
        return self._ok

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
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay=0.0, priority=NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` as its value.

        Its callbacks see ``ok`` False.  Unless one of them calls
        :meth:`defuse`, the simulator raises the exception to the caller
        of ``run`` once they have run (errors must never pass silently).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, delay=0.0, priority=NORMAL)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise it."""
        self._defused = True

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
    """An event that fires automatically ``delay`` seconds in the future.

    Unlike a plain :class:`Event`, a timeout is scheduled on construction and
    cannot be triggered manually.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        if delay < 0:
            # Same exception as Simulator._enqueue: a negative delay is a
            # scheduling error wherever it is caught.
            raise SimulationError(f"negative delay {delay!r}")
        # Field init is inlined (rather than chaining through
        # Event.__init__) deliberately: timeouts are the kernel's hottest
        # allocation — one per MAC wait, backoff and frame — and the
        # super() call was measurable.  Keep in sync with Event.__init__
        # and with the pooled fast path in Simulator.timeout().
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self.delay = delay
        sim._enqueue(self, delay=delay, priority=NORMAL)

    def succeed(self, value: object = None) -> "Event":
        raise EventAlreadyTriggered("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":
        raise EventAlreadyTriggered("Timeout events trigger themselves")
