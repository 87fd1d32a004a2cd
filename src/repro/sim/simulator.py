"""The discrete-event simulator: clock, agenda and run loop.

:class:`Simulator` keeps an agenda of triggered events ordered by
``(time, priority, sequence)``; the sequence number makes the ordering
total and deterministic (ties at the same time and priority process in
insertion order).  All model code — radios, MACs, BCP — runs inside event
callbacks driven by this loop.

The agenda is one binary heap of ``(time, priority, sequence, event)``
tuples owned by the simulator, and :meth:`Simulator.run` is one inlined
dispatch loop serving all three ``until`` forms (drain, horizon, event);
:meth:`Simulator.step` is the single-event API.  Every pinned golden
digest was recorded on this agenda.

Two kernel optimizations ride on the loop:

* **Timeout free-list** — :class:`~repro.sim.events.Timeout` is the
  kernel's hottest allocation (one per MAC wait, backoff and frame).
  After a timeout's callbacks run, if the loop holds the only remaining
  reference (a ``sys.getrefcount`` check — cheap and exact), the object
  is reset and parked on a bounded pool for :meth:`Simulator.timeout` to
  reuse instead of allocating.
* **Cancelled-event discard** — events killed via
  :meth:`Event.cancel() <repro.sim.events.Event.cancel>` are dropped at
  pop time, undelivered and uncounted in ``events_processed``, instead
  of being dispatched dead.  A cancelled ``Timeout`` that nothing else
  references (the MAC's abandoned ack timers) feeds the same free-list
  as a dispatched one.  Until then the dead entry stays queued, so
  :meth:`Simulator.peek` may report a time occupied only by cancelled
  entries; the clock never *advances* to such a time.
"""

from __future__ import annotations

import heapq
import sys
import typing

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import NORMAL, Event, Timeout
from repro.sim.rng import RngRegistry

#: Upper bound on the Timeout free-list.  Steady-state workloads cycle a
#: handful of timeouts per MAC; the cap only matters when a burst
#: drains at once, and keeping it small bounds worst-case retained memory.
_POOL_MAX = 1024

_INFINITY = float("inf")


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's random-stream registry
        (:attr:`rng`).  Two simulators built with the same seed and the same
        model produce identical traces.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> seen = []
    >>> _ = sim.call_later(2.5, lambda: seen.append(sim.now))
    >>> sim.run()
    >>> seen
    [2.5]
    """

    # Slots, not a dict: the run loop stores _now and the counters once
    # per event, and slot descriptors shave a measurable slice off those
    # hottest attribute accesses.
    __slots__ = (
        "_now",
        "_queue",
        "_sequence",
        "events_processed",
        "events_cancelled",
        "rng",
        "_pool",
    )

    def __init__(self, seed: int = 0):
        self._now = 0.0
        #: The agenda: a heap of ``(time, priority, sequence, event)``.
        #: The per-push sequence number makes the ordering total.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        #: Events processed so far — an ops counter ``repro bench`` and the
        #: fig benchmarks record alongside wall times.
        self.events_processed = 0
        #: Events discarded undelivered because they were cancelled
        #: before their agenda time came up.
        self.events_cancelled = 0
        #: Named deterministic random streams (see :class:`RngRegistry`).
        self.rng = RngRegistry(seed)
        # Recycled Timeout instances (see module docstring).
        self._pool: list[Timeout] = []

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ----------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending :class:`Event` owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        Hot path: reuses a pooled :class:`Timeout` when the run loop has
        proven one unreferenced, and inlines the field setup otherwise
        (mirroring ``Timeout.__init__`` — keep the two in sync).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        pool = self._pool
        if pool:
            event = pool.pop()
            event._value = value
            event.delay = delay
        else:
            event = Timeout.__new__(Timeout)
            event.sim = self
            event.callbacks = []
            event._value = value
            event._ok = True
            event._processed = False
            event._defused = False
            event._cancelled = False
            event.delay = delay
        # Inlined _enqueue: one method call per timer is measurable at
        # contention scale.
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (self._now + delay, NORMAL, seq, event))
        return event

    def call_at(
        self,
        when: float,
        fn: typing.Callable[..., None],
        *args: object,
        priority: int = NORMAL,
    ) -> Event:
        """Schedule plain callable ``fn(*args)`` at absolute time ``when``.

        The agenda entry carries ``when`` itself, not ``now + (when -
        now)``, which can round to a neighbouring float.  An ``URGENT``
        ``priority`` runs it ahead of the ``NORMAL`` events due at the
        same time.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self._now}); time is monotonic"
            )
        event = Event(self)
        event._value = None
        event.callbacks.append(lambda _event: fn(*args))
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (when, priority, seq, event))
        return event

    def call_later(
        self, delay: float, fn: typing.Callable[..., None], *args: object
    ) -> Event:
        """Schedule plain callable ``fn(*args)`` after ``delay`` seconds.

        Returns the underlying event so callers can compose or inspect it.
        """
        event = self.timeout(delay)
        event.callbacks.append(lambda _event: fn(*args))
        return event

    # -- agenda ----------------------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        """Insert a triggered event into the agenda (kernel internal)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = self._sequence
        self._sequence = seq + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none.

        May report a time occupied only by cancelled entries.
        """
        queue = self._queue
        return queue[0][0] if queue else _INFINITY

    def step(self) -> None:
        """Process exactly one live event (advancing the clock to it).

        Cancelled entries encountered on the way are discarded, so a
        step always dispatches; an agenda holding nothing but cancelled
        entries counts as empty.
        """
        queue = self._queue
        while True:
            if not queue:
                raise SimulationError("step() on an empty agenda")
            when, _priority, _seq, event = heapq.heappop(queue)
            if not event._cancelled:
                break
            self.events_cancelled += 1
        self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody waited on: surface it instead of dropping it.
            raise typing.cast(BaseException, event._value)

    def run(self, until: float | Event | None = None) -> object:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the agenda is empty.
            * a number — run all events with ``time <= until``, then set the
              clock to ``until``.
            * an :class:`Event` — run until that event is processed and
              return its value (raising if it failed).

        A :class:`~repro.sim.errors.StopSimulation` raised by a callback
        halts the loop early.
        """
        horizon = _INFINITY
        # The until-event form attaches a stop callback (SimPy's idiom).
        # It only records the dispatch; the loop breaks once the event's
        # whole callback list has run, so callbacks appended after the
        # hook still see the event.
        stop: list[Event] = []
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed.
                if not until._ok:
                    raise typing.cast(BaseException, until._value)
                return until._value
            until.callbacks.append(stop.append)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until {horizon} (now is {self._now})"
                )
        # Locals, not attribute lookups: a full-fidelity run pops hundreds
        # of thousands of events.
        queue = self._queue
        pop = heapq.heappop
        pool = self._pool
        getrefcount = sys.getrefcount
        timeout_type = Timeout
        halted = False
        try:
            while queue and queue[0][0] <= horizon:
                when, _priority, _seq, event = pop(queue)
                if event._cancelled:
                    self.events_cancelled += 1
                    # Cancelled timeouts recycle too (same refcount proof
                    # as below).  Their callbacks never ran, so the list
                    # is non-empty and must be cleared; _cancelled is the
                    # one extra flag to reset.  A timer something else
                    # still references (a model handle) has a higher
                    # refcount and falls through.
                    if type(event) is timeout_type and getrefcount(event) == 2:
                        event.callbacks.clear()
                        event._cancelled = False
                        pool.append(event)
                    continue
                self._now = when
                self.events_processed += 1
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                # One callback (a waiting continuation) is the common
                # case; skip the iterator for it.
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise typing.cast(BaseException, event._value)
                # Free-list: refcount 2 == the loop local + getrefcount's
                # argument — nothing else (no model code) still holds
                # the timeout, so it is safe to
                # reset and reuse.  Reattach the emptied callbacks list
                # rather than allocating a fresh one.  Only _processed
                # needs resetting here: timeout() overwrites _value and
                # delay on reuse, _defused is never consulted for a
                # timeout (_ok is always True), and a processed event
                # cannot have been cancelled.  The pool is trimmed to
                # _POOL_MAX once per run, not per event.
                if type(event) is timeout_type and getrefcount(event) == 2:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._processed = False
                    pool.append(event)
                if stop:
                    break
        except StopSimulation:
            halted = True
        finally:
            del pool[_POOL_MAX:]
        if isinstance(until, Event):
            if not stop:
                raise SimulationError(
                    "run(until=event) exhausted the agenda before the event fired"
                )
            if not until._ok:
                until._defused = True
                raise typing.cast(BaseException, until.value)
            return until.value
        if until is not None and not halted:
            self._now = max(self._now, horizon)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator t={self._now:.6f} agenda={len(self._queue)}>"
