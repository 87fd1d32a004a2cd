"""The discrete-event simulator: clock, agenda and run loop.

:class:`Simulator` keeps an agenda of callbacks ordered by ``(time,
priority, sequence)``; the sequence number makes the ordering total and
deterministic (ties at the same time and priority run in insertion
order).  All model code — radios, MACs, BCP — runs inside callbacks
driven by this loop.

Each agenda entry is one mutable list, ``[time, priority, sequence, fn,
arg]``, and dispatching it is the call ``fn(arg)``.  Models schedule
bound methods directly (:meth:`Simulator.schedule`); there is no other
kind of entry.  :meth:`Simulator.cancel` clears the entry's ``fn`` in
place: the loop pops the dead entry when its time comes up and counts
it in ``events_cancelled`` instead of ``events_processed``, and the
clock never *advances* to a time occupied only by dead entries.

The entries live in two places:

* **the heap** — a binary heap of every entry due later than now, and
  of the URGENT entries due now;
* **the lane** — a FIFO ``deque`` of the NORMAL entries whose computed
  time equals the clock when they are scheduled (delay 0, or a delay
  the clock's float absorbs).  They are due at once and in insertion
  order, so they skip the heap's push and pop.

Whenever the lane is not empty, :meth:`Simulator.run` takes the heap's
top first if it is due now.  A heap entry due now is either URGENT or a
NORMAL entry scheduled before the clock reached now, so it precedes
every lane entry in ``(time, priority, sequence)`` order: the two
places dispatch exactly the order one heap of all entries would.  Every
pinned golden digest was recorded on that order.
"""

from __future__ import annotations

import collections
import heapq
import typing

from repro.sim.errors import SimulationError
from repro.sim.rng import RngRegistry

_INFINITY = float("inf")

#: Scheduling priority for entries that must run before ordinary ones at
#: the same timestamp (the MAC's and BCP's start entries).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1

#: One agenda entry: ``[time, priority, sequence, fn, arg]``.
Entry = list


def _call(fn: typing.Callable[[], None]) -> None:
    """Agenda callback for a :meth:`Simulator.call_at` with no arguments."""
    fn()


def _call_star(call: tuple) -> None:
    """Agenda callback for a :meth:`Simulator.call_at` with several."""
    fn, args = call
    fn(*args)


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
    # per entry, and slot descriptors shave a measurable slice off those
    # hottest attribute accesses.
    __slots__ = (
        "_now",
        "_queue",
        "_lane",
        "_sequence",
        "events_processed",
        "events_cancelled",
        "rng",
    )

    def __init__(self, seed: int = 0):
        self._now = 0.0
        #: The heap of entries (see the module docstring).
        self._queue: list[Entry] = []
        #: The same-instant FIFO lane of NORMAL entries due now.
        self._lane: collections.deque[Entry] = collections.deque()
        self._sequence = 0
        #: Entries dispatched so far — an ops counter ``repro bench`` and
        #: the fig benchmarks record alongside wall times.
        self.events_processed = 0
        #: Entries discarded undelivered because they were cancelled
        #: before their agenda time came up.
        self.events_cancelled = 0
        #: Named deterministic random streams (see :class:`RngRegistry`).
        self.rng = RngRegistry(seed)

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: typing.Callable[[typing.Any], None],
        arg: object = None,
        priority: int = NORMAL,
    ) -> Entry:
        """Run ``fn(arg)`` ``delay`` seconds from now; returns the entry.

        The hot path every model timer takes.  ``priority`` is
        :data:`NORMAL` or :data:`URGENT`; an URGENT entry runs ahead of
        the NORMAL ones due at the same time.  Pass the returned entry to
        :meth:`cancel` to abandon it.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        now = self._now
        when = now + delay
        seq = self._sequence
        self._sequence = seq + 1
        entry = [when, priority, seq, fn, arg]
        if when == now and priority == NORMAL:
            self._lane.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, entry: Entry) -> None:
        """Abandon ``entry``: the loop discards it instead of running it.

        Marks the entry dead in place (the agenda is never searched) and
        drops its references.  A no-op on an entry already dispatched.
        """
        entry[3] = None
        entry[4] = None

    def call_at(
        self,
        when: float,
        fn: typing.Callable[..., None],
        *args: object,
        priority: int = NORMAL,
    ) -> Entry:
        """Schedule plain callable ``fn(*args)`` at absolute time ``when``.

        The agenda entry carries ``when`` itself, not ``now + (when -
        now)``, which can round to a neighbouring float.  An ``URGENT``
        ``priority`` runs it ahead of the ``NORMAL`` entries due at the
        same time.  Returns the entry, for :meth:`cancel`.
        """
        now = self._now
        if when < now:
            raise SimulationError(
                f"cannot schedule at {when} (now is {now}); time is monotonic"
            )
        if len(args) == 1:
            entry = [when, priority, self._sequence, fn, args[0]]
        elif args:
            entry = [when, priority, self._sequence, _call_star, (fn, args)]
        else:
            entry = [when, priority, self._sequence, _call, fn]
        self._sequence += 1
        if when == now and priority == NORMAL:
            self._lane.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        return entry

    def call_later(
        self, delay: float, fn: typing.Callable[..., None], *args: object
    ) -> Entry:
        """Schedule plain callable ``fn(*args)`` after ``delay`` seconds.

        Returns the entry, for :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    # -- the loop --------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the agenda is empty.
            * a number — run all entries with ``time <= until``, then set
              the clock to ``until``.

        An exception raised by a callback propagates out of ``run``.
        """
        horizon = _INFINITY
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until {horizon} (now is {self._now})"
                )
        # Locals, not attribute lookups: a full-fidelity run dispatches
        # hundreds of thousands of entries.
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        now = self._now
        while True:
            if lane:
                # A heap entry due now precedes every lane entry (see the
                # module docstring).
                if queue and queue[0][0] <= now:
                    entry = pop(queue)
                else:
                    entry = popleft()
            elif queue and queue[0][0] <= horizon:
                entry = pop(queue)
            else:
                break
            when, _priority, _seq, fn, arg = entry
            if fn is None:
                self.events_cancelled += 1
                continue
            self._now = now = when
            self.events_processed += 1
            fn(arg)
        if until is not None:
            self._now = max(self._now, horizon)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Simulator t={self._now:.6f} "
            f"agenda={len(self._queue) + len(self._lane)}>"
        )
