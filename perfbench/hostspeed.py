"""Host-speed probes: time a fixed reference kernel beside a timed region.

On a shared virtual machine other tenants' load slows this process by up
to a half, in phases of seconds to minutes, and CPU time grows with wall
time, so neither clock is steady on its own.  A probe times a small
fixed pure-Python kernel (heap, object, dict and call work, like the
simulator's, and independent of ``repro``).  Timed regions read
:meth:`HostSpeed.clock`, which leaves out the time the probes took, and
:func:`normalised` reads a region's wall against the probes taken in it.

Probes run at the start and end of every region and, from a ``SIGALRM``
interval timer, every :data:`INTERVAL_S` inside it.  The handler runs
between bytecodes of the simulator's own thread; no thread or process
is started.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
import statistics
import time
import typing

#: Seconds between probes inside a timed region.
INTERVAL_S = 0.05

#: The median probe time in the fast phases of the host the first
#: reading was taken on (2-vCPU Intel Xeon VM, 2.0 GHz, Python 3.11).
#: Normalised times are seconds at that speed.
REFERENCE_PROBE_S = 0.001

#: How much of the probe's slow-down a timed region shares.  On that
#: host the slow phases stretch the probe by up to 1.7x but set-up and
#: cells by only 1.3-1.5x; a log-log fit of set-up and cell walls on the
#: probe times beside them gave slopes of 0.73 and 0.59.  Dividing by the
#: whole probe ratio over-corrects by as much as the raw wall is off.
ELASTICITY = 0.65


class _Token:
    __slots__ = ("at", "node", "tags")

    def __init__(self, at: float, node: int) -> None:
        self.at = at
        self.node = node
        self.tags: dict[int, int] = {}


def _kernel() -> int:
    heap = [(float(i % 17), i) for i in range(64)]
    heapq.heapify(heap)
    total = 0
    for step in range(1000):
        at, node = heapq.heappop(heap)
        token = _Token(at, node)
        token.tags[node & 7] = step
        total += len(token.tags)
        heapq.heappush(heap, (at + 1.0 + (step % 5) * 0.3, (node * 7 + step) % 97))
    return total


class HostSpeed:
    """Probe times, and a clock that leaves them out."""

    def __init__(self) -> None:
        self._spent = 0.0

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in probes."""
        return time.perf_counter() - self._spent

    def _probe(self, sink: list[float]) -> None:
        # Garbage the kernel makes is collected after it, in the timed
        # region it interrupted, so no collection of the region's own
        # garbage is charged to a probe.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        sink.append(took)
        self._spent += took

    @contextlib.contextmanager
    def probing(self) -> typing.Iterator[list[float]]:
        """Probe at entry, every :data:`INTERVAL_S` and at exit; yields
        the list the probe times go to."""
        probes: list[float] = []
        self._probe(probes)
        previous = signal.signal(signal.SIGALRM, lambda *_: self._probe(probes))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield probes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._probe(probes)


def normalised(seconds: float, probes: list[float]) -> float:
    """``seconds`` of a region, in seconds at the reference speed.

    The probe time is the mean of the middle half of the region's
    probes: a region that spans fast and slow phases is read against
    both, and a probe the scheduler preempted does not count.
    """
    ordered = sorted(probes)
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter]
    return seconds * (REFERENCE_PROBE_S / statistics.fmean(middle)) ** ELASTICITY
