"""Pinned dispatch order of the kernel on the handshake-path cells.

The golden digests hash what a run produces, and a run's results often
cannot see the order of events that share an instant.  Starting BCP's
receiver watchdog at NORMAL instead of URGENT priority, or running the
post-ACK continuation inline instead of from its own delay-0 event,
leaves every results digest as it was, yet changes the agenda that
every later same-instant tie is broken on.

This test pins that agenda directly: the ``(time, priority)`` of every
entry the loop dispatches, in dispatch order, on the five cells behind
``GOLDEN_HANDSHAKE_DIGESTS``.  The loop takes each entry it dispatches
from one of two places, the heap (``heapq.heappop``) or the same-instant
lane (``deque.popleft``), so the test swaps the ``heapq`` and
``collections`` modules the simulator uses for wrappers that note each
live entry as it is taken; the simulator itself has no hook.
"""

import collections
import hashlib
import heapq
import types

import pytest

from repro.models.scenario import run_scenario
from repro.sim import simulator as simulator_module
from tests.test_determinism import GOLDEN_HANDSHAKE_DIGESTS, handshake_config

#: Dispatched events and the sha256 of their ``(time, priority)``
#: sequence, per handshake cell.
PINNED_AGENDA = {
    "ack-timeout-race": (
        4506, "40c0c1eed521efade5e5fcf3ca9d257d08078dd623ae5e0ded00c96e49d5a794"
    ),
    "crash-mid-burst": (
        163, "fc1770aac90a2a31aa8d14b6aa06c6b073372f8d920d8172a6a1ee340be38a3c"
    ),
    "full-receiver": (
        14903, "660c464e7c350a94c5fc17be50c5aafe2b0a46e1e98280183c3880a663544dab"
    ),
    "lossy": (
        4039, "4b97e85b91ffa6f6f8429be54f022462eebcd183e8025e29ae184988dbfb2def"
    ),
    "timeout-storm": (
        67476, "6f48bcae0535dce9c3a64ca491aa1e82892dcfceeba0b4044793dbf3520f1fa0"
    ),
}


def dispatch_order(config, monkeypatch):
    """Run ``config``; return the count and digest of its dispatches."""
    digest = hashlib.sha256()
    count = 0

    def record(entry):
        nonlocal count
        if entry[3] is not None:  # cancelled entries are not dispatched
            count += 1
            digest.update(f"{entry[0]!r} {entry[1]}\n".encode())
        return entry

    def heappop(queue):
        return record(heapq.heappop(queue))

    class Lane(collections.deque):
        def popleft(self):
            return record(super().popleft())

    monkeypatch.setattr(
        simulator_module,
        "heapq",
        types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop),
    )
    monkeypatch.setattr(
        simulator_module, "collections", types.SimpleNamespace(deque=Lane)
    )
    run_scenario(config)
    return count, digest.hexdigest()


def test_pins_cover_every_handshake_cell():
    assert sorted(PINNED_AGENDA) == sorted(GOLDEN_HANDSHAKE_DIGESTS)


@pytest.mark.parametrize("name", sorted(PINNED_AGENDA))
def test_dispatch_order_matches_pin(name, monkeypatch):
    assert dispatch_order(handshake_config(name), monkeypatch) == PINNED_AGENDA[name]
