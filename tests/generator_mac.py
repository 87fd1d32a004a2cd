"""Test-only reference: the historical generator MAC engine.

:class:`~repro.mac.base.ContentionMac` drives its send path with a flat
callback state machine that was written to replay this engine's agenda
trace entry for entry (see the :mod:`repro.mac.base` docstring).  The
engine lives here, not in the package, because nothing but the
equivalence tests runs it: ``test_mac_flat.py`` checks traces against it
and ``test_determinism.py`` checks that it reproduces the pinned golden
digests.

Use :class:`GeneratorCsmaMac` / :class:`GeneratorDcfMac` directly, or
:func:`scenario_macs` to make ``run_scenario`` build them.
"""

from __future__ import annotations

import contextlib
import typing

import pytest

from repro.mac.csma import SensorCsmaMac
from repro.mac.dcf import DcfMac


class GeneratorEngine:
    """Mixin replacing the flat state machine with one worker process.

    Mix in ahead of a :class:`~repro.mac.base.ContentionMac` subclass.
    """

    def _init_flat(self) -> None:
        # Never wire the state machine; the worker process owns the loop.
        self._flat_wired = False
        self.sim.process(self._worker(), name=self.name)

    def power_down(self) -> None:
        # The worker cannot be cancelled mid-yield: its current contention
        # cycle runs to the _radio_ready gate (a few residual timer
        # events, no transmissions) and then parks on the wakeup it is
        # already waiting on.  Keep that event rather than the fresh one
        # the state machine re-parks on, so power_up's kick reaches the
        # worker.
        wakeup = self._wakeup
        super().power_down()
        self._wakeup = wakeup

    def _worker(self) -> typing.Generator:
        while True:
            while not self._queue and not self._ack_queue:
                yield self._wakeup
                self._wakeup = self.sim.event()
            if self._ack_queue:
                ack = self._ack_queue.popleft()
                yield from self._transmit_ack(ack)
                continue
            frame, done = self._queue.popleft()
            success = yield from self._send_with_retries(frame)
            if success:
                self.sent_ok += 1
            else:
                self.sent_failed += 1
            if not done.triggered:
                done.succeed(success)

    def _transmit_ack(self, ack) -> typing.Generator:
        """SIFS, then send the ACK without contending for the channel."""
        self._ack_in_progress = True
        try:
            yield self.sim.timeout(self.params.sifs_s)
            if not self._radio_ready():
                self.acks_dropped += 1
                return
            yield self.radio.transmit(ack)
        finally:
            self._ack_in_progress = False

    def _send_with_retries(self, frame) -> typing.Generator:
        needs_ack = frame.require_ack
        attempts = 1 + (self.params.max_retries if needs_ack else 0)
        ack_wait_s = self._ack_wait_s() if needs_ack else 0.0
        for attempt in range(attempts):
            if attempt > 0:
                self.retransmissions += 1
            yield from self._contend(attempt)
            if not self._radio_ready():
                return False
            yield self.radio.transmit(frame)
            if not needs_ack:
                return True
            ack_event = self.sim.event()
            key = (frame.dst, frame.seq)
            self._pending_ack[key] = ack_event
            timeout = self.sim.timeout(ack_wait_s)
            outcome = yield ack_event | timeout
            self._pending_ack.pop(key, None)
            if ack_event in outcome:
                # The ack won the race: cancel the dead timer so the
                # kernel discards it at pop time.
                timeout.cancel()
                return True
        return False

    def _contend(self, attempt: int) -> typing.Generator:
        """DIFS + random backoff; on a busy sense, re-draw with a doubled
        window (802.15.4's backoff-exponent increment)."""
        params = self.params
        busy_cap = params.busy_cap_slots or params.cw_max_slots
        window = params.contention_window(attempt)
        rng = self._rng
        if rng is None:
            rng = self._rng = self.sim.rng.stream(f"{self.name}.backoff")
        while True:
            slots = rng.randrange(window)
            yield self.sim.timeout(params.difs_s + slots * params.slot_s)
            if not self.medium_busy():
                return
            window = min(window * 2, max(busy_cap, window))


class GeneratorCsmaMac(GeneratorEngine, SensorCsmaMac):
    """The sensor CSMA MAC on the generator engine."""


class GeneratorDcfMac(GeneratorEngine, DcfMac):
    """The 802.11 DCF MAC on the generator engine."""


#: Engine name → (sensor MAC class, 802.11 MAC class).
MAC_CLASSES = {
    "flat": (SensorCsmaMac, DcfMac),
    "generator": (GeneratorCsmaMac, GeneratorDcfMac),
}
MAC_ENGINES = tuple(MAC_CLASSES)


@contextlib.contextmanager
def scenario_macs(engine: str) -> typing.Iterator[None]:
    """Inside the block, ``run_scenario`` builds ``engine``'s MACs."""
    from repro.models import scenario

    csma_mac, dcf_mac = MAC_CLASSES[engine]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "SensorCsmaMac", csma_mac)
        patch.setattr(scenario, "DcfMac", dcf_mac)
        yield
