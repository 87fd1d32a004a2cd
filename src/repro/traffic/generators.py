"""Traffic sources.

The evaluation drives each sender with constant-bit-rate traffic (0.2 or
2 kb/s of 32 B packets, Section 4.1).  Beyond CBR, the module provides a
Poisson source and an on/off burst source modelling EnviroMic-style audio
capture [Luo et al., ICDCS'07] — the paper's motivating example of an
application that fills BCP buffers quickly.

Every source is a chain of kernel callbacks: each emission re-arms one
pooled :class:`~repro.sim.events.Timeout` for the next, so a generated
packet costs one event dispatch and one ``submit(packet)`` call —
typically a routing agent's or BCP agent's ingestion method.  A source
counts what it generated so goodput can be computed.

Each chain enqueues exactly the agenda entries the pinned golden digests
and perfbench event counts were recorded with, as the MAC's state machine
does (:mod:`repro.mac.base`): one URGENT delay-0 start event at
construction, then one timeout per wait with the rng draws in the same
order, and a delay-0 :attr:`~_Source.finished` event once the source
stops.  Setting ``stop_s`` mid-run (the fault injector's kill) takes
effect at the next emission.
"""

from __future__ import annotations

import typing

from repro.net.packets import DataPacket
from repro.sim.events import URGENT, Event
from repro.units import BITS_PER_BYTE

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

SubmitFn = typing.Callable[[DataPacket], None]


class SourceStats:
    """What a source produced (the goodput denominator)."""

    def __init__(self) -> None:
        self.packets_generated = 0
        self.bits_generated = 0


class _Source:
    """State and the emit step shared by every source."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        dst: int,
        submit: SubmitFn,
        payload_bytes: int,
        stop_s: float | None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.dst = dst
        self.submit = submit
        self.payload_bits = payload_bytes * BITS_PER_BYTE
        self.stop_s = stop_s
        self.stats = SourceStats()
        #: Triggers (at delay 0) once the source has stopped generating.
        self.finished = Event(sim)
        # The subclass's first wait starts from an URGENT delay-0 event.
        start = Event(sim)
        start.callbacks.append(self._start)
        start._ok = True
        start._value = None
        sim._enqueue(start, delay=0.0, priority=URGENT)

    def _start(self, _event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _running(self) -> bool:
        return self.stop_s is None or self.sim.now < self.stop_s

    def _emit(self) -> None:
        stats = self.stats
        stats.packets_generated += 1
        stats.bits_generated += self.payload_bits
        self.submit(
            DataPacket(self.node_id, self.dst, self.payload_bits, self.sim.now)
        )


class CbrSource(_Source):
    """Constant-bit-rate source: one packet every ``payload_bits / rate``.

    Parameters
    ----------
    sim / node_id / dst:
        Kernel, the generating node, the destination (the sink).
    submit:
        Ingestion callback for generated packets.
    rate_bps:
        Application data rate (payload bits per second).
    payload_bytes:
        Per-packet payload (the paper's sensor packets are 32 B).
    start_jitter_s:
        The first packet is emitted after a uniform random delay in
        ``[0, interval + start_jitter_s)`` to desynchronize senders.
    stop_s:
        Generation stops at this time (None = never).
    rng:
        Random stream for jitter.
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        dst: int,
        submit: SubmitFn,
        rate_bps: float,
        payload_bytes: int = 32,
        start_jitter_s: float = 0.0,
        stop_s: float | None = None,
        rng: typing.Any = None,
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        super().__init__(sim, node_id, dst, submit, payload_bytes, stop_s)
        self.interval_s = self.payload_bits / rate_bps
        self._rng = rng or sim.rng.stream(f"traffic.cbr.{node_id}")
        self._jitter = start_jitter_s
        self._tick_cb = self._tick

    def _start(self, _event: Event) -> None:
        self.sim.timeout(
            self._rng.uniform(0.0, self.interval_s + self._jitter)
        ).callbacks.append(self._tick_cb)

    def _tick(self, _event: Event) -> None:
        if self._running():
            self._emit()
            self.sim.timeout(self.interval_s).callbacks.append(self._tick_cb)
        else:
            self.finished.succeed()


class PoissonSource(_Source):
    """Poisson arrivals with the given mean rate (memoryless sensing)."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        dst: int,
        submit: SubmitFn,
        mean_rate_bps: float,
        payload_bytes: int = 32,
        stop_s: float | None = None,
        rng: typing.Any = None,
    ):
        if mean_rate_bps <= 0:
            raise ValueError("rate must be positive")
        super().__init__(sim, node_id, dst, submit, payload_bytes, stop_s)
        self.mean_interval_s = self.payload_bits / mean_rate_bps
        self._rng = rng or sim.rng.stream(f"traffic.poisson.{node_id}")
        self._arrival_cb = self._arrival

    def _start(self, _event: Event | None = None) -> None:
        if self._running():
            self.sim.timeout(
                self._rng.expovariate(1.0 / self.mean_interval_s)
            ).callbacks.append(self._arrival_cb)
        else:
            self.finished.succeed()

    def _arrival(self, _event: Event) -> None:
        if self.stop_s is not None and self.sim.now >= self.stop_s:
            self.finished.succeed()
            return
        self._emit()
        self._start()


class AudioBurstSource(_Source):
    """EnviroMic-style on/off source: silence, then a dense audio clip.

    During an "on" period (an acoustic event) the source emits packets
    back-to-back at ``burst_rate_bps``; "off" periods are exponentially
    distributed silence.  This models the paper's observation that audio
    applications "accumulate data much faster, making performance almost
    real-time despite data buffering."
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        dst: int,
        submit: SubmitFn,
        burst_rate_bps: float = 64_000.0,
        burst_duration_s: float = 2.0,
        mean_silence_s: float = 60.0,
        payload_bytes: int = 32,
        stop_s: float | None = None,
        rng: typing.Any = None,
    ):
        if burst_rate_bps <= 0 or burst_duration_s <= 0 or mean_silence_s <= 0:
            raise ValueError("burst parameters must be positive")
        super().__init__(sim, node_id, dst, submit, payload_bytes, stop_s)
        self.burst_rate_bps = burst_rate_bps
        self.burst_duration_s = burst_duration_s
        self.mean_silence_s = mean_silence_s
        self._interval_s = self.payload_bits / burst_rate_bps
        self._burst_end = 0.0
        self._rng = rng or sim.rng.stream(f"traffic.audio.{node_id}")
        self._clip_cb = self._clip
        self._sample_cb = self._sample

    def _start(self, _event: Event | None = None) -> None:
        """Wait out one silence (or stop)."""
        if self._running():
            self.sim.timeout(
                self._rng.expovariate(1.0 / self.mean_silence_s)
            ).callbacks.append(self._clip_cb)
        else:
            self.finished.succeed()

    def _clip(self, _event: Event) -> None:
        self._burst_end = self.sim.now + self.burst_duration_s
        self._sample(_event)

    def _sample(self, _event: Event) -> None:
        if self.sim.now >= self._burst_end:
            self._start()
        elif self.stop_s is not None and self.sim.now >= self.stop_s:
            self.finished.succeed()
        else:
            self._emit()
            self.sim.timeout(self._interval_s).callbacks.append(self._sample_cb)
