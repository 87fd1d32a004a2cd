"""Traffic sources.

The evaluation drives each sender with constant-bit-rate traffic (0.2 or
2 kb/s of 32 B packets, Section 4.1).  Beyond CBR, the module provides a
Poisson source and an on/off burst source modelling EnviroMic-style audio
capture [Luo et al., ICDCS'07] — the paper's motivating example of an
application that fills BCP buffers quickly.  A source counts what it
generated so goodput can be computed.

A source pushes each packet (a :class:`~repro.net.packets.PacketRun` of
length 1) into its ``submit`` callback — a routing agent's or BCP agent's
ingestion method — from a chain of kernel callbacks: every emission
schedules the agenda entry of the next, so a pushed packet costs one
dispatch.  The first wait is armed at
construction, with its rng draw; setting ``stop_s`` mid-run (the fault
injector's kill) takes effect at the next emission, which ends the chain.

A CBR source's packets are due at times known in advance, so a consumer
that only needs them in bulk can pull them instead: after
:meth:`CbrSource.detach` no timer runs, and :meth:`CbrSource.take`
returns every packet due before a given time as one run, with one block
of ids.  The due times come from the same first draw and the same
repeated ``+= interval_s`` float additions the chain's clock performs,
so a pulled packet carries the ``created_s`` the pushed one would have.
BCP agents pull (:meth:`repro.core.bcp.BcpAgent.adopt`).
"""

from __future__ import annotations

import bisect
import itertools
import typing

from repro.net.packets import PacketRun
from repro.units import BITS_PER_BYTE

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

SubmitFn = typing.Callable[[PacketRun], None]


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

    def _running(self) -> bool:
        return self.stop_s is None or self.sim.now < self.stop_s

    def _emit(self) -> None:
        stats = self.stats
        stats.packets_generated += 1
        stats.bits_generated += self.payload_bits
        self.submit(
            PacketRun.new(self.node_id, self.dst, self.payload_bits, [self.sim.now])
        )


class CbrSource(_Source):
    """Constant-bit-rate source: one packet every ``payload_bits / rate``.

    Parameters
    ----------
    sim / node_id / dst:
        Kernel, the generating node, the destination (the sink).
    submit:
        Ingestion callback for generated packets (until :meth:`detach`).
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
        gap = self._rng.uniform(0.0, self.interval_s + start_jitter_s)
        #: Due times of the packets not yet taken, earliest first (pull
        #: mode); extended one ``+ interval_s`` at a time on demand.
        self._due = [sim.now + gap]
        #: The chain's first entry (what :meth:`detach` cancels); None
        #: once it has run.
        self._first = sim.schedule(gap, self._first_tick)
        self._tick_cb = self._tick

    def _first_tick(self, _arg: None) -> None:
        self._first = None
        self._tick(None)

    def _tick(self, _arg: None) -> None:
        if self._running():
            self._emit()
            self.sim.schedule(self.interval_s, self._tick_cb)

    # -- pull mode -----------------------------------------------------------

    def detach(self) -> None:
        """Cancel the timer chain before it starts; the caller pulls
        packets with :meth:`take` from now on."""
        if self._first is None:
            raise RuntimeError("detach() after the first packet was pushed")
        self.sim.cancel(self._first)

    def _extend(self, n: int) -> None:
        """Append the next ``n`` due times: the chain clock's repeated
        ``+= interval_s`` additions, run by ``accumulate``."""
        due = self._due
        due += itertools.islice(
            itertools.accumulate(
                itertools.repeat(self.interval_s, n), initial=due[-1]
            ),
            1,
            None,
        )

    def due_s(self, k: int = 0) -> float:
        """Due time of the ``k``-th packet not yet taken (0 = the next).

        A due time at or past ``stop_s`` is never generated.
        """
        if len(self._due) <= k:
            self._extend(k + 1 - len(self._due))
        return self._due[k]

    def take(self, until: float, inclusive: bool = False) -> PacketRun | None:
        """Generate every packet due before ``until`` (or at it, with
        ``inclusive``) and before ``stop_s``, and return them as one run
        (None if there are none)."""
        stop = self.stop_s
        if stop is not None and stop <= until:
            until, inclusive = stop, False
        due = self._due
        while due[-1] < until or inclusive and due[-1] == until:
            self._extend(int((until - due[-1]) / self.interval_s) + 1)
        # ``due`` ascends and now ends past ``until``.
        count = (bisect.bisect_right if inclusive else bisect.bisect_left)(
            due, until
        )
        if not count:
            return None
        bits = self.payload_bits
        run = PacketRun.new(self.node_id, self.dst, bits, due[:count])
        del due[:count]
        stats = self.stats
        stats.packets_generated += count
        stats.bits_generated += count * bits
        return run


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
        self._wait()

    def _wait(self) -> None:
        if self._running():
            self.sim.schedule(
                self._rng.expovariate(1.0 / self.mean_interval_s),
                self._arrival_cb,
            )

    def _arrival(self, _arg: None) -> None:
        if self.stop_s is not None and self.sim.now >= self.stop_s:
            return
        self._emit()
        self._wait()


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
        self._silence()

    def _silence(self) -> None:
        """Wait out one silence (or stop)."""
        if self._running():
            self.sim.schedule(
                self._rng.expovariate(1.0 / self.mean_silence_s),
                self._clip_cb,
            )

    def _clip(self, _arg: None) -> None:
        self._burst_end = self.sim.now + self.burst_duration_s
        self._sample(None)

    def _sample(self, _arg: None) -> None:
        if self.sim.now >= self._burst_end:
            self._silence()
        elif self.stop_s is None or self.sim.now < self.stop_s:
            self._emit()
            self.sim.schedule(self._interval_s, self._sample_cb)
