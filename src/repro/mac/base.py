"""The contention MAC engine shared by the sensor CSMA and 802.11 DCF MACs.

Both MACs follow the same skeleton — carrier sense, random backoff,
transmit, stop-and-wait ACK with binary exponential backoff on retry — and
differ only in their timing constants (:mod:`repro.mac.timing`).  The engine
serializes the node's transmissions (radios are half-duplex), with MAC-level
ACKs taking priority over queued data as SIFS < DIFS implies.

Receiver-side duties: ACK generation for addressed data frames, duplicate
suppression (retransmissions after a lost ACK), and upward delivery through
a pluggable callback.

The send path is a flat callback state machine: every continuation is a
plain bound-method callback on the event that resumes it, backoff/ack
timers come from the kernel's :class:`Timeout` free-list, and
ack-completion events are pooled per MAC.

It replays, entry for entry, the agenda of the one-worker-per-MAC
generator engine it replaced: same timeout values, same priorities,
same rng draw order from the same ``{name}.backoff`` stream.  That
includes the delay-0 "hop" event each ack wait enqueues where the old
engine's first-of-two wait used to fire.  The hop events carry no
behaviour of their own, but they take agenda sequence numbers, so they
decide the ``(time, priority, sequence)`` order of everything queued at
the same instant.  Every pinned golden digest and benchmark pin was
recorded with them in place, so they stay until a deliberate re-pin
drops them.  The test suite pins the engine's traces on a fixed set of
traffic plans.
"""

from __future__ import annotations

import collections
import typing

from repro.mac.frames import Frame, FrameKind, make_ack
from repro.mac.timing import MacParams
from repro.radio.radio import RadioPort
from repro.sim.events import NORMAL, PENDING, URGENT, Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: How many recent sequence numbers to remember per peer for dedup.
_DEDUP_WINDOW = 64

#: Upper bound on pooled ack-completion events retained per MAC.
_ACK_POOL_MAX = 4


class ContentionMac:
    """Carrier-sense MAC with stop-and-wait ACKs.

    Parameters
    ----------
    sim / radio / params:
        Kernel, the radio port to drive, timing constants.
    name:
        RNG stream / trace label; defaults to ``mac.<node>.<radio>``.

    Notes
    -----
    Use :meth:`send` to enqueue a frame; the returned event's value is
    ``True`` on MAC-level success (ACK received, or frame sent for
    no-ACK frames) and ``False`` when the retry budget is exhausted or
    the queue overflowed.
    """

    def __init__(
        self,
        sim: "Simulator",
        radio: RadioPort,
        params: MacParams,
        name: str | None = None,
    ):
        self.sim = sim
        self.radio = radio
        self.params = params
        self.name = name or f"mac.{radio.node_id}.{radio.spec.name}"
        # The backoff stream materializes on first contention: its seed is
        # a pure function of the stream *name*, so deferring creation is
        # trace-identical — and a 10k-node fleet skips 20k sha256 seed
        # derivations for MACs that never transmit.
        self._rng: typing.Any = None
        radio.set_receiver(self._on_frame)
        radio.preamble_s = params.preamble_s
        self._queue: collections.deque[tuple[Frame, Event]] = collections.deque()
        self._ack_queue: collections.deque[Frame] = collections.deque()
        self._pending_ack: dict[tuple[int, int], Event] = {}
        # Dedup windows: per-peer (deque, set) pairs — the deque keeps
        # FIFO insertion order for eviction, the set answers membership in
        # O(1) on the hot receive path.
        self._seen: dict[int, tuple[collections.deque, set]] = {}
        self._seq = 0
        self._wakeup = sim.event()
        self._ack_in_progress = False
        self._on_data: typing.Callable[[Frame], None] | None = None
        #: Statistics: drops by cause.
        self.sent_ok = 0
        self.sent_failed = 0
        self.queue_drops = 0
        self.retransmissions = 0
        #: ACKs abandoned because the radio was not ready after SIFS (the
        #: half-duplex race documented on :meth:`_on_sifs`).
        self.acks_dropped = 0
        #: Frames dropped (queued or in flight) because :meth:`power_down`
        #: killed the node; only fault injection moves this.
        self.power_down_drops = 0
        self._init_flat()

    # -- upper-layer wiring -------------------------------------------------

    def set_data_handler(self, callback: typing.Callable[[Frame], None]) -> None:
        """Install the network layer's delivery callback."""
        self._on_data = callback

    def next_seq(self) -> int:
        """Allocate the next MAC sequence number."""
        self._seq += 1
        return self._seq

    @property
    def has_pending_ack(self) -> bool:
        """Whether a MAC-level ACK is queued or on the air.

        BCP consults this before sleeping the radio so that the final
        frame of a burst still gets acknowledged.
        """
        return bool(self._ack_queue) or self._ack_in_progress

    # -- send path ------------------------------------------------------------

    def send(self, frame: Frame) -> Event:
        """Enqueue ``frame``; the event resolves True/False on completion."""
        done = self.sim.event()
        if self._powered_down:
            self.power_down_drops += 1
            done.succeed(False)
            return done
        if len(self._queue) >= self.params.queue_capacity:
            self.queue_drops += 1
            done.succeed(False)
            return done
        if frame.seq == 0:
            frame.seq = self.next_seq()
        self._queue.append((frame, done))
        self._kick()
        return done

    def _kick(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def medium_busy(self) -> bool:
        """Carrier-sense result at this node.

        O(1): the medium keeps a per-node busy refcount incrementally, so
        backoff loops can sense as often as they like without scanning the
        active-transmission list.
        """
        return self.radio.medium.is_busy_for(self.radio.node_id)

    def _ack_wait_s(self) -> float:
        ack_airtime = (
            self.params.preamble_s + self.params.ack_bits / self.radio.rate_bps
        )
        return self.params.sifs_s + ack_airtime + self.params.ack_timeout_margin_s

    def _radio_ready(self) -> bool:
        """Whether the radio can transmit right now (subclass hook)."""
        return not self._powered_down and not self.radio.is_transmitting

    # -- send-path state machine ------------------------------------------------
    #
    # The callback state machine below replays the historical generator
    # engine's agenda trace entry for entry (see the module docstring).
    # The correspondence, per continuation:
    #
    # * worker start        → one URGENT delay-0 event at construction
    #                         (where the worker's start event was);
    # * ``yield wakeup``    → ``_on_wakeup`` attached to the same pending
    #                         ``self._wakeup`` event ``_kick`` triggers; a
    #                         kick that lands while the machine is busy
    #                         dispatches the wakeup with no callbacks (the
    #                         generator's no-op resume of an unwaited
    #                         event) and is consumed inline when idle;
    # * ``yield timeout``   → a bound-method callback on the same pooled
    #                         ``Timeout`` (backoff, SIFS, ack wait);
    # * ``yield transmit``  → callback appended in the same third slot of
    #                         the medium's end event;
    # * ``yield ack|timer`` → whichever child fires first enqueues one
    #                         pooled delay-0 NORMAL "hop" event — exactly
    #                         where the first-of-two condition was
    #                         enqueued — and the continuation runs from
    #                         the hop's dispatch.  The loser's agenda entry
    #                         (late ack / cancelled timer) is left to pop
    #                         exactly as the generator leaves it.
    #
    # Identical enqueue points ⇒ identical ``(time, priority, seq)``
    # ordering ⇒ identical rng draw order and golden digests.

    def _init_flat(self) -> None:
        # Construction stays light: a 10k-node fleet builds 20k MACs, most
        # of which never transmit, so the callback/constant wiring below
        # (`_wire_flat`) is deferred until the machine first has work.
        # Only the start event touches the agenda, and it is enqueued here
        # exactly where the generator engine enqueued its own — the
        # machine enters its dispatch loop at the current time, ahead of
        # same-time NORMALs, so the trace is unchanged.
        self._flat_wired = False
        sim = self.sim
        start = Event(sim)
        start.callbacks.append(self._on_start)
        start._ok = True
        start._value = None
        sim._enqueue(start, delay=0.0, priority=URGENT)

    def _wire_flat(self) -> None:
        sim = self.sim
        self._flat_wired = True
        self._wakeup_cb = self._on_wakeup
        self._sifs_cb = self._on_sifs
        self._ack_tx_end_cb = self._on_ack_tx_end
        self._backoff_cb = self._on_backoff
        self._tx_end_cb = self._on_tx_end
        self._ack_event_cb = self._on_ack_event
        self._ack_timeout_cb = self._on_ack_timeout
        self._hop_cb = self._on_hop
        # Hot-path constants and bound methods, resolved once: the backoff
        # redraw loop runs tens of thousands of times on contention-heavy
        # cells, and every attribute hop it skips is measurable.  All of
        # these are immutable for the lifetime of the MAC (timing params
        # are frozen, the radio's medium and spec never change).
        params = self.params
        radio = self.radio
        self._timeout = sim.timeout
        self._difs_s = params.difs_s
        self._slot_s = params.slot_s
        self._sifs_s = params.sifs_s
        self._busy_cap = params.busy_cap_slots or params.cw_max_slots
        self._acked_attempts = 1 + params.max_retries
        # Contention windows depend only on the attempt number; tabulate
        # the ladder once instead of recomputing it per frame.
        self._cw_by_attempt = tuple(
            params.contention_window(a) for a in range(self._acked_attempts)
        )
        self._ack_wait = self._ack_wait_s()
        self._is_busy_for = radio.medium.is_busy_for
        self._node_id = radio.node_id
        self._randrange: typing.Any = None
        # In-flight item state (one item at a time: the machine is serial).
        self._cur_frame: Frame | None = None
        self._cur_done: Event | None = None
        self._cur_ack: Frame | None = None
        self._cur_needs_ack = False
        self._cur_attempt = 0
        self._cur_attempts = 0
        self._cur_window = 0
        self._cur_key: tuple[int, int] | None = None
        # Ack-wait plumbing: the outstanding completion event/timer and
        # which of them resolved the wait (None = unresolved, True = ack,
        # False = timeout).
        self._ack_event: Event | None = None
        self._ack_timer: Event | None = None
        self._resolved: bool | None = None
        self._ack_pool: list[Event] = []
        self._hop_event: Event | None = None
        self._hop_callbacks: list | None = None
        # Fault-injection handles on the in-flight continuation: the
        # pending SIFS/backoff timer and the radio end event our callback
        # rides on.  Both are cleared at the TOP of their callbacks — the
        # kernel recycles dispatched timeouts through a free-list gated on
        # refcount, so a ref held across the dispatch would block reuse
        # (and a stale one could cancel an innocent recycled timer).
        self._flat_timer: Event | None = None
        self._flat_tx_end: Event | None = None

    def _on_start(self, event: Event) -> None:
        if self._powered_down:
            # Killed before the construction-time start event popped.
            return
        if not self._queue and not self._ack_queue:
            # Nothing to do yet: park on the wakeup event without paying
            # for the full wiring (the overwhelmingly common case in a
            # large fleet — the generator engine parks the same way).
            self._wakeup.callbacks.append(self._on_wakeup)
            return
        self._wire_flat()
        self._resume_loop()

    def _resume_loop(self) -> None:
        """The worker loop's head: acks first, then data, then park."""
        while True:
            if self._ack_queue:
                self._cur_ack = self._ack_queue.popleft()
                self._ack_in_progress = True
                timer = self._timeout(self._sifs_s)
                timer.callbacks.append(self._sifs_cb)
                self._flat_timer = timer
                return
            if self._queue:
                frame, done = self._queue.popleft()
                self._cur_frame = frame
                self._cur_done = done
                needs_ack = frame.require_ack
                self._cur_needs_ack = needs_ack
                self._cur_attempt = 0
                self._cur_attempts = self._acked_attempts if needs_ack else 1
                self._start_contend()
                return
            wakeup = self._wakeup
            if wakeup._processed:
                # A kick landed while the machine was busy: its wakeup
                # already dispatched as a no-op.  The generator consumes
                # such a stale wakeup inline (no agenda entry) and waits
                # on a fresh one; mirror that.
                self._wakeup = self.sim.event()
                continue
            wakeup.callbacks.append(self._wakeup_cb)
            return

    def _on_wakeup(self, event: Event) -> None:
        self._wakeup = self.sim.event()
        if not self._flat_wired:
            self._wire_flat()
        self._resume_loop()

    # ACK transmission.

    def _on_sifs(self, event: Event) -> None:
        """SIFS expired: send the ACK without contending for the channel.

        Half-duplex race: the radio can stop being ready *during* SIFS —
        a DCF radio may have been put to sleep or powered down by the
        node's duty-cycle logic between queueing the ACK and the SIFS
        expiry.  Real hardware drops the ACK on the floor in that state
        (there is no retry path for ACKs; the data sender's retry timer
        covers the loss), so the MAC does the same — but counts it in
        ``acks_dropped`` instead of dropping silently.
        """
        self._flat_timer = None
        if not self._radio_ready():
            self.acks_dropped += 1
            self._cur_ack = None
            self._ack_in_progress = False
            self._resume_loop()
            return
        end = self.radio.transmit(self._cur_ack)
        self._cur_ack = None
        end.callbacks.append(self._ack_tx_end_cb)
        self._flat_tx_end = end

    def _on_ack_tx_end(self, event: Event) -> None:
        self._flat_tx_end = None
        self._ack_in_progress = False
        self._resume_loop()

    # Data transmission with contention and retries.

    def _start_contend(self) -> None:
        attempt = self._cur_attempt
        if attempt > 0:
            self.retransmissions += 1
        self._cur_window = self._cw_by_attempt[attempt]
        if self._randrange is None:
            self._rng = rng = self.sim.rng.stream(f"{self.name}.backoff")
            self._randrange = rng.randrange
        self._draw_backoff()

    def _draw_backoff(self) -> None:
        slots = self._randrange(self._cur_window)
        timer = self._timeout(self._difs_s + slots * self._slot_s)
        timer.callbacks.append(self._backoff_cb)
        self._flat_timer = timer

    def _on_backoff(self, event: Event) -> None:
        self._flat_timer = None
        if self._is_busy_for(self._node_id):
            window = self._cur_window
            self._cur_window = min(window * 2, max(self._busy_cap, window))
            self._draw_backoff()
            return
        if not self._radio_ready():
            self._finish_frame(False)
            return
        end = self.radio.transmit(self._cur_frame)
        end.callbacks.append(self._tx_end_cb)
        self._flat_tx_end = end

    def _on_tx_end(self, event: Event) -> None:
        self._flat_tx_end = None
        if not self._cur_needs_ack:
            self._finish_frame(True)
            return
        # Same creation order as the generator (ack event, pending-ack
        # registration, then the timer) so the timer's agenda seq is
        # identical.
        ack_event = self._take_ack_event()
        frame = self._cur_frame
        key = (frame.dst, frame.seq)
        self._cur_key = key
        self._pending_ack[key] = ack_event
        self._ack_event = ack_event
        timer = self._timeout(self._ack_wait)
        timer.callbacks.append(self._ack_timeout_cb)
        self._ack_timer = timer
        self._resolved = None

    def _take_ack_event(self) -> Event:
        pool = self._ack_pool
        if pool:
            event = pool.pop()
            event._value = PENDING
            event._processed = False
            event.callbacks = [self._ack_event_cb]
            return event
        event = Event(self.sim)
        event.callbacks.append(self._ack_event_cb)
        return event

    def _on_ack_event(self, event: Event) -> None:
        if event is not self._ack_event or self._resolved is not None:
            # A late ack: the wait already resolved (the timer fired first
            # at the same timestamp) and the machine may have moved on.
            # The generator engine dispatched this child as a no-op;
            # nothing references the event anymore, so recycle it.
            if len(self._ack_pool) < _ACK_POOL_MAX:
                self._ack_pool.append(event)
            return
        self._resolved = True
        self._enqueue_hop()

    def _on_ack_timeout(self, event: Event) -> None:
        # Drop our reference so the kernel free-list recycles the timer at
        # the end of this dispatch.
        self._ack_timer = None
        if self._resolved is None:
            self._resolved = False
            self._enqueue_hop()

    def _enqueue_hop(self) -> None:
        """One pooled delay-0 NORMAL event (where the generator engine's
        first-of-two condition fired) whose dispatch runs the ack-wait
        continuation."""
        hop = self._hop_event
        if hop is None:
            hop = Event(self.sim)
            hop.callbacks.append(self._hop_cb)
            self._hop_event = hop
            self._hop_callbacks = hop.callbacks
            hop._value = None
        else:
            hop._processed = False
            hop._cancelled = False
            hop._value = None
            hop.callbacks = self._hop_callbacks
        self.sim._enqueue(hop, delay=0.0, priority=NORMAL)

    def _on_hop(self, event: Event) -> None:
        """The continuation after ``yield ack_event | timeout``."""
        self._pending_ack.pop(self._cur_key, None)
        ack_event = self._ack_event
        self._ack_event = None
        if self._resolved:
            timer = self._ack_timer
            self._ack_timer = None
            timer.cancel()
            if len(self._ack_pool) < _ACK_POOL_MAX:
                self._ack_pool.append(ack_event)
            self._finish_frame(True)
            return
        # Timeout.  The ack event is usually still pending (reusable); if
        # a late ack triggered it, its agenda entry is still due and
        # ``_on_ack_event`` recycles it at dispatch instead.
        if not ack_event.triggered and len(self._ack_pool) < _ACK_POOL_MAX:
            self._ack_pool.append(ack_event)
        self._cur_attempt += 1
        if self._cur_attempt < self._cur_attempts:
            self._start_contend()
        else:
            self._finish_frame(False)

    def _finish_frame(self, success: bool) -> None:
        if success:
            self.sent_ok += 1
        else:
            self.sent_failed += 1
        done = self._cur_done
        self._cur_frame = None
        self._cur_done = None
        if not done.triggered:
            done.succeed(success)
        self._resume_loop()

    # -- fault injection -------------------------------------------------------

    #: Class attribute (see ``RadioPort._powered_down``): the never-faulted
    #: MAC pays no per-instance slot for it.
    _powered_down = False

    def power_down(self) -> None:
        """Kill the MAC (fault injection): halt the engine and drop frames.

        Queued and in-flight frames resolve their completion events False
        (counted in ``power_down_drops``) so upper layers see drops
        instead of waiting forever.  The machine halts immediately: its
        pending SIFS/backoff timer and ack plumbing are cancelled via
        ``Event.cancel`` and its continuation is detached from any
        in-flight radio end event.  Idempotent.
        """
        if self._powered_down:
            return
        self._powered_down = True
        drops = 0
        if self._flat_wired:
            timer = self._flat_timer
            if timer is not None:
                self._flat_timer = None
                timer.cancel()
            timer = self._ack_timer
            if timer is not None:
                self._ack_timer = None
                timer.cancel()
            end = self._flat_tx_end
            if end is not None:
                # The medium still finishes the (aborted) frame; only our
                # continuation must not run.  Cancelling the shared end
                # event would also kill the medium's record processing.
                self._flat_tx_end = None
                callbacks = end.callbacks
                if callbacks is not None:
                    if self._tx_end_cb in callbacks:
                        callbacks.remove(self._tx_end_cb)
                    elif self._ack_tx_end_cb in callbacks:
                        callbacks.remove(self._ack_tx_end_cb)
            hop = self._hop_event
            if hop is not None:
                # No-op unless an ack-wait continuation is mid-hop
                # (_enqueue_hop resets the mark on reuse).
                hop.cancel()
            done = self._cur_done
            if done is not None:
                self._cur_frame = None
                self._cur_done = None
                drops += 1
                if not done.triggered:
                    done.succeed(False)
            self._cur_ack = None
            self._cur_key = None
            self._ack_event = None
            self._resolved = None
            self._ack_in_progress = False
        for _frame, done in self._queue:
            drops += 1
            if not done.triggered:
                done.succeed(False)
        self._queue.clear()
        self._ack_queue.clear()
        self._pending_ack.clear()
        self.power_down_drops += drops
        # Re-park on a fresh wakeup so power_up's kick restarts the
        # machine (it halted without reaching _resume_loop's park).
        self._wakeup = self.sim.event()
        self._wakeup.callbacks.append(self._on_wakeup)

    def power_up(self) -> None:
        """Undo :meth:`power_down`; the engine resumes on the next kick."""
        if not self._powered_down:
            return
        self._powered_down = False
        self._kick()

    # -- receive path ----------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind is FrameKind.ACK:
            waiter = self._pending_ack.get((frame.src, frame.seq))
            if waiter is not None and not waiter.triggered:
                waiter.succeed(frame)
            return
        if frame.dst != self.radio.node_id:
            return
        if frame.require_ack:
            self._ack_queue.append(make_ack(frame, self.params.ack_bits))
            self._kick()
        if self._is_duplicate(frame):
            return
        if self._on_data is not None:
            self._on_data(frame)

    def _is_duplicate(self, frame: Frame) -> bool:
        entry = self._seen.get(frame.src)
        if entry is None:
            entry = self._seen[frame.src] = (collections.deque(), set())
        order, seen = entry
        seq = frame.seq
        if seq in seen:
            return True
        seen.add(seq)
        order.append(seq)
        if len(order) > _DEDUP_WINDOW:
            seen.discard(order.popleft())
        return False
