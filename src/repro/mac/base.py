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
plain bound method that the kernel calls from its own agenda entry
(:meth:`~repro.sim.simulator.Simulator.schedule`), and the radio calls
the transmit continuations as ``on_end`` at end of frame.

It replays the agenda of the one-worker-per-MAC generator engine it
replaced: same timeout values, same priorities, same rng draw order
from the same ``{name}.backoff`` stream.  Three kinds of entry are
replayed with no behaviour of their own: the URGENT start entry at
construction, the wakeup a kick schedules while the machine is busy,
and the delay-0 "hop" each resolved ack wait schedules where the old
engine's first-of-two wait fired.
They take agenda sequence numbers, so they decide the order of
everything queued at the same instant; every pinned digest was
recorded with them, so they stay until a deliberate re-pin.  A send's
completion is scheduled (where the old engine triggered its per-frame
future) only when the caller passed ``on_done``; dropping the others
reorders nothing.  The test suite pins the engine's traces on a fixed
set of traffic plans.
"""

from __future__ import annotations

import collections
import typing

from repro.mac.frames import Frame, FrameKind, make_ack
from repro.mac.timing import MacParams
from repro.radio.radio import RadioPort
from repro.sim.simulator import URGENT

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.channel.medium import Transmission
    from repro.sim.simulator import Entry, Simulator

#: Read at module scope on the receive path (cheaper than the enum
#: class attribute on CPython 3.11).
_ACK = FrameKind.ACK

#: How many recent sequence numbers to remember per peer for dedup.
_DEDUP_WINDOW = 64

#: A send's completion callback: takes whether the MAC delivered the frame.
OnDone = typing.Callable[[bool], None]


class _Wakeup:
    """A MAC's wakeup: a kick *triggers* it, which schedules one agenda
    entry; the entry's dispatch *processes* it, and resumes the machine
    only if the machine *parked* on it (otherwise the dispatch is a
    no-op, like the generator's resume of an unwaited event)."""

    __slots__ = ("triggered", "processed", "parked")

    def __init__(self) -> None:
        self.triggered = False
        self.processed = False
        self.parked = False


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
    Use :meth:`send` to enqueue a frame; its optional ``on_done``
    callback gets ``True`` on MAC-level success (ACK received, or frame
    sent for no-ACK frames) and ``False`` when the retry budget is
    exhausted, the queue overflowed or the node died.
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
        self._queue: collections.deque[tuple[Frame, OnDone | None]] = collections.deque()
        self._ack_queue: collections.deque[Frame] = collections.deque()
        # Dedup windows: per-peer (deque, set) pairs — the deque keeps
        # FIFO insertion order for eviction, the set answers membership in
        # O(1) on the hot receive path.
        self._seen: dict[int, tuple[collections.deque, set]] = {}
        self._seq = 0
        self._wakeup = _Wakeup()
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

    def send(self, frame: Frame, on_done: OnDone | None = None) -> None:
        """Enqueue ``frame``; ``on_done(success)`` runs on completion.

        The callback runs from its own agenda entry at the instant the
        frame completes (or at once, for a frame refused on entry).
        """
        if self._powered_down:
            self.power_down_drops += 1
            self._report(on_done, False)
            return
        if len(self._queue) >= self.params.queue_capacity:
            self.queue_drops += 1
            self._report(on_done, False)
            return
        if frame.seq == 0:
            frame.seq = self.next_seq()
        self._queue.append((frame, on_done))
        self._kick()

    def _report(self, on_done: OnDone | None, success: bool) -> None:
        if on_done is not None:
            self.sim.schedule(0.0, on_done, success)

    def _kick(self) -> None:
        wakeup = self._wakeup
        if not wakeup.triggered:
            wakeup.triggered = True
            self.sim.schedule(0.0, self._on_wakeup, wakeup)

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
    # * worker start        → one URGENT delay-0 entry at construction
    #                         (where the worker's start event was);
    # * ``yield wakeup``    → the machine parks on the same ``_Wakeup``
    #                         that ``_kick`` triggers; a kick that lands
    #                         while the machine is busy dispatches the
    #                         wakeup's entry as a no-op (the generator's
    #                         resume of an unwaited event) and is consumed
    #                         inline when idle;
    # * ``yield timeout``   → a scheduled bound method (backoff, SIFS,
    #                         ack wait);
    # * ``yield transmit``  → the radio's ``on_end``, which the medium's
    #                         end-of-frame entry calls third, after its own
    #                         processing and the radio's, as the end
    #                         event's third callback was;
    # * ``yield ack|timer`` → a heard ACK schedules a delay-0 entry where
    #                         the ack event triggered; whichever of it and
    #                         the timer runs first schedules one delay-0
    #                         NORMAL "hop" — exactly where the first-of-two
    #                         condition was enqueued — and the continuation
    #                         runs from the hop.  The loser's entry (late
    #                         ack / cancelled timer) is left to pop exactly
    #                         as the generator leaves it.
    #
    # Identical enqueue points ⇒ identical ``(time, priority, seq)``
    # ordering ⇒ identical rng draw order and golden digests.

    def _init_flat(self) -> None:
        # Construction stays light: a 10k-node fleet builds 20k MACs, most
        # of which never transmit, so the callback/constant wiring below
        # (`_wire_flat`) is deferred until the machine first has work.
        # Only the start entry touches the agenda, and it is scheduled
        # here exactly where the generator engine enqueued its own — the
        # machine enters its dispatch loop at the current time, ahead of
        # same-time NORMALs, so the trace is unchanged.
        self._flat_wired = False
        self.sim.schedule(0.0, self._on_start, None, URGENT)

    def _wire_flat(self) -> None:
        sim = self.sim
        self._flat_wired = True
        self._sifs_cb = self._on_sifs
        self._ack_tx_end_cb = self._on_ack_tx_end
        self._backoff_cb = self._on_backoff
        self._tx_end_cb = self._on_tx_end
        self._ack_heard_cb = self._on_ack_heard
        self._ack_timeout_cb = self._on_ack_timeout
        self._hop_cb = self._on_hop
        # Hot-path constants and bound methods, resolved once: the backoff
        # redraw loop runs tens of thousands of times on contention-heavy
        # cells, and every attribute hop it skips is measurable.  All of
        # these are immutable for the lifetime of the MAC (timing params
        # are frozen, the radio's medium and spec never change).
        params = self.params
        radio = self.radio
        self._schedule = sim.schedule
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
        self._getrandbits: typing.Any = None
        # In-flight item state (one item at a time: the machine is serial).
        self._cur_frame: Frame | None = None
        self._cur_done: OnDone | None = None
        self._cur_ack: Frame | None = None
        self._cur_needs_ack = False
        self._cur_attempt = 0
        self._cur_attempts = 0
        self._cur_window = 0
        # Ack-wait plumbing: the outstanding timer and hop entries, and
        # which of ack and timer resolved the wait (None = unresolved,
        # True = ack, False = timeout).
        self._ack_timer: Entry | None = None
        self._hop: Entry | None = None
        self._resolved: bool | None = None
        # Fault-injection handles on the in-flight continuation: the
        # pending SIFS/backoff entry and the radio transmission whose
        # ``on_end`` we are.  Both are cleared at the TOP of their
        # callbacks, so power_down never touches a dispatched one.
        self._flat_timer: Entry | None = None
        self._flat_tx_end: Transmission | None = None

    #: The ack wait in progress: its ``(dst, seq)`` key (a fresh tuple per
    #: wait, which the heard-ACK entry carries to prove it belongs to this
    #: wait) and whether an ACK for it was heard.  Class attributes, so
    #: MACs that never wait pay no per-instance slots.
    _ack_key: tuple[int, int] | None = None
    _ack_heard = False

    def _on_start(self, _arg: None) -> None:
        if self._powered_down:
            # Killed before the construction-time start entry popped.
            return
        if not self._queue and not self._ack_queue:
            # Nothing to do yet: park on the wakeup without paying for the
            # full wiring (the overwhelmingly common case in a large fleet
            # — the generator engine parks the same way).
            self._wakeup.parked = True
            return
        self._wire_flat()
        self._resume_loop()

    def _resume_loop(self) -> None:
        """The worker loop's head: acks first, then data, then park."""
        while True:
            if self._ack_queue:
                self._cur_ack = self._ack_queue.popleft()
                self._ack_in_progress = True
                self._flat_timer = self._schedule(self._sifs_s, self._sifs_cb)
                return
            if self._queue:
                frame, on_done = self._queue.popleft()
                self._cur_frame = frame
                self._cur_done = on_done
                needs_ack = frame.require_ack
                self._cur_needs_ack = needs_ack
                self._cur_attempt = 0
                self._cur_attempts = self._acked_attempts if needs_ack else 1
                self._start_contend()
                return
            wakeup = self._wakeup
            if wakeup.processed:
                # A kick landed while the machine was busy: its wakeup
                # already dispatched as a no-op.  The generator consumes
                # such a stale wakeup inline (no agenda entry) and waits
                # on a fresh one; mirror that.
                self._wakeup = _Wakeup()
                continue
            wakeup.parked = True
            return

    def _on_wakeup(self, wakeup: _Wakeup) -> None:
        wakeup.processed = True
        if not wakeup.parked:
            return
        self._wakeup = _Wakeup()
        if not self._flat_wired:
            self._wire_flat()
        self._resume_loop()

    # ACK transmission.

    def _on_sifs(self, _arg: None) -> None:
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
        self._flat_tx_end = self.radio.transmit(self._cur_ack, self._ack_tx_end_cb)
        self._cur_ack = None

    def _on_ack_tx_end(self) -> None:
        self._flat_tx_end = None
        self._ack_in_progress = False
        self._resume_loop()

    # Data transmission with contention and retries.

    def _start_contend(self) -> None:
        attempt = self._cur_attempt
        if attempt > 0:
            self.retransmissions += 1
        self._cur_window = self._cw_by_attempt[attempt]
        if self._getrandbits is None:
            self._rng = rng = self.sim.rng.stream(f"{self.name}.backoff")
            self._getrandbits = rng.getrandbits
        self._draw_backoff()

    def _draw_backoff(self) -> None:
        # ``randrange(window)`` written out: for ``n >= 1`` it is
        # ``_randbelow_with_getrandbits(n)`` on CPython 3.11-3.13, this
        # rejection loop, so the draws (and the stream's state) are the
        # same without its two extra calls.  ``MacParams`` keeps every
        # window at least 1.
        n = self._cur_window
        k = n.bit_length()
        getrandbits = self._getrandbits
        slots = getrandbits(k)
        while slots >= n:
            slots = getrandbits(k)
        self._flat_timer = self._schedule(
            self._difs_s + slots * self._slot_s, self._backoff_cb
        )

    def _on_backoff(self, _arg: None) -> None:
        self._flat_timer = None
        if self._is_busy_for(self._node_id):
            window = self._cur_window
            self._cur_window = min(window * 2, max(self._busy_cap, window))
            self._draw_backoff()
            return
        if not self._radio_ready():
            self._finish_frame(False)
            return
        self._flat_tx_end = self.radio.transmit(self._cur_frame, self._tx_end_cb)

    def _on_tx_end(self) -> None:
        self._flat_tx_end = None
        if not self._cur_needs_ack:
            self._finish_frame(True)
            return
        frame = self._cur_frame
        self._ack_key = (frame.dst, frame.seq)
        self._ack_heard = False
        self._ack_timer = self._schedule(self._ack_wait, self._ack_timeout_cb)
        self._resolved = None

    def _on_ack_heard(self, key: tuple[int, int]) -> None:
        if key is not self._ack_key or self._resolved is not None:
            # A late ack: the wait already resolved (the timer fired first
            # at the same timestamp) and the machine may have moved on.
            # The generator engine dispatched this child as a no-op.
            return
        self._resolved = True
        self._hop = self._schedule(0.0, self._hop_cb)

    def _on_ack_timeout(self, _arg: None) -> None:
        self._ack_timer = None
        if self._resolved is None:
            self._resolved = False
            self._hop = self._schedule(0.0, self._hop_cb)

    def _on_hop(self, _arg: None) -> None:
        """The continuation after ``yield ack_event | timeout``."""
        self._hop = None
        self._ack_key = None
        if self._resolved:
            timer = self._ack_timer
            self._ack_timer = None
            self.sim.cancel(timer)
            self._finish_frame(True)
            return
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
        on_done = self._cur_done
        self._cur_frame = None
        self._cur_done = None
        self._report(on_done, success)
        self._resume_loop()

    # -- fault injection -------------------------------------------------------

    #: Class attribute (see ``RadioPort._powered_down``): the never-faulted
    #: MAC pays no per-instance slot for it.
    _powered_down = False

    def power_down(self) -> None:
        """Kill the MAC (fault injection): halt the engine and drop frames.

        Queued and in-flight frames report False to their ``on_done``
        callbacks and count in ``power_down_drops``, so upper layers see
        drops instead of waiting forever.  The machine halts immediately:
        its pending SIFS/backoff, ack-wait and hop entries are cancelled
        and its ``on_end`` is cleared from any in-flight transmission.
        Idempotent.
        """
        if self._powered_down:
            return
        self._powered_down = True
        drops = 0
        if self._flat_wired:
            cancel = self.sim.cancel
            for entry in (self._flat_timer, self._ack_timer, self._hop):
                if entry is not None:
                    cancel(entry)
            self._flat_timer = self._ack_timer = self._hop = None
            record = self._flat_tx_end
            if record is not None:
                # The medium still finishes the (aborted) frame; only our
                # continuation must not run.
                self._flat_tx_end = None
                record.on_end = None
            if self._cur_frame is not None:
                # A frame is in flight whether or not its sender asked to
                # hear how it ends.
                on_done = self._cur_done
                self._cur_frame = None
                self._cur_done = None
                drops += 1
                self._report(on_done, False)
            self._cur_ack = None
            self._ack_key = None
            self._resolved = None
            self._ack_in_progress = False
        for _frame, on_done in self._queue:
            drops += 1
            self._report(on_done, False)
        self._queue.clear()
        self._ack_queue.clear()
        self.power_down_drops += drops
        # Re-park on a fresh wakeup so power_up's kick restarts the
        # machine (it halted without reaching _resume_loop's park).
        self._wakeup = _Wakeup()
        self._wakeup.parked = True

    def power_up(self) -> None:
        """Undo :meth:`power_down`; the engine resumes on the next kick."""
        if not self._powered_down:
            return
        self._powered_down = False
        self._kick()

    # -- receive path ----------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind is _ACK:
            key = self._ack_key
            if (
                key is not None
                and not self._ack_heard
                and key == (frame.src, frame.seq)
            ):
                self._ack_heard = True
                self.sim.schedule(0.0, self._ack_heard_cb, key)
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
