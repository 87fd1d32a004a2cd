"""The Bulk Communication Protocol (BCP) engine — the paper's contribution.

One :class:`BcpAgent` runs on every dual-radio node, sitting between the
routing layer and the two MACs (paper Section 3):

Sender side
    Data packets from the routing layer are buffered per next hop
    (:class:`~repro.core.buffer.BulkBuffer`).  When a next hop's buffer
    reaches the threshold ``α·s*``, the agent starts a wake-up handshake:
    a WAKEUP naming the burst size travels over the *low-power* radio
    (possibly multiple hops); the agent waits for the WAKEUP-ACK, resending
    on timeout.  Only on receiving the ACK does it wake its own high-power
    radio, assemble the allowed amount of data into high-power frames
    (:mod:`~repro.core.fragmentation`) and hand them to the 802.11 MAC.
    A sender's own CBR packets are not submitted one by one: the agent
    pulls them from the source in batches (:meth:`BcpAgent.adopt`).

Receiver side
    On a WAKEUP, the agent wakes its high-power radio and answers with a
    WAKEUP-ACK advertising how much it can accept (its free buffer space —
    receiver flow control; a full receiver stays silent).  It turns the
    radio back off once the advertised burst has arrived or after an idle
    timeout.  Packets travel as runs (:class:`~repro.net.packets.PacketRun`):
    the runs of a fragment that have reached their destination are
    delivered up in one call; each in-transit run is re-buffered toward its
    own next hop with one submit, so multi-hop bulk forwarding emerges from
    the same per-hop logic.

Control messages always travel over the low-power radio; data always over
the high-power radio ("data messages are always sent by the high-power
radio" — the low-power data path is the paper's future work).

The optional DSR-style shortcut learning (Section 3) keeps the sender's
radio on briefly after a burst, listening promiscuously for its own packets
being forwarded; the farthest overheard forwarder becomes the next hop for
subsequent bursts.

Shared-spec contract (the flyweight pattern)
--------------------------------------------
At deployment scale, everything about a BCP node except its identity and
its live protocol state is *class* data, not *instance* data: every node
of the same (radio pairing, traffic class, MAC config) combination shares
one :class:`BcpConfig`, the same two routing tables, the same delivery
callback and the same address map.  :class:`BcpNodeSpec` bundles those
shared references into one immutable flyweight; fleet construction builds
a handful of specs (the paper scenarios need two: sink and non-sink) and
stamps out agents with :meth:`BcpAgent.from_spec`, so a 10k-node build
allocates 10k *mutable-state* shells rather than 10k copies of the full
configuration graph.

The contract has two sides:

* **Builders** must treat everything placed in a spec as immutable for
  the lifetime of the fleet: the spec is hashed into nothing and copied
  nowhere — mutating its ``config`` (or rebinding a routing table) after
  construction would change behaviour for every agent sharing it at
  once.
* **Agents** never write through the spec: all mutable per-node state
  lives on the agent itself (the buffer, stats counters, session tables)
  or in struct-of-arrays containers owned by the scenario (energy
  columns in a :class:`~repro.energy.meter.MeterBank`).

The historical one-node-at-a-time constructor signature remains for
tests and hand-built stacks; it simply wraps its arguments in a private
spec.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.buffer import BulkBuffer
from repro.core.config import BcpConfig
from repro.core.fragmentation import BurstFragment, assemble_burst
from repro.core.messages import (
    CONTROL_PAYLOAD_BITS,
    ControlEnvelope,
    Wakeup,
    WakeupAck,
    new_session_id,
)
from repro.mac.base import ContentionMac
from repro.mac.frames import Frame, FrameKind
from repro.net.packets import PacketRun
from repro.net.routing import RoutingError, RoutingLike
from repro.net.shortcut import ShortcutLearner
from repro.radio.radio import HighPowerRadio
from repro.sim.simulator import URGENT
from repro.stats.summation import ltr_sum

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Entry, Simulator
    from repro.traffic.generators import CbrSource

#: Delivery callback: takes the packet runs addressed to the node.
DeliverFn = typing.Callable[[typing.Sequence[PacketRun]], None]


@dataclasses.dataclass(slots=True)
class _SenderSession:
    """Sender-side handshake/transfer state for one next hop."""

    next_hop: int
    session_id: int
    #: WAKEUP attempts made before the current one.
    attempt: int = 0
    #: The bytes the current attempt's first WAKEUP-ACK allows; None
    #: until one arrives.
    allowed: float | None = None
    #: How the current wait ended: None (still waiting), True (the ACK
    #: came first) or False (the timeout did).
    acked: bool | None = None
    #: Whether the session waits for its own high-power radio to wake.
    waking: bool = False
    #: The burst's fragments and how many of them the MAC has finished.
    fragments: list = dataclasses.field(default_factory=list)
    sent: int = 0


@dataclasses.dataclass(slots=True)
class _ReceiverSession:
    """Receiver-side state for one bulk sender."""

    origin: int
    session_id: int
    expected_bytes: float
    received_bytes: float = 0.0
    fragments_seen: set = dataclasses.field(default_factory=set)
    fragments_total: int | None = None
    last_activity_s: float = 0.0
    active: bool = True


@dataclasses.dataclass(frozen=True, eq=False)
class BcpNodeSpec:
    """The shared immutable flyweight behind a fleet of :class:`BcpAgent`.

    One spec exists per node *class* — per (radio pairing, traffic class,
    MAC config) combination in a composed scenario — and is handed to
    :meth:`BcpAgent.from_spec` for every node of that class.  See the
    module docstring ("Shared-spec contract") for the immutability rules
    both sides must uphold.

    Attributes
    ----------
    sim:
        The simulation kernel (one per run, shared by construction).
    config:
        Protocol parameters; treated as frozen once placed here even
        though :class:`BcpConfig` is technically a mutable dataclass.
    low_routing / high_routing:
        The two networks' routing tables (already shared historically —
        routing state is per-deployment, not per-node).
    deliver:
        Sink-delivery callback for packets that reach their destination;
        it takes packet runs in arrival order (the runs of one fragment
        addressed to the node, or one run).
    address_map:
        Optional dual-radio address table (``None`` disables the lookup).
    """

    sim: "Simulator"
    config: BcpConfig
    low_routing: RoutingLike
    high_routing: RoutingLike
    deliver: DeliverFn
    address_map: typing.Any = None


class BcpStats:
    """Protocol counters exposed for evaluation and tests."""

    __slots__ = (
        "packets_submitted",
        "packets_buffered",
        "packets_dropped_buffer",
        "packets_unroutable",
        "packets_sent",
        "packets_lost_mac",
        "packets_received",
        "packets_delivered",
        "packets_sent_low",
        "wakeups_sent",
        "wakeup_retries",
        "acks_sent",
        "handshakes_started",
        "handshakes_failed",
        "bursts_completed",
        "receiver_timeouts",
        "control_forwarded",
    )

    def __init__(self) -> None:
        self.packets_submitted = 0
        self.packets_buffered = 0
        self.packets_dropped_buffer = 0
        self.packets_unroutable = 0
        self.packets_sent = 0
        self.packets_lost_mac = 0
        self.packets_received = 0
        self.packets_delivered = 0
        self.packets_sent_low = 0
        self.wakeups_sent = 0
        self.wakeup_retries = 0
        self.acks_sent = 0
        self.handshakes_started = 0
        self.handshakes_failed = 0
        self.bursts_completed = 0
        self.receiver_timeouts = 0
        self.control_forwarded = 0


class BcpAgent:
    """BCP protocol instance on one node.

    Parameters
    ----------
    sim:
        The simulation kernel.
    node_id:
        The owning node.
    config:
        Protocol parameters (:class:`BcpConfig`).
    low_mac / high_mac:
        The sensor and 802.11 MACs (already bound to their radios).
    high_radio:
        The managed high-power radio (BCP owns its on/off schedule).
    low_routing / high_routing:
        Routing tables of the two networks; control follows ``low_routing``,
        data follows ``high_routing`` (or a learned shortcut).
    deliver:
        Callback invoked with the :class:`~repro.net.packets.PacketRun`
        objects whose final destination is this node (see
        :class:`BcpNodeSpec`).
    address_map:
        Optional dual-radio address table; when provided, the agent
        resolves the peer's high-power address before each handshake,
        mirroring a real implementation's lookup (Section 3).
    spec:
        Optional pre-built :class:`BcpNodeSpec`; when given it *is* the
        shared flyweight and the individual shared arguments are ignored
        in its favour (fleet builders pass it via :meth:`from_spec` so
        ten thousand agents share one spec object instead of carrying
        ten thousand argument tuples through construction).
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        config: BcpConfig,
        low_mac: ContentionMac,
        high_mac: ContentionMac,
        high_radio: HighPowerRadio,
        low_routing: RoutingLike,
        high_routing: RoutingLike,
        deliver: DeliverFn,
        address_map: typing.Any = None,
        spec: BcpNodeSpec | None = None,
    ):
        if spec is None:
            spec = BcpNodeSpec(
                sim=sim,
                config=config,
                low_routing=low_routing,
                high_routing=high_routing,
                deliver=deliver,
                address_map=address_map,
            )
        #: The shared immutable flyweight (see the module docstring).
        self.spec = spec
        # Shared fields are re-exposed as direct attributes: the protocol
        # hot paths (submit, control forwarding) touch them per packet,
        # and one extra indirection per access costs more over a run than
        # the references cost at construction.
        self.sim = spec.sim
        self.node_id = node_id
        self.config = spec.config
        self.low_mac = low_mac
        self.high_mac = high_mac
        self.high_radio = high_radio
        self.low_routing = spec.low_routing
        self.high_routing = spec.high_routing
        self.deliver = spec.deliver
        self.address_map = spec.address_map
        self.buffer = BulkBuffer(spec.config.buffer_capacity_bytes)
        self.stats = BcpStats()
        self._sender_sessions: dict[int, _SenderSession] = {}
        self._receiver_sessions: dict[int, _ReceiverSession] = {}
        self._radio_holds = 0
        self._retry_scheduled: set[int] = set()
        #: Consecutive handshake failures per next hop, for exponential
        #: backoff (prevents wake-up retry storms from amplifying
        #: congestion on the low-power control network).
        self._handshake_failures: dict[int, int] = {}
        #: The CBR source this agent pulls packets from (see :meth:`adopt`).
        self.feed: CbrSource | None = None
        #: The feed's data next hop while routes stand (None: unroutable).
        self._feed_hop: int | None = None
        self._feed_hop_known = False
        #: The one pending entry that pulls the session-starting packet.
        self._feed_event: Entry | None = None
        self._feed_event_s = 0.0
        self.shortcuts: ShortcutLearner | None = None
        if config.shortcut_learning:
            self.shortcuts = ShortcutLearner(node_id, low_routing, high_routing)
            if config.shortcut_observation:
                high_radio.set_overhear_handler(self._on_overheard)
        low_mac.set_data_handler(self._on_low_frame)
        high_mac.set_data_handler(self._on_high_frame)

    @classmethod
    def from_spec(
        cls,
        spec: BcpNodeSpec,
        node_id: int,
        low_mac: ContentionMac,
        high_mac: ContentionMac,
        high_radio: HighPowerRadio,
    ) -> "BcpAgent":
        """Stamp out one agent of the node class ``spec`` describes.

        The flyweight constructor: everything shared comes from ``spec``,
        everything per-node (identity, the node's own MACs and radio)
        comes as arguments.  Fleet builders call this in a loop after
        building one spec per node class.
        """
        return cls(
            spec.sim,
            node_id,
            spec.config,
            low_mac,
            high_mac,
            high_radio,
            spec.low_routing,
            spec.high_routing,
            spec.deliver,
            spec.address_map,
            spec=spec,
        )

    # ------------------------------------------------------------------
    # Sender side: routing interface.
    # ------------------------------------------------------------------

    def submit(self, run: PacketRun) -> None:
        """Accept a run of data packets from the routing layer (paper:
        "Sender Side: Interface to Routing").

        Packets destined for this node are delivered immediately; others are
        buffered toward their high-power next hop, as far as they fit,
        possibly triggering a handshake.  With a ``max_delay_s`` budget
        configured, a deadline timer guards every buffered packet (the
        paper's delay-constrained future work).  The state and counters
        are those of submitting the packets one by one.
        """
        if self.feed is not None:
            self.catch_up()
        stats = self.stats
        count = len(run.created_s)
        stats.packets_submitted += count
        if run.dst == self.node_id:
            stats.packets_delivered += count
            self.deliver((run,))
            return
        try:
            next_hop = self._data_next_hop(run.dst)
        except RoutingError:
            # A partitioned source (the sink, or every relay toward it,
            # is dead this epoch) drops at ingestion — counted, never a
            # crash.  Unreachable without fault injection: scenario
            # construction validates sender connectivity up front.
            stats.packets_unroutable += count
            return
        buffered = self.buffer.push_many(next_hop, run)
        stats.packets_buffered += buffered
        stats.packets_dropped_buffer += count - buffered
        if buffered:
            if self.config.max_delay_s is not None:
                self._arm_deadlines(next_hop, run, buffered)
            self._check_threshold(next_hop)

    def _data_next_hop(self, dst: int) -> int:
        if self.shortcuts is not None:
            return self.shortcuts.next_hop(dst)
        return self.high_routing.next_hop(self.node_id, dst)

    def _check_threshold(self, next_hop: int) -> None:
        if self.feed is not None:
            self.catch_up()
        if (
            next_hop not in self._sender_sessions
            and self.buffer.bytes_for(next_hop) >= self.config.threshold_bytes
        ):
            session = _SenderSession(
                next_hop=next_hop, session_id=new_session_id()
            )
            self._sender_sessions[next_hop] = session
            self.stats.handshakes_started += 1
            self.sim.call_at(
                self.sim.now, self._start_session, session, priority=URGENT
            )
        if self.feed is not None:
            self._arm_feed()

    # ------------------------------------------------------------------
    # Sender side: CBR packets pulled on demand.
    # ------------------------------------------------------------------

    def adopt(self, source: "CbrSource") -> bool:
        """Pull ``source``'s packets instead of taking one submit each.

        Only a packet that starts a session matters the moment it is
        created, and a CBR source's due times are known in advance.  So
        the agent cancels the source's timer and keeps one pending event
        at the due time of the first packet whose push would start a
        session; every other packet is generated in a batch, in its
        order, just before anything reads or changes the buffer or the
        data next hop.  A packet due at exactly the current instant is
        left for later (its event, or the next read after it).  The
        batch leaves the state and counters per-packet :meth:`submit`
        calls would.

        Declines (False) when packets are used on arrival: with a
        ``max_delay_s`` budget each packet arms its own deadline, and
        packets addressed to this node are delivered at once.  Call
        before the run starts.  Whoever drives the run calls
        :meth:`catch_up` at its horizon, and :meth:`catch_up` /
        :meth:`rearm` around any change of routes or of the source's
        ``stop_s``.
        """
        if self.config.max_delay_s is not None or source.dst == self.node_id:
            return False
        source.detach()
        self.feed = source
        # Aimed at the first packet rather than the crossing: an early
        # event is harmless, and routes and due times are then first
        # read inside the run, not while the network is built.
        self._feed_event_s = source.due_s()
        self._feed_event = self.sim.call_at(self._feed_event_s, self._feed_due)
        return True

    def catch_up(self, inclusive: bool = False) -> None:
        """Buffer every fed packet due before now (or at now, with
        ``inclusive``) as if each had been submitted when due."""
        feed = self.feed
        if feed is None:
            return
        now = self.sim.now
        due = feed.due_s()
        if due < now or inclusive and due == now:
            run = feed.take(now, inclusive)
            if run is not None:
                self._push_fed(run)

    def rearm(self) -> None:
        """Re-aim the pending event after routes (or the feed's
        ``stop_s``) changed; :meth:`catch_up` must run before the change."""
        if self.feed is not None:
            self._feed_hop_known = False
            self._arm_feed()

    def _fed_next_hop(self) -> int | None:
        if not self._feed_hop_known:
            try:
                self._feed_hop = self._data_next_hop(self.feed.dst)
            except RoutingError:
                self._feed_hop = None
            self._feed_hop_known = True
        return self._feed_hop

    def _push_fed(self, run: PacketRun) -> bool:
        """Buffer a run of fed packets; whether the last one was kept."""
        count = len(run.created_s)
        stats = self.stats
        stats.packets_submitted += count
        next_hop = self._fed_next_hop()
        if next_hop is None:
            stats.packets_unroutable += count
            return False
        buffered = self.buffer.push_many(next_hop, run)
        stats.packets_buffered += buffered
        stats.packets_dropped_buffer += count - buffered
        return buffered == count

    def _feed_crossing_s(self) -> float | None:
        """Due time of the first fed packet whose push starts a session.

        None while no such packet can come without some other change: a
        session already runs toward the next hop, there is no route, the
        buffer fills first, or the source stops first.
        """
        feed = self.feed
        next_hop = self._fed_next_hop()
        if next_hop is None or next_hop in self._sender_sessions:
            return None
        buffer = self.buffer
        size = feed.payload_bits / 8
        queued = buffer.bytes_for(next_hop)
        threshold = self.config.threshold_bytes
        # Buffer byte counts are sums of packet sizes (multiples of 1/8),
        # so these products equal the repeated additions exactly.
        needed = max(1, math.ceil((threshold - queued) / size))
        while needed > 1 and queued + (needed - 1) * size >= threshold:
            needed -= 1
        while queued + needed * size < threshold:
            needed += 1
        if buffer.total_bytes + needed * size > buffer.capacity_bytes:
            return None
        when = feed.due_s(needed - 1)
        if feed.stop_s is not None and not when < feed.stop_s:
            return None
        return when

    def _arm_feed(self) -> None:
        """Keep the pending event at or before the crossing.

        An early event is harmless (it pulls, finds no crossing and
        re-arms), so only a crossing that moved earlier, or vanished,
        replaces it.
        """
        when = self._feed_crossing_s()
        event = self._feed_event
        if event is not None:
            if when is not None and self._feed_event_s <= when:
                return
            self.sim.cancel(event)
            self._feed_event = None
        if when is not None:
            self._feed_event = self.sim.call_at(when, self._feed_due)
            self._feed_event_s = when

    def _feed_due(self) -> None:
        """The pending event: pull through now, then do what the submit
        of the packet due now would have done."""
        self._feed_event = None
        feed = typing.cast("CbrSource", self.feed)
        now = self.sim.now
        run = feed.take(now, inclusive=True)
        if run is not None and self._push_fed(run) and run.created_s[-1] == now:
            # The packet due now was buffered: run the check its submit
            # would have (which re-arms).
            self._check_threshold(typing.cast(int, self._feed_hop))
        else:
            self._arm_feed()

    # ------------------------------------------------------------------
    # Sender side: handshake and bulk transfer.
    # ------------------------------------------------------------------

    # The session is a chain of callbacks.  Each one hangs where the
    # agenda order needs it: the session starts from an urgent delay-0
    # event, and the wait for the WAKEUP-ACK ends one delay-0 event after
    # the first of the ACK and the timeout fires (the other fires later,
    # as a no-op), so same-time events keep the order every pinned digest
    # was recorded with.

    def _start_session(self, session: _SenderSession) -> None:
        if self.address_map is not None:
            # Resolve the peer's high-power address (the mapping the paper
            # requires BCP to maintain); failure means the peer has no
            # high-power radio and bulk transfer is impossible.
            from repro.net.addressing import HIGH_INTERFACE

            if not self.address_map.has_interface(
                session.next_hop, HIGH_INTERFACE
            ):
                self._handshake_failed(session)
                return
        self._send_wakeup(session)

    def _send_wakeup(self, session: _SenderSession) -> None:
        """One WAKEUP attempt: send it, then wait for the ACK or timeout."""
        if session.attempt > 0:
            self.stats.wakeup_retries += 1
        self.catch_up()
        burst = self.buffer.bytes_for(session.next_hop)
        if burst <= 0:
            self._handshake_failed(session)
            return
        wakeup = Wakeup(
            origin=self.node_id,
            target=session.next_hop,
            session_id=session.session_id,
            burst_bytes=int(burst),
        )
        session.allowed = None
        session.acked = None
        self.stats.wakeups_sent += 1
        self._send_control(wakeup, session.next_hop)
        self.sim.schedule(
            self.config.wakeup_timeout_s,
            self._wakeup_wait_ended,
            (session, session.attempt, False),
        )

    def _wakeup_wait_ended(
        self, arrival: tuple[_SenderSession, int, bool]
    ) -> None:
        """The ACK (``True``) or the timeout (``False``) of one attempt came
        up: the first of the current attempt's two wins, the rest are
        ignored."""
        session, attempt, acked = arrival
        if session.attempt == attempt and session.acked is None:
            session.acked = acked
            self.sim.call_at(self.sim.now, self._after_wakeup_wait, session)

    def _after_wakeup_wait(self, session: _SenderSession) -> None:
        if session.acked:
            self._handshake_failures.pop(session.next_hop, None)
            allowed = typing.cast(float, session.allowed)
            # Section 3: the sender turns its radio on only upon the ACK.
            session.waking = True
            self.high_radio.wake(lambda: self._transfer(session, allowed))
            return
        session.attempt += 1
        if session.attempt <= self.config.wakeup_retries:
            self._send_wakeup(session)
        else:
            self._handshake_failed(session)

    def _handshake_failed(self, session: _SenderSession) -> None:
        next_hop = session.next_hop
        self.stats.handshakes_failed += 1
        failures = min(self._handshake_failures.get(next_hop, 0) + 1, 6)
        self._handshake_failures[next_hop] = failures
        backoff = self.config.handshake_backoff_s * (2 ** (failures - 1))
        self._schedule_retry(next_hop, backoff)
        self._close_sender_session(session)
        if self.feed is not None:
            self._arm_feed()

    def _close_sender_session(self, session: _SenderSession) -> None:
        # Packets due while the session ran were pushed without a
        # threshold check.
        self.catch_up()
        self._sender_sessions.pop(session.next_hop, None)

    def _transfer(self, session: _SenderSession, allowed_bytes: float) -> None:
        """Send the allowed burst as high-power frames, stop-and-wait,
        holding the radio on until :meth:`_end_transfer`."""
        session.waking = False
        self._radio_holds += 1
        next_hop = session.next_hop
        self.catch_up()
        budget = min(allowed_bytes, self.buffer.bytes_for(next_hop))
        runs = self.buffer.pop_up_to(next_hop, budget)
        if not runs:
            self._end_transfer(session)
            return
        if self.feed is not None:
            # The freed room may let a fed packet in sooner.
            self._arm_feed()
        session.fragments = assemble_burst(
            runs,
            session.session_id,
            self.node_id,
            self.config.frame_payload_bytes,
        )
        session.sent = 0
        self._send_fragment(session)

    def _send_fragment(self, session: _SenderSession) -> None:
        fragment = session.fragments[session.sent]
        frame = Frame(
            kind=FrameKind.DATA,
            src=self.node_id,
            dst=session.next_hop,
            payload_bits=fragment.payload_bits,
            header_bits=self.high_radio.spec.header_bits,
            payload=fragment,
            require_ack=True,
        )
        self.high_mac.send(
            frame, lambda success: self._on_fragment_done(session, success)
        )

    def _on_fragment_done(self, session: _SenderSession, success: bool) -> None:
        fragments = session.fragments
        fragment = fragments[session.sent]
        if success:
            self.stats.packets_sent += fragment.packets
        else:
            self.stats.packets_lost_mac += fragment.packets
        session.sent += 1
        if session.sent < len(fragments):
            self._send_fragment(session)
            return
        self.stats.bursts_completed += 1
        if self.shortcuts is not None and self.config.shortcut_observation:
            # Learning phase: stay awake to overhear our packets being
            # forwarded — but only until a shortcut for this destination
            # is known, so the listening cost is paid per route, not per
            # burst.
            destination = fragments[0].runs[0].dst
            if not self.shortcuts.has_shortcut(destination):
                self._radio_holds += 1
                self.sim.call_later(
                    self.config.receiver_idle_timeout_s,
                    self._release_radio_hold,
                )
        self._end_transfer(session)

    def _end_transfer(self, session: _SenderSession) -> None:
        self._release_radio_hold()
        self._close_sender_session(session)
        # More data may have accumulated meanwhile (or flow control may
        # have clamped the burst) — re-arm immediately.
        self._check_threshold(session.next_hop)

    def revive(self) -> None:
        """Restart the sessions a crash stranded; call once the node's
        radios and MACs are powered up again.

        A crash while the high-power radio was waking dropped the wake's
        waiter with the radio, so a session past its WAKEUP-ACK still
        waits for a wake that never comes, and it blocks every later
        session toward its next hop.  Each such session is dropped and
        the threshold check toward its next hop runs again.
        """
        stranded = [s for s in self._sender_sessions.values() if s.waking]
        for session in stranded:
            self._close_sender_session(session)
            self._check_threshold(session.next_hop)

    def _schedule_retry(self, next_hop: int, delay_s: float) -> None:
        if next_hop in self._retry_scheduled:
            return
        self._retry_scheduled.add(next_hop)

        def retry() -> None:
            self._retry_scheduled.discard(next_hop)
            self._check_threshold(next_hop)

        self.sim.call_later(delay_s, retry)

    # ------------------------------------------------------------------
    # Delay-constrained fallback (the paper's Section 5 future work).
    # ------------------------------------------------------------------

    def _arm_deadlines(self, next_hop: int, run: PacketRun, count: int) -> None:
        """Flush via the low-power radio if a packet (of the first ``count``
        in ``run``) is still buffered when its delay budget expires (age
        measured from generation)."""
        budget = typing.cast(float, self.config.max_delay_s)
        for offset, created_s in enumerate(run.created_s[:count]):
            remaining = max(0.0, created_s + budget - self.sim.now)
            self.sim.call_later(
                remaining, self._deadline_expired, next_hop, run.first_id + offset
            )

    def _deadline_expired(self, next_hop: int, packet_id: int) -> None:
        if not self.buffer.has_packet(next_hop, packet_id):
            return  # already shipped in a bulk session
        if next_hop in self._sender_sessions:
            return  # a bulk transfer is already on its way
        self._flush_via_low_radio(next_hop)

    def _flush_via_low_radio(self, next_hop: int) -> None:
        """Send everything buffered for ``next_hop`` as individual
        low-power data frames (immediate, no wake-up handshake)."""
        runs = self.buffer.pop_up_to(next_hop, float("inf"))
        header_bits = self.low_mac.radio.spec.header_bits
        for run in runs:
            count = len(run.created_s)
            try:
                low_hop = self.low_routing.next_hop(self.node_id, run.dst)
            except RoutingError:
                self.stats.packets_dropped_buffer += count
                continue
            for offset in range(count):
                frame = Frame(
                    kind=FrameKind.DATA,
                    src=self.node_id,
                    dst=low_hop,
                    payload_bits=run.payload_bits,
                    header_bits=header_bits,
                    payload=run if count == 1 else run.slice(offset, offset + 1),
                    require_ack=True,
                )
                self.low_mac.send(frame)
            self.stats.packets_sent_low += count

    # ------------------------------------------------------------------
    # Control plane over the low-power radio.
    # ------------------------------------------------------------------

    def _send_control(self, message: object, dst: int) -> None:
        self._forward_control(ControlEnvelope(message, self.node_id, dst))

    def _forward_control(self, envelope: ControlEnvelope) -> None:
        if envelope.dst == self.node_id:
            self._on_control(envelope.message)
            return
        if envelope.ttl <= 0:
            return
        try:
            next_hop = self.low_routing.next_hop(self.node_id, envelope.dst)
        except RoutingError:
            return
        frame = Frame(
            kind=FrameKind.CONTROL,
            src=self.node_id,
            dst=next_hop,
            payload_bits=CONTROL_PAYLOAD_BITS,
            header_bits=self.low_mac.radio.spec.header_bits,
            payload=envelope,
            require_ack=True,
        )
        self.low_mac.send(frame)

    def _on_low_frame(self, frame: Frame) -> None:
        envelope = frame.payload
        if isinstance(envelope, ControlEnvelope):
            if envelope.dst == self.node_id:
                self._on_control(envelope.message)
            else:
                self.stats.control_forwarded += 1
                self._forward_control(envelope.forwarded())
            return
        if isinstance(envelope, PacketRun):
            # Delay-constrained data travelling over the low-power radio,
            # one packet per frame: deliver or keep forwarding immediately
            # (buffering would violate its deadline).
            packet = envelope
            packet.hops += 1
            if packet.dst == self.node_id:
                self.stats.packets_delivered += 1
                self.deliver((packet,))
                return
            try:
                low_hop = self.low_routing.next_hop(self.node_id, packet.dst)
            except RoutingError:
                return
            relay = Frame(
                kind=FrameKind.DATA,
                src=self.node_id,
                dst=low_hop,
                payload_bits=packet.payload_bits,
                header_bits=self.low_mac.radio.spec.header_bits,
                payload=packet,
                require_ack=True,
            )
            self.low_mac.send(relay)
            self.stats.packets_sent_low += 1

    def _on_control(self, message: object) -> None:
        if isinstance(message, Wakeup):
            self._handle_wakeup(message)
        elif isinstance(message, WakeupAck):
            self._handle_wakeup_ack(message)

    # ------------------------------------------------------------------
    # Receiver side.
    # ------------------------------------------------------------------

    def _handle_wakeup(self, wakeup: Wakeup) -> None:
        config = self.config
        session = self._receiver_sessions.get(wakeup.origin)
        if session is not None and session.session_id == wakeup.session_id:
            # Duplicate WAKEUP (our ACK was lost): refresh and re-ack.
            session.last_activity_s = self.sim.now
            self._send_ack(session)
            return
        if config.flow_control:
            allowed = min(float(wakeup.burst_bytes), self._acceptable_bytes())
        else:
            allowed = float(wakeup.burst_bytes)
        if allowed <= 0:
            # Full buffer: stay silent; the sender will retry later.
            return
        session = _ReceiverSession(
            origin=wakeup.origin,
            session_id=wakeup.session_id,
            expected_bytes=allowed,
            last_activity_s=self.sim.now,
        )
        self._receiver_sessions[wakeup.origin] = session
        self.high_radio.wake()
        self._radio_holds += 1
        self._send_ack(session)
        self.sim.call_at(
            self.sim.now, self._watch_receiver, session, priority=URGENT
        )

    def _acceptable_bytes(self) -> float:
        """How much bulk data this node can take (receiver flow control)."""
        self.catch_up()
        pending = ltr_sum(
            session.expected_bytes - session.received_bytes
            for session in self._receiver_sessions.values()
            if session.active
        )
        return max(0.0, self.buffer.free_bytes - pending)

    def _send_ack(self, session: _ReceiverSession) -> None:
        ack = WakeupAck(
            origin=self.node_id,
            target=session.origin,
            session_id=session.session_id,
            allowed_bytes=int(session.expected_bytes),
        )
        self.stats.acks_sent += 1
        self._send_control(ack, session.origin)

    def _handle_wakeup_ack(self, ack: WakeupAck) -> None:
        session = self._sender_sessions.get(ack.origin)
        if session is None or session.session_id != ack.session_id:
            return
        if session.allowed is None:
            session.allowed = float(ack.allowed_bytes)
            self.sim.schedule(
                0.0, self._wakeup_wait_ended, (session, session.attempt, True)
            )

    def _watch_receiver(self, session: _ReceiverSession) -> None:
        """Check the session every idle timeout while it is active."""
        if session.active:
            self.sim.call_later(
                self.config.receiver_idle_timeout_s,
                self._check_receiver,
                session,
            )

    def _check_receiver(self, session: _ReceiverSession) -> None:
        """Close the session when complete or idle too long (Section 3)."""
        if not session.active:
            return
        if session.received_bytes >= session.expected_bytes:
            self._close_receiver_session(session)
        elif (
            self.sim.now - session.last_activity_s
            >= self.config.receiver_idle_timeout_s
        ):
            self.stats.receiver_timeouts += 1
            self._close_receiver_session(session)
        else:
            self._watch_receiver(session)

    def _close_receiver_session(self, session: _ReceiverSession) -> None:
        if not session.active:
            return
        session.active = False
        current = self._receiver_sessions.get(session.origin)
        if current is session:
            del self._receiver_sessions[session.origin]
        self._release_radio_hold()

    def _on_high_frame(self, frame: Frame) -> None:
        fragment = frame.payload
        if not isinstance(fragment, BurstFragment):
            return
        session = self._receiver_sessions.get(fragment.origin)
        if session is not None and session.active:
            session.last_activity_s = self.sim.now
            session.received_bytes += fragment.payload_bits / 8
            session.fragments_seen.add(fragment.index)
            session.fragments_total = fragment.total
        # Runs addressed here reach the sink in one call, counted as if
        # each packet had been submitted; each other run is submitted for
        # relay.  Relaying never delivers synchronously, so handing the
        # local runs over after the loop keeps the per-packet order and
        # state.
        stats = self.stats
        stats.packets_received += fragment.packets
        local, count = [], 0
        for run in fragment.runs:
            run.hops += 1
            if run.dst == self.node_id:
                local.append(run)
                count += len(run.created_s)
            else:
                self.submit(run)
        if local:
            stats.packets_submitted += count
            stats.packets_delivered += count
            self.deliver(local)
        # Turn off as soon as the advertised burst is complete ("the
        # receiver turns off its high-power radio when it receives the
        # total number of packets advertised").
        if (
            session is not None
            and session.active
            and session.fragments_total is not None
            and len(session.fragments_seen) >= session.fragments_total
        ):
            self._close_receiver_session(session)

    # ------------------------------------------------------------------
    # High-power radio power management.
    # ------------------------------------------------------------------

    def _release_radio_hold(self) -> None:
        self._radio_holds -= 1
        if self._radio_holds > 0:
            return
        if self.config.idle_linger_s > 0:
            self.sim.call_later(self.config.idle_linger_s, self._try_sleep)
        else:
            self._try_sleep()

    def _try_sleep(self) -> None:
        if self._radio_holds > 0 or not self.high_radio.is_on:
            return
        if self.high_radio.is_transmitting or self.high_mac.has_pending_ack:
            # A frame (or our MAC-level ACK for the burst's last frame) is
            # still in flight; re-check shortly.
            self.sim.call_later(1e-3, self._try_sleep)
            return
        self.high_radio.sleep()

    # ------------------------------------------------------------------
    # Shortcut learning (promiscuous overhearing).
    # ------------------------------------------------------------------

    def _on_overheard(self, frame: Frame) -> None:
        if self.shortcuts is None:
            return
        fragment = frame.payload
        if not isinstance(fragment, BurstFragment):
            return
        # Recognize our packets by their network-layer source: relays
        # re-fragment bursts under their own session/origin, but the
        # packet runs inside keep the original sender.
        ours = next(
            (run for run in fragment.runs if run.src == self.node_id), None
        )
        if ours is None:
            return
        self.catch_up()
        if self.shortcuts.observe_forwarding(ours.dst, frame.src):
            self.rearm()
