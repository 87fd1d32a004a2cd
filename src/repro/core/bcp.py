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

Receiver side
    On a WAKEUP, the agent wakes its high-power radio and answers with a
    WAKEUP-ACK advertising how much it can accept (its free buffer space —
    receiver flow control; a full receiver stays silent).  It turns the
    radio back off once the advertised burst has arrived or after an idle
    timeout.  Reassembled packets that have reached their destination are
    delivered up, a fragment's worth in one call; in-transit packets are
    re-buffered toward their own next hop, so multi-hop bulk forwarding
    emerges from the same per-hop logic.

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
from repro.net.packets import DataPacket
from repro.net.routing import RoutingError, RoutingLike
from repro.net.shortcut import ShortcutLearner
from repro.radio.radio import HighPowerRadio

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: Delivery callback: takes a run of packets addressed to the node.
DeliverFn = typing.Callable[[typing.Sequence[DataPacket]], None]


@dataclasses.dataclass(slots=True)
class _SenderSession:
    """Sender-side handshake/transfer state for one next hop."""

    next_hop: int
    session_id: int
    ack_event: typing.Any = None
    allowed_bytes: float | None = None
    active: bool = True


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
        it takes a run of packets in arrival order (the packets of one
        fragment addressed to the node, or one packet).
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
        Callback invoked with each run of :class:`DataPacket` objects
        whose final destination is this node (see :class:`BcpNodeSpec`).
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

    def submit(self, packet: DataPacket) -> None:
        """Accept a data packet from the routing layer (paper: "Sender Side:
        Interface to Routing").

        Packets destined for this node are delivered immediately; others are
        buffered toward their high-power next hop, possibly triggering a
        handshake.  With a ``max_delay_s`` budget configured, a deadline
        timer guards every buffered packet (the paper's delay-constrained
        future work).
        """
        self.stats.packets_submitted += 1
        if packet.dst == self.node_id:
            self.stats.packets_delivered += 1
            self.deliver((packet,))
            return
        try:
            next_hop = self._data_next_hop(packet.dst)
        except RoutingError:
            # A partitioned source (the sink, or every relay toward it,
            # is dead this epoch) drops at ingestion — counted, never a
            # crash.  Unreachable without fault injection: scenario
            # construction validates sender connectivity up front.
            self.stats.packets_unroutable += 1
            return
        if self.buffer.push(next_hop, packet):
            self.stats.packets_buffered += 1
            if self.config.max_delay_s is not None:
                self._arm_deadline(next_hop, packet)
            self._check_threshold(next_hop)
        else:
            self.stats.packets_dropped_buffer += 1

    def _data_next_hop(self, dst: int) -> int:
        if self.shortcuts is not None:
            return self.shortcuts.next_hop(dst)
        return self.high_routing.next_hop(self.node_id, dst)

    def _check_threshold(self, next_hop: int) -> None:
        if next_hop in self._sender_sessions:
            return
        if self.buffer.bytes_for(next_hop) < self.config.threshold_bytes:
            return
        session = _SenderSession(next_hop=next_hop, session_id=new_session_id())
        self._sender_sessions[next_hop] = session
        self.stats.handshakes_started += 1
        self.sim.process(
            self._run_sender_session(session),
            name=f"bcp.{self.node_id}.tx.{next_hop}",
        )

    # ------------------------------------------------------------------
    # Sender side: handshake and bulk transfer.
    # ------------------------------------------------------------------

    def _run_sender_session(self, session: _SenderSession) -> typing.Generator:
        next_hop = session.next_hop
        config = self.config
        try:
            allowed = yield from self._handshake(session)
            if allowed is None:
                self.stats.handshakes_failed += 1
                failures = min(self._handshake_failures.get(next_hop, 0) + 1, 6)
                self._handshake_failures[next_hop] = failures
                backoff = config.handshake_backoff_s * (2 ** (failures - 1))
                self._schedule_retry(next_hop, backoff)
                return
            self._handshake_failures.pop(next_hop, None)
            # Section 3: the sender turns its radio on only upon the ACK.
            yield self.high_radio.wake()
            self._radio_holds += 1
            try:
                yield from self._transfer(session, allowed)
            finally:
                self._release_radio_hold()
        finally:
            self._sender_sessions.pop(next_hop, None)
        # More data may have accumulated meanwhile (or flow control may
        # have clamped the burst) — re-arm immediately.
        self._check_threshold(next_hop)

    def _handshake(self, session: _SenderSession) -> typing.Generator:
        """WAKEUP / WAKEUP-ACK exchange; returns allowed bytes or None."""
        config = self.config
        if self.address_map is not None:
            # Resolve the peer's high-power address (the mapping the paper
            # requires BCP to maintain); failure means the peer has no
            # high-power radio and bulk transfer is impossible.
            from repro.net.addressing import HIGH_INTERFACE

            if not self.address_map.has_interface(
                session.next_hop, HIGH_INTERFACE
            ):
                return None
        for attempt in range(1 + config.wakeup_retries):
            if attempt > 0:
                self.stats.wakeup_retries += 1
            burst = self.buffer.bytes_for(session.next_hop)
            if burst <= 0:
                return None
            wakeup = Wakeup(
                origin=self.node_id,
                target=session.next_hop,
                session_id=session.session_id,
                burst_bytes=int(burst),
            )
            session.ack_event = self.sim.event()
            self.stats.wakeups_sent += 1
            self._send_control(wakeup, session.next_hop)
            timeout = self.sim.timeout(config.wakeup_timeout_s)
            outcome = yield session.ack_event | timeout
            if session.ack_event in outcome:
                return typing.cast(float, session.ack_event.value)
        return None

    def _transfer(
        self, session: _SenderSession, allowed_bytes: float
    ) -> typing.Generator:
        """Send the allowed burst as high-power frames, stop-and-wait."""
        next_hop = session.next_hop
        budget = min(allowed_bytes, self.buffer.bytes_for(next_hop))
        packets = self.buffer.pop_up_to(next_hop, budget)
        if not packets:
            return
        fragments = assemble_burst(
            packets,
            session.session_id,
            self.node_id,
            self.config.frame_payload_bytes,
        )
        high_header_bits = self.high_radio.spec.header_bits
        for fragment in fragments:
            frame = Frame(
                kind=FrameKind.DATA,
                src=self.node_id,
                dst=next_hop,
                payload_bits=fragment.payload_bits,
                header_bits=high_header_bits,
                payload=fragment,
                require_ack=True,
            )
            ok = yield self.high_mac.send(frame)
            if ok:
                self.stats.packets_sent += len(fragment.packets)
            else:
                self.stats.packets_lost_mac += len(fragment.packets)
        self.stats.bursts_completed += 1
        if (
            self.shortcuts is not None
            and self.config.shortcut_observation
            and packets
        ):
            # Learning phase: stay awake to overhear our packets being
            # forwarded — but only until a shortcut for this destination
            # is known, so the listening cost is paid per route, not per
            # burst.
            destination = packets[0].dst
            if not self.shortcuts.has_shortcut(destination):
                self._radio_holds += 1
                self.sim.call_later(
                    self.config.receiver_idle_timeout_s,
                    self._release_radio_hold,
                )

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

    def _arm_deadline(self, next_hop: int, packet: DataPacket) -> None:
        """Flush via the low-power radio if ``packet`` is still buffered
        when its delay budget expires (age measured from generation)."""
        budget = typing.cast(float, self.config.max_delay_s)
        remaining = max(0.0, packet.created_s + budget - self.sim.now)
        self.sim.call_later(
            remaining, self._deadline_expired, next_hop, packet.packet_id
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
        packets = self.buffer.pop_up_to(next_hop, float("inf"))
        header_bits = self.low_mac.radio.spec.header_bits
        for packet in packets:
            try:
                low_hop = self.low_routing.next_hop(self.node_id, packet.dst)
            except RoutingError:
                self.stats.packets_dropped_buffer += 1
                continue
            frame = Frame(
                kind=FrameKind.DATA,
                src=self.node_id,
                dst=low_hop,
                payload_bits=packet.payload_bits,
                header_bits=header_bits,
                payload=packet,
                require_ack=True,
            )
            self.low_mac.send(frame)
            self.stats.packets_sent_low += 1

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
        if isinstance(envelope, DataPacket):
            # Delay-constrained data travelling over the low-power radio:
            # deliver or keep forwarding immediately (it was flushed
            # because buffering would violate its deadline).
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
        self.sim.process(
            self._receiver_watchdog(session),
            name=f"bcp.{self.node_id}.rx.{wakeup.origin}",
        )

    def _acceptable_bytes(self) -> float:
        """How much bulk data this node can take (receiver flow control)."""
        pending = sum(
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
        if session.ack_event is not None and not session.ack_event.triggered:
            session.allowed_bytes = float(ack.allowed_bytes)
            session.ack_event.succeed(float(ack.allowed_bytes))

    def _receiver_watchdog(self, session: _ReceiverSession) -> typing.Generator:
        """Close the session when complete or idle too long (Section 3)."""
        idle = self.config.receiver_idle_timeout_s
        while session.active:
            yield self.sim.timeout(idle)
            if not session.active:
                return
            if session.received_bytes >= session.expected_bytes:
                self._close_receiver_session(session)
                return
            if self.sim.now - session.last_activity_s >= idle:
                self.stats.receiver_timeouts += 1
                self._close_receiver_session(session)
                return

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
        # Packets addressed here reach the sink in one call, counted as
        # if each had been submitted; the rest are submitted for relay.
        # Relaying never delivers synchronously, so handing the local run
        # over after the loop keeps the per-packet order and state.
        stats = self.stats
        node_id = self.node_id
        local = []
        for packet in fragment.packets:
            packet.hops += 1
            stats.packets_received += 1
            if packet.dst == node_id:
                local.append(packet)
            else:
                self.submit(packet)
        if local:
            stats.packets_submitted += len(local)
            stats.packets_delivered += len(local)
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
        if not isinstance(fragment, BurstFragment) or not fragment.packets:
            return
        # Recognize our packets by their network-layer source: relays
        # re-fragment bursts under their own session/origin, but the
        # DataPackets inside keep the original sender.
        ours = [
            packet
            for packet in fragment.packets
            if packet.src == self.node_id
        ]
        if not ours:
            return
        self.shortcuts.observe_forwarding(ours[0].dst, frame.src)
