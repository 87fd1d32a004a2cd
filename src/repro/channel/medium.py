"""The shared wireless medium: propagation, collisions and overhearing.

One :class:`Medium` models one frequency channel; the dual-radio scenarios
create two (the paper assumes the sensor and 802.11 radios operate on
non-overlapping channels).

Model
-----
* **Propagation** — pluggable (:mod:`repro.channel.propagation`).  The
  default is the paper's unit-disc model: audible exactly within each
  sender's nominal range.  Log-normal shadowing and distance-dependent
  PRR models can be swapped in per channel; they decide audibility (and
  optionally a per-frame decode roll) while the medium keeps timing,
  collisions and energy accounting.  Frames take ``total_bits / rate``
  seconds on the air.
* **Collisions** — receiver-centric: a reception fails if another
  transmission audible at the receiver overlaps it in time (including the
  receiver's own transmissions — radios are half-duplex).  This models the
  hidden-terminal losses that carrier sensing cannot prevent.  Every frame
  is unicast (BCP names a next hop for each one), so each frame has one
  receiver and one verdict: both sides of every overlap are settled when
  the later frame starts, and a receiver that was not listening at the
  preamble misses the frame.
* **Capture** — an overlapping transmission only corrupts the frame when
  the interferer is not markedly weaker than the wanted signal.  With
  distance-based power (path loss exponent ~3.5) an interferer at
  ``capture_ratio`` times the sender's distance is ≈8 dB down and the
  receiver captures the wanted frame — the behaviour real CC2420 and
  802.11 receivers (and the classic ns-2 model) exhibit.  Set
  ``capture_ratio=None`` for the pessimistic any-overlap-kills model.
* **Random loss** — an optional per-frame Bernoulli loss applied on top of
  collisions (:class:`LossModel`), plus whatever per-frame reception the
  propagation model rolls (e.g. distance-dependent PRR).
* **Overhearing** — every *listening* neighbour of the sender is charged
  reception energy for the frame via its radio's accounting hook; the
  evaluation models then include or exclude those charges (Sensor-ideal vs
  Sensor-header, Section 4).

Performance
-----------
The medium never schedules per-neighbour events: one start and one end
event per transmission.  Audible sets come from a
:class:`~repro.channel.index.NeighborIndex` built once, at the medium's
first use — the first frame, neighbor query or fault op.  Registering a
port after that raises :class:`ValueError`, so the index never
invalidates: layouts are immutable, and fault injection *repairs* it in
place (see "Topology epochs" below).  Both hot paths are batched over its
registration-order rank arrays:

* **Carrier sense is an O(1) read.**  ``transmit`` increments and
  ``_finish`` decrements one busy refcount per *audibility group* (ports
  with identical closed audible sets share a counter — see
  :class:`~repro.channel.index.NeighborIndex`), so :meth:`is_busy_for`
  indexes one array cell instead of scanning the active-transmission
  list per query, and a dense cell pays one counter update per frame
  instead of one per audible neighbor.
* **Delivery is one batched pass.**  :meth:`_finish` walks the sender's
  cached neighbor-rank tuple with every lookup hoisted: listening states
  come from a flat per-rank array that radios keep current through
  :meth:`note_state` at their (rare) state transitions.  Every port on a
  medium meters into one :class:`~repro.energy.meter.MeterBank`, and
  ports sharing ``(radio class, spec, component)`` form one *charge
  class*.  Receiver-side energy is one
  :meth:`~repro.energy.meter.MeterBank.apply_fanout` call per frame: each
  listener's bank row paired with its class's column plan, which
  :meth:`_reception_plans` resolves once per frame shape instead of per
  receiver.  Homogeneous and mixed-spec fleets take the same loop; the
  bank stamps each node's first charges in the order a per-receiver
  ``charge`` loop would, so golden digests do not depend on the fleet's
  make-up.

Topology epochs
---------------
Fault injection makes the fleet mortal without touching the no-fault hot
path.  :meth:`retire_node` / :meth:`restore_node` (node churn) and
:meth:`set_link` (scripted link up/down) build the index if it does not
exist yet, bump :attr:`topology_epoch` and repair state incrementally.
The neighbor index is the only owner of fault state: it validates each
op, records retired nodes and downed links, and refilters only the
affected audible sets (:meth:`NeighborIndex.retire_node`).  In-flight
frames from a dying sender are *aborted* (their end event still pops,
but end-of-frame processing is skipped — no delivery, no charges), and
the busy refcounts are replayed over the surviving active records
against the repaired audibility groups.  Routing tables consume the
epoch through their own ``invalidate_epoch`` API; a run that never
injects a fault never executes any of this.
"""

from __future__ import annotations

import typing

from repro.channel.index import NeighborIndex
from repro.channel.propagation import PropagationModel, UnitDiscPropagation
from repro.mac.frames import Frame
from repro.topology.layout import Layout

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.energy.meter import MeterBank
    from repro.radio.radio import RadioPort
    from repro.sim.simulator import Simulator


class LossModel:
    """Independent Bernoulli frame loss.

    Parameters
    ----------
    probability:
        Chance that an otherwise successful frame is lost (0 disables).
    rng:
        Random stream used for loss draws.  Required whenever
        ``probability`` is nonzero — validated here so a missing stream
        fails at construction rather than as an ``AttributeError`` on the
        first mid-run draw.
    """

    def __init__(self, probability: float = 0.0, rng: typing.Any = None):
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {probability}")
        if probability > 0.0 and rng is None:
            raise ValueError(
                f"a loss probability of {probability} requires an rng"
            )
        self.probability = probability
        self._rng = rng

    def is_lost(self) -> bool:
        """Draw one loss decision."""
        if self.probability <= 0.0:
            return False
        return self._rng.random() < self.probability


#: Upper bound on recycled Transmission records retained per medium.
_RECORD_POOL_MAX = 64


class Transmission:
    """Bookkeeping record for one in-flight frame.

    The record doubles as its own end-of-frame callback (appended to the
    end event's callback list directly), saving a closure allocation per
    frame on the hottest medium path — and recycles itself through the
    medium's record pool after end-of-frame processing.
    """

    __slots__ = (
        "medium",
        "sender",
        "frame",
        "start_s",
        "end_s",
        "corrupted",
        "receiver_listening",
        "busy_ranks",
        "busy_groups",
        "aborted",
    )

    def __init__(
        self,
        medium: "Medium",
        sender: "RadioPort",
        frame: Frame,
        start_s: float,
        end_s: float,
        receiver_listening: bool,
    ):
        self.medium = medium
        self.sender = sender
        self.frame = frame
        self.start_s = start_s
        self.end_s = end_s
        #: Set when another audible transmission overlapped at the receiver.
        self.corrupted = False
        #: Whether the addressed receiver could hear when the frame started.
        self.receiver_listening = receiver_listening
        #: The sender's audible ranks (the index's shared tuple — no
        #: per-frame allocation); delivery fans out over these.
        self.busy_ranks: tuple[int, ...] = ()
        #: Audibility-group ids whose busy refcount this record
        #: incremented (also an index-owned shared tuple).
        self.busy_groups: tuple[int, ...] = ()
        #: Set by :meth:`Medium.retire_node` when the sender dies
        #: mid-frame: the end event still pops, but ``_finish`` skips
        #: end-of-frame processing entirely (the busy-refcount replay
        #: already excluded the record).
        self.aborted = False

    def __call__(self, _event: typing.Any) -> None:
        medium = self.medium
        medium._finish(self)
        # The record is dead after _finish (nothing else references it):
        # drop the payload references and recycle it so the next transmit
        # skips the allocation.  The record stays valid in the end event's
        # already-dispatched callback slot — it is never called twice.
        self.sender = None
        self.frame = None
        pool = medium._record_pool
        if len(pool) < _RECORD_POOL_MAX:
            pool.append(self)


class Medium:
    """One radio channel shared by a set of registered radio ports.

    Parameters
    ----------
    sim:
        The simulation kernel.
    layout:
        Node placement (positions are looked up per node id).
    name:
        Channel label, used for RNG stream naming and traces.
    loss:
        Optional random-loss model applied to otherwise successful frames.
    propagation:
        Optional :class:`~repro.channel.propagation.PropagationModel`;
        defaults to the paper's unit-disc model over ``layout``.
    """

    #: Default capture threshold as a distance ratio: an interferer farther
    #: than 1.7x the sender's distance is ~8 dB weaker (path loss ~3.5) and
    #: does not corrupt the reception.  DSSS radios reject co-channel
    #: interference much harder — the CC2420 datasheet specifies ~3 dB
    #: co-channel rejection, i.e. a ratio near
    #: :data:`CC2420_CAPTURE_RATIO` — so the sensor channel uses that.
    DEFAULT_CAPTURE_RATIO = 1.7

    #: Distance-ratio equivalent of the CC2420's 3 dB co-channel rejection
    #: at path-loss exponent 3.5 (10^(3/35)).
    CC2420_CAPTURE_RATIO = 1.25

    def __init__(
        self,
        sim: "Simulator",
        layout: Layout,
        name: str = "channel",
        loss: LossModel | None = None,
        capture_ratio: float | None = DEFAULT_CAPTURE_RATIO,
        propagation: PropagationModel | None = None,
    ):
        self.sim = sim
        #: Bound once: transmit creates one end event per frame and the
        #: two attribute hops are measurable at contention scale.
        self._timeout = sim.timeout
        self.layout = layout
        self.name = name
        self.loss = loss or LossModel(0.0)
        self.propagation = propagation or UnitDiscPropagation(layout)
        if capture_ratio is not None and capture_ratio < 1.0:
            raise ValueError("capture_ratio must be >= 1 (or None)")
        self.capture_ratio = capture_ratio
        self._ports: dict[int, "RadioPort"] = {}
        self._active: list[Transmission] = []
        #: Precomputed audible sets, built once at first use (after which
        #: ``register`` raises).  The per-rank arrays below are populated
        #: with it, so ``_index is not None`` implies all of them are.
        self._index: NeighborIndex | None = None
        #: Per-audibility-group count of active transmissions audible at
        #: the group's ports (their own included) — the O(1) carrier-sense
        #: read.  ``_busy_group_of`` maps a port's rank to its group.
        self._busy: list[int] | None = None
        self._busy_group_of: list[int] | None = None
        #: Per-rank ``is_listening`` mirror, updated by :meth:`note_state`.
        self._listening: list[bool] | None = None
        #: The one bank every port meters into (fixed by the first
        #: registration), then receiver-side accounting with index
        #: lifetime like ``_listening``: each rank's bank row and
        #: charge-class id, and one representative port per class.
        self._bank: "MeterBank | None" = None
        self._bank_rows: list[int] | None = None
        self._charge_class: list[int] | None = None
        self._class_ports: list["RadioPort"] = []
        #: Ranks of promiscuous ports (index lifetime, like ``_listening``);
        #: an empty set lets delivery skip the overhear pass entirely.
        self._promiscuous: set[int] | None = None
        #: Recycled Transmission records (see ``Transmission.__call__``).
        self._record_pool: list[Transmission] = []
        #: Memoized reception plans keyed by frame shape ``(header_bits,
        #: duration, addressed)``: one bank column plan per charge class,
        #: indexed by class id.  The only plan cache — the bank keeps
        #: none.
        self._charges_memo: dict[
            tuple[int, float, bool],
            list[list[tuple[float, list[float], list[int]]]],
        ] = {}
        #: Memoized interference verdicts keyed (interferer, sender, rx)
        #: node ids — run constants between topology repairs, which clear
        #: it (see :meth:`_corrupts`).
        self._interferes_memo: dict[tuple[int, int, int], bool] = {}
        #: Bumped by every retire/restore/set_link; routing tables compare
        #: against it to decide whether their memos are stale.  A no-fault
        #: run leaves it at 0 forever.
        self.topology_epoch = 0
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_lost = 0

    # -- registration ------------------------------------------------------

    def register(self, port: "RadioPort") -> None:
        """Attach a radio port; one port per node per medium.

        Raises
        ------
        ValueError
            If the medium is already in use (its neighbor index exists),
            the node already has a port here or is not in the layout, or
            the port meters into a different
            :class:`~repro.energy.meter.MeterBank` than the first port — a
            frame's receptions are charged in one batch, so one medium
            needs one bank.
        """
        if self._index is not None:
            raise ValueError(
                f"medium {self.name!r} is already in use: register every "
                f"port before its first frame, neighbor query or fault"
            )
        ports = self._ports
        if port.node_id in ports:
            raise ValueError(
                f"node {port.node_id} already has a radio on medium {self.name!r}"
            )
        if port.node_id not in self.layout:
            raise ValueError(f"node {port.node_id} is not in the layout")
        bank = port.meter.bank
        if not ports:
            self._bank = bank
        elif bank is not self._bank:
            raise ValueError(
                f"node {port.node_id} meters into a different MeterBank "
                f"than node {next(iter(ports))} on medium {self.name!r}"
            )
        port._medium_rank = len(ports)
        ports[port.node_id] = port

    def port(self, node_id: int) -> "RadioPort":
        """The radio port registered for ``node_id``."""
        return self._ports[node_id]

    def _neighbor_index(self) -> NeighborIndex:
        index = self._index
        if index is None:
            index = self._build_index()
        return index

    def _build_index(self) -> NeighborIndex:
        """Build the neighbor index and the per-rank arrays tied to it
        (once: :meth:`register` refuses ports after this)."""
        index = NeighborIndex(self.layout, self._ports, self.propagation)
        ports = index.ports_by_rank
        # Receiver-side accounting: ports sharing (radio class, spec,
        # component) share one charge class, and hence one reception plan
        # per frame shape.  The class includes the concrete type because
        # a subclass may override ``reception_charges``.
        class_of: dict[tuple[typing.Any, ...], int] = {}
        class_ports: list["RadioPort"] = []
        charge_class = []
        for port in ports:
            key = (type(port), port.spec, port.component)
            cls = class_of.get(key)
            if cls is None:
                cls = class_of[key] = len(class_ports)
                class_ports.append(port)
            charge_class.append(cls)
        self._bank_rows = [port.meter.index for port in ports]
        self._charge_class = charge_class
        self._class_ports = class_ports
        self._listening = [port.is_listening for port in ports]
        self._replay_busy(index)
        self._promiscuous = {
            rank for rank, port in enumerate(ports) if port.promiscuous
        }
        self._index = index
        return index

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        """Registered nodes audible from ``node_id`` (precomputed tuple)."""
        return self._neighbor_index().neighbors(node_id)

    def is_neighbor(self, sender_id: int, listener_id: int) -> bool:
        """Whether ``listener_id`` can hear ``sender_id`` (O(1) lookup)."""
        return self._neighbor_index().is_neighbor(sender_id, listener_id)

    # -- port state notifications ------------------------------------------

    def note_state(self, port: "RadioPort") -> None:
        """Mirror ``port.is_listening`` into the per-rank array.

        Radios call this at every listening-state transition (transmit
        start/end, wake completion, sleep), which is what lets delivery
        read a flat array instead of calling n properties per frame.
        """
        listening = self._listening
        if listening is not None:
            listening[port._medium_rank] = port.is_listening

    def note_promiscuous(self, port: "RadioPort") -> None:
        """Record that ``port`` wants overheard frames.

        Before the index exists there is nothing to mirror — the build
        collects promiscuous flags from the ports directly.
        """
        promiscuous = self._promiscuous
        if promiscuous is not None:
            promiscuous.add(port._medium_rank)

    # -- carrier sensing -----------------------------------------------------

    def is_busy_for(self, node_id: int) -> bool:
        """Whether ``node_id`` senses the channel busy right now.

        True if any active transmission is audible at the listener's
        position (energy detection), or the listener is itself sending.
        O(1): reads the group busy refcount ``transmit``/``_finish``
        maintain.
        """
        if not self._active:
            return False
        port = self._ports.get(node_id)
        if port is None:
            return False
        return self._busy[self._busy_group_of[port._medium_rank]] > 0

    # -- topology epochs ---------------------------------------------------

    def retire_node(self, node_id: int) -> None:
        """Take ``node_id`` off the air: abort its in-flight frames and
        repair audibility, busy refcounts and the listening bitmap.

        The port stays registered — :meth:`restore_node` brings it back.
        Callers power down the node's radio/MAC first, so its
        ``is_listening`` already reads False by the time delivery looks.
        The index validates the op (``KeyError`` for an unknown node,
        ``ValueError`` for one already retired).
        """
        index = self._neighbor_index()
        index.retire_node(node_id)
        for record in self._active:
            if not record.aborted and record.sender.node_id == node_id:
                record.aborted = True
        rank = self._ports[node_id]._medium_rank
        self._listening[rank] = False
        self._promiscuous.discard(rank)
        self._repair_after_topology_change(index)

    def restore_node(self, node_id: int) -> None:
        """Bring a retired ``node_id`` back on the air (``ValueError``
        unless it is retired)."""
        index = self._neighbor_index()
        index.restore_node(node_id)
        port = self._ports[node_id]
        rank = port._medium_rank
        self._listening[rank] = port.is_listening
        if port.promiscuous:
            self._promiscuous.add(rank)
        self._repair_after_topology_change(index)

    def set_link(self, a: int, b: int, up: bool) -> None:
        """Force the ``a``–``b`` link down (or back up) regardless of
        range; the index validates the endpoints and the link's state."""
        index = self._neighbor_index()
        index.set_link(a, b, up=up)
        self._repair_after_topology_change(index)

    def _replay_busy(self, index: NeighborIndex) -> None:
        """Rebuild the busy refcounts over ``index``'s audibility groups.

        Replays the increments of whatever is still on the air, refreshing
        each active record's rank and group tuples against ``index`` (a
        topology repair changes audibility).  At the build nothing is on
        the air yet — the index exists before the first frame — so the
        counts start at zero.  Aborted records are dead weight awaiting
        their end event and hold no refcounts.
        """
        busy = [0] * index.n_groups
        for record in self._active:
            if record.aborted:
                continue
            sender_id = record.sender.node_id
            record.busy_ranks = index.neighbor_ranks(sender_id)
            record.busy_groups = groups = index.busy_groups(sender_id)
            for group in groups:
                busy[group] += 1
        self._busy = busy
        self._busy_group_of = index.group_of_rank

    def _repair_after_topology_change(self, index: NeighborIndex) -> None:
        """Replay busy refcounts against the repaired audibility groups.

        The interference memo is cleared wholesale — verdicts between
        surviving nodes would stay valid, but faults are rare enough that
        a cold memo beats proving which triples survived.
        """
        self._replay_busy(index)
        self._interferes_memo.clear()
        self.topology_epoch += 1

    # -- transmission ------------------------------------------------------

    def transmit(
        self, sender: "RadioPort", frame: Frame, duration: float
    ) -> "typing.Any":
        """Put ``frame`` on the air from ``sender`` for ``duration``
        seconds (its airtime); returns the end event.

        The caller (the radio) is responsible for putting itself into the
        transmitting state for that duration; the medium handles
        interference, delivery and receiver-side energy.
        """
        start = self.sim.now
        end = start + duration
        receiver_port = self._ports.get(frame.dst)
        receiver_listening = (
            receiver_port.is_listening if receiver_port is not None else False
        )
        pool = self._record_pool
        if pool:
            record = pool.pop()
            record.sender = sender
            record.frame = frame
            record.start_s = start
            record.end_s = end
            record.corrupted = False
            record.receiver_listening = receiver_listening
            record.busy_ranks = ()
            record.busy_groups = ()
            record.aborted = False
        else:
            record = Transmission(
                self,
                sender,
                frame,
                start,
                end,
                receiver_listening=receiver_listening,
            )
        self.frames_sent += 1
        index = self._index
        if index is None:
            index = self._build_index()

        # Interference against currently active transmissions: every
        # frame has one known receiver, so both verdicts settle here.
        corrupts = self._corrupts
        for other in self._active:
            # The new transmission corrupts ongoing receptions whose
            # receiver hears this sender too loudly to reject it.
            if not other.corrupted and corrupts(interferer=sender, victim=other):
                other.corrupted = True
            # Ongoing transmissions corrupt the new one if audible at its
            # receiver (this includes the receiver itself transmitting).
            if receiver_port is not None and not record.corrupted:
                if corrupts(interferer=other.sender, victim=record):
                    record.corrupted = True

        # Direct dict reads over the index's per-node tuples: these two
        # lookups run once per frame on the hottest path in the codebase.
        sender_id = sender.node_id
        record.busy_ranks = index._neighbor_ranks[sender_id]
        record.busy_groups = groups = index._busy_groups[sender_id]
        busy = self._busy
        for group in groups:
            busy[group] += 1

        self._active.append(record)
        end_event = self._timeout(duration)
        end_event.callbacks.append(record)
        return end_event

    def _corrupts(self, interferer: "RadioPort", victim: Transmission) -> bool:
        """Whether ``interferer``'s signal ruins ``victim``'s reception.

        The interferer must be audible at the victim's receiver, and — when
        capture is enabled — not far enough away for the receiver to reject
        it.  A receiver that is itself transmitting (distance 0) is always
        corrupted: radios are half-duplex.

        Memoized per ``(interferer, sender, rx)`` node-id triple: the
        layout is immutable and audibility only changes on a topology
        repair (which clears the memo), so each verdict is a run
        constant.  On contention-heavy cells the same triples recur for
        every frame overlap, making this one of the hottest calls in the
        run; the memo is read inline to spare a call frame per pair.
        """
        victim_rx = victim.frame.dst
        interferer_id = interferer.node_id
        if victim_rx == interferer_id:
            return True
        sender = victim.sender
        key = (interferer_id, sender.node_id, victim_rx)
        memo = self._interferes_memo
        try:
            # Hit-dominated after warmup: the triples recur every overlap.
            return memo[key]
        except KeyError:
            pass
        if victim_rx not in self._ports:
            return False
        verdict = memo[key] = self._interferes_uncached(
            interferer_id, sender, victim_rx
        )
        return verdict

    def _interferes_uncached(
        self, interferer_id: int, sender: "RadioPort", rx_id: int
    ) -> bool:
        """The receiver-centric overlap/capture test at node ``rx_id``."""
        if not self._neighbor_index().is_neighbor(interferer_id, rx_id):
            return False
        if self.capture_ratio is None:
            return True
        rx_pos = self.layout.position(rx_id)
        signal_distance = self.layout.position(
            sender.node_id
        ).distance_to(rx_pos)
        interference_distance = self.layout.position(
            interferer_id
        ).distance_to(rx_pos)
        return interference_distance < self.capture_ratio * signal_distance

    def _reception_plans(
        self, frame: Frame, duration: float, addressed: bool
    ) -> list[list[tuple[float, list[float], list[int]]]]:
        """Per-charge-class bank column plans for hearing ``frame``.

        :meth:`RadioPort.reception_charges` is a pure function of the
        radio's class, spec and the frame's shape, so each class's plan is
        resolved once per shape and memoized — frames come in a handful
        of shapes per run (data frames and ACKs each in one), which saves
        recomputing the same float arithmetic and column lookups hundreds
        of thousands of times.  Indexed by charge-class id.
        """
        key = (frame.header_bits, duration, addressed)
        plans = self._charges_memo.get(key)
        if plans is None:
            bank = self._bank
            plans = self._charges_memo[key] = [
                bank.fanout_plan(
                    port.component,
                    port.reception_charges(frame, duration, addressed=addressed),
                )
                for port in self._class_ports
            ]
        return plans

    def _finish(self, record: Transmission) -> None:
        """End-of-frame: deliver (or not) and charge receiver-side energy."""
        self._active.remove(record)
        if record.aborted:
            # The sender died mid-frame: the topology repair already
            # dropped this record's busy refcounts and nobody decodes a
            # truncated frame, so there is nothing to deliver or charge.
            return
        sender = record.sender
        busy = self._busy
        for group in record.busy_groups:
            busy[group] -= 1

        frame = record.frame
        duration = record.end_s - record.start_s
        # transmit() built the index before this record existed.
        index = self._index
        frame_dst = frame.dst
        dst_port = self._ports.get(frame_dst)
        dst_rank = dst_port._medium_rank if dst_port is not None else -1
        # The ranks this record made busy are exactly the sender's audible
        # ranks (refreshed by _replay_busy on a topology repair) — no
        # second index lookup needed.
        ranks = record.busy_ranks

        # Receiver-side energy for everyone who heard the frame.  Charged
        # whether or not the frame decodes: the radio listened regardless.
        # The addressed receiver pays its class's addressed plan, everyone
        # else its overhear plan; the overhear plans resolve first, which
        # fixes the order the bank creates its columns in.  Promiscuous
        # listeners additionally get a copy of frames addressed elsewhere
        # (approximation: decodability at third parties follows the
        # addressed receiver's collision outcome).
        listening = self._listening
        plans = self._reception_plans(frame, duration, False)
        addressed_plans = self._reception_plans(frame, duration, True)
        rows = self._bank_rows
        charge_class = self._charge_class
        pairs = [
            (
                rows[rank],
                addressed_plans[charge_class[rank]]
                if rank == dst_rank
                else plans[charge_class[rank]],
            )
            for rank in ranks
            if listening[rank]
        ]
        if pairs:
            self._bank.apply_fanout(pairs)
            promiscuous = self._promiscuous
            if promiscuous and not record.corrupted:
                ports_by_rank = index.ports_by_rank
                for rank in ranks:
                    if (
                        rank in promiscuous
                        and listening[rank]
                        and rank != dst_rank
                    ):
                        ports_by_rank[rank].deliver_overheard(frame)

        if dst_port is None:
            return
        in_reach = frame_dst in index._members[sender.node_id]
        if (
            not in_reach
            or not record.receiver_listening
            or not dst_port.is_listening
        ):
            return
        if record.corrupted:
            self.frames_collided += 1
            return
        # Loss and propagation rolls are hoisted behind cheap flag reads:
        # is_lost() without a configured probability and delivery_roll()
        # on a non-rolling model draw nothing and always pass, so skipping
        # the calls is behaviour-identical and saves two method calls per
        # delivered frame.
        loss = self.loss
        if loss.probability > 0.0 and loss.is_lost():
            self.frames_lost += 1
            return
        propagation = self.propagation
        if propagation.rolls_delivery and not propagation.delivery_roll(
            sender, frame_dst
        ):
            self.frames_lost += 1
            return
        self.frames_delivered += 1
        dst_port.deliver(frame)
