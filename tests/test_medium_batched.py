"""Batched medium delivery: reception verdicts and decision identity.

Covers:

* the unicast reception verdicts: capture of a weak interferer, the
  any-overlap-kills model without capture, a receiver deaf at the
  preamble (missed, not collided), and loss rolls that reconcile with
  frames sent;
* :class:`LossModel` validates at construction that a nonzero probability
  comes with an rng;
* a hypothesis property pins the batched delivery path (listening
  bitmap, per-charge-class ``MeterBank`` energy fanout, O(1) busy
  refcounts) as decision- and bit-identical to a per-receiver charging
  oracle, on homogeneous and mixed-spec fleets alike, and checks that
  frame outcomes are conserved: every frame has one receiver, so the
  delivered, collided and lost counts never exceed the frames sent and
  no frame is received twice;
* the neighbor index is built once, at the medium's first use: a late
  registration raises, a retire before any frame matches a fresh index
  with that node retired, and a retire mid-flight replays the busy
  refcounts over the surviving frames.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.index import NeighborIndex
from repro.channel.medium import LossModel, Medium
from repro.channel.propagation import DistancePrr
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import MICA2, MICAZ
from repro.mac.frames import Frame, FrameKind
from repro.radio.radio import LowPowerRadio
from repro.sim import Simulator
from repro.topology import line_layout
from repro.topology.layout import Layout, Position


def data_frame(src, dst, payload_bits=256, header_bits=64, seq=0):
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bits=payload_bits,
        header_bits=header_bits,
        seq=seq,
        require_ack=False,
    )


class BankHarness:
    """Raw radios metered by one MeterBank (the batched fast path)."""

    def __init__(self, layout, loss=None, seed=1, propagation=None):
        self.sim = Simulator(seed=seed)
        self.layout = layout
        self.medium = Medium(
            self.sim, layout, "test", loss=loss, propagation=propagation
        )
        n = len(layout)
        self.bank = MeterBank(n)
        self.radios = {
            i: LowPowerRadio(
                self.sim, i, MICAZ, self.medium, self.bank.meter(i)
            )
            for i in range(n)
        }
        self.received = {i: [] for i in range(n)}
        for i in range(n):
            self.radios[i].set_receiver(
                lambda frame, i=i: self.received[i].append(frame)
            )


class TestLossModelValidation:
    def test_nonzero_probability_requires_rng(self):
        with pytest.raises(ValueError):
            LossModel(0.3)

    def test_zero_probability_needs_no_rng(self):
        model = LossModel(0.0)
        assert not any(model.is_lost() for _ in range(10))

    def test_nonzero_probability_with_rng_accepted(self):
        sim = Simulator(seed=1)
        model = LossModel(0.3, sim.rng.stream("loss"))
        assert model.is_lost() in (True, False)


#: Sender 1 is 10 m from receiver 0; node 2 is 40 m from node 0.
CAPTURE_LAYOUT = Layout(
    {0: Position(0.0, 0.0), 1: Position(10.0, 0.0), 2: Position(40.0, 0.0)}
)


def _interfere_mid_frame(capture_ratio):
    """Frame 1 -> 0, with 2 -> 1 starting 1 ms into it."""
    h = BankHarness(CAPTURE_LAYOUT)
    h.medium.capture_ratio = capture_ratio
    h.radios[1].transmit(data_frame(1, 0, payload_bits=8192))

    h.sim.call_later(  # mid-flight of the wanted frame
        0.001, h.radios[2].transmit, data_frame(2, 1, payload_bits=64)
    )
    h.sim.run()
    return h


class TestUnicastCollisions:
    def test_capture_saves_frame_from_weak_interferer(self):
        # At node 0 the wanted signal is 10 m away, the interferer 40 m:
        # 40 >= 1.7 * 10, so node 0 captures the frame.  The interferer's
        # own frame finds node 1 transmitting: missed, not collided.
        h = _interfere_mid_frame(Medium.DEFAULT_CAPTURE_RATIO)
        assert len(h.received[0]) == 1
        assert h.medium.frames_collided == 0

    def test_any_overlap_kills_without_capture(self):
        h = _interfere_mid_frame(None)
        assert h.received[0] == []
        assert h.medium.frames_collided == 1

    def test_receiver_deaf_at_frame_start_misses_it(self):
        """A receiver mid-transmission when a frame starts cannot sync to
        its preamble, even if its own frame ends first: skipped, not
        collided."""
        h = BankHarness(line_layout(3, 40.0))
        h.radios[1].transmit(data_frame(1, 2, payload_bits=64))
        h.radios[0].transmit(data_frame(0, 1, payload_bits=8192))
        h.sim.run()
        assert h.received[1] == []
        assert len(h.received[2]) == 1
        assert h.medium.frames_collided == 0
        assert h.medium.frames_delivered == 1


class TestUnicastCounters:
    def test_failed_rolls_surface_as_lost(self):
        h = BankHarness(line_layout(2, 40.0), seed=7)
        h.medium.loss = LossModel(0.5, h.sim.rng.stream("loss"))

        def send(seq):
            # Back to back: each frame goes out when the last one ends.
            on_end = (lambda: send(seq + 1)) if seq + 1 < 40 else None
            h.radios[0].transmit(data_frame(0, 1, seq=seq), on_end=on_end)

        send(0)
        h.sim.run()
        # Every in-range frame is either delivered or a counted loss.
        medium = h.medium
        assert medium.frames_sent == 40
        assert medium.frames_delivered + medium.frames_lost == 40
        assert 0 < medium.frames_lost < 40
        assert medium.frames_delivered == len(h.received[1])


class TestReceptionCharging:
    def test_ports_metering_into_two_banks_are_rejected(self):
        sim = Simulator(seed=1)
        layout = line_layout(3, 40.0)
        medium = Medium(sim, layout, "m")
        bank, other = MeterBank(3), MeterBank(3)
        LowPowerRadio(sim, 0, MICAZ, medium, bank.meter(0))
        LowPowerRadio(sim, 1, MICAZ, medium, bank.meter(1))
        # The offending registration itself fails, not the first use.
        with pytest.raises(ValueError, match="node 2 meters into a different"):
            LowPowerRadio(sim, 2, MICAZ, medium, other.meter(2))
        assert list(medium._ports) == [0, 1]

    def test_mixed_spec_medium_charges_each_node_its_own_plan(self):
        # 1 -> 0 unicast: 0 (Mica2) is addressed, 2 (Micaz) overhears.
        sim = Simulator(seed=1)
        medium = Medium(sim, line_layout(3, 40.0), "m")
        bank = MeterBank(3)
        specs = (MICA2, MICA2, MICAZ)
        radios = [
            LowPowerRadio(sim, i, spec, medium, bank.meter(i))
            for i, spec in enumerate(specs)
        ]
        frame = data_frame(1, 0)
        radios[1].transmit(frame)
        sim.run()
        duration = radios[1].airtime(frame)
        assert radios[0].meter.breakdown() == {
            ("radio.Mica2", "rx"): MICA2.p_rx_w * duration
        }
        header_s = frame.header_bits / MICAZ.rate_bps
        assert radios[2].meter.breakdown() == {
            ("radio.Micaz", "overhear_header"): MICAZ.p_rx_w * header_s,
            ("radio.Micaz", "overhear_body"): (
                MICAZ.p_rx_w * (duration - header_s)
            ),
        }


class TestFastPathEligibility:
    def test_busy_refcount_tracks_overlapping_frames(self):
        h = BankHarness(line_layout(3, 40.0))
        h.radios[0].transmit(data_frame(0, 1, payload_bits=8192))
        trace = []

        def probe():
            trace.append(h.medium.is_busy_for(1))  # hears both
            trace.append(h.medium.is_busy_for(0))  # own + nothing else

        def second_sender():
            h.radios[2].transmit(data_frame(2, 1, payload_bits=8192))
            h.sim.call_later(0.001, probe)

        h.sim.call_later(0.001, second_sender)
        h.sim.run()
        trace.append(h.medium.is_busy_for(1))  # all over
        assert trace == [True, True, False]
        assert all(count == 0 for count in h.medium._busy)

    def test_retire_mid_flight_keeps_refcounts_consistent(self):
        # Fault-injection interaction: a node retires while frames are in
        # flight.  Its own frame is aborted, and the busy refcounts are
        # replayed over the surviving in-flight transmission.
        h = BankHarness(line_layout(3, 40.0))
        medium = h.medium
        h.radios[0].transmit(data_frame(0, 1, payload_bits=8192))
        trace = []

        def retire():
            h.radios[0].power_down()
            medium.retire_node(0)  # aborts 0's frame; 2's survives
            trace.append(medium.is_busy_for(1))  # still hears node 2
            trace.append(0 in medium.neighbors(1))  # retirement applied
            trace.append(medium.is_busy_for(0))  # deaf and mute now

        def second_sender():
            h.radios[2].transmit(data_frame(2, 1, payload_bits=8192))
            h.sim.call_later(0.001, retire)

        h.sim.call_later(0.001, second_sender)
        h.sim.run()
        assert trace == [True, False, False]
        assert all(count == 0 for count in medium._busy)
        # ... and the epoch machinery keeps working on the same index.
        medium.restore_node(0)
        assert 0 in medium.neighbors(1)


def _transmit(medium, radios):
    radios[0].transmit(data_frame(0, 1))


def _query_neighbors(medium, radios):
    medium.neighbors(0)


def _retire(medium, radios):
    medium.retire_node(1)


class TestBuildOnce:
    """The neighbor index is built once, at the medium's first use."""

    @pytest.mark.parametrize(
        "first_use", (_transmit, _query_neighbors, _retire)
    )
    def test_register_after_first_use_raises(self, first_use):
        sim = Simulator(seed=1)
        medium = Medium(sim, line_layout(4, 40.0), "test")
        bank = MeterBank(4)
        radios = [
            LowPowerRadio(sim, i, MICAZ, medium, bank.meter(i))
            for i in range(3)
        ]
        first_use(medium, radios)
        index = medium._index
        assert index is not None
        with pytest.raises(ValueError, match="already in use"):
            LowPowerRadio(sim, 3, MICAZ, medium, bank.meter(3))
        assert 3 not in medium._ports
        sim.run()
        assert medium._index is index  # never rebuilt

    def test_retire_before_any_frame_matches_fresh_index(self):
        h = BankHarness(line_layout(5, 40.0))
        medium = h.medium
        medium.retire_node(2)  # the medium's first use builds the index
        fresh = NeighborIndex(medium.layout, medium._ports, medium.propagation)
        fresh.retire_node(2)
        for node in range(5):
            assert medium.neighbors(node) == fresh.neighbors(node)
            assert medium._index.busy_groups(node) == fresh.busy_groups(node)
        assert medium._index.group_of_rank == fresh.group_of_rank


# -- decision identity: batched delivery vs a per-receiver oracle -----------


class _ScaledRadio(LowPowerRadio):
    """Overrides the charges but not the spec or component, so it must
    get a charge class of its own."""

    def reception_charges(self, frame, duration, addressed):
        return tuple(
            (3.0 * joules, category)
            for joules, category in super().reception_charges(
                frame, duration, addressed
            )
        )


#: Port flavours a drawn fleet mixes: each is its own charge class.
FLEET = (
    (LowPowerRadio, MICAZ, None),
    (LowPowerRadio, MICA2, None),
    (LowPowerRadio, MICAZ, "radio.alt"),
    (_ScaledRadio, MICAZ, None),
)


class OracleMedium(Medium):
    """The per-receiver reference: each listening audible rank is charged
    its own port's ``reception_charges`` through ``bank.charge``; the
    batched plans are emptied, so only the oracle charges."""

    def _reception_plans(self, frame, duration):
        empty = [[]] * len(self._class_ports)
        return empty, empty

    def _finish(self, record):
        if not record.aborted:
            frame = record.frame
            duration = record.end_s - record.start_s
            for rank in record.busy_ranks:
                port = self._index.ports_by_rank[rank]
                if port.is_listening:
                    addressed = frame.dst == port.node_id
                    for joules, category in port.reception_charges(
                        frame, duration, addressed
                    ):
                        port.meter.bank.charge(
                            port.meter.index, joules, port.component, category
                        )
        super()._finish(record)


@st.composite
def medium_scenario(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    positions = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=100),
            ),
            min_size=n,
            max_size=n,
        )
    )
    if draw(st.booleans()):
        flavours = [0] * n
    else:
        flavours = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(FLEET) - 1),
                min_size=n,
                max_size=n,
            ).filter(lambda drawn: len(set(drawn)) >= 2)
        )
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),  # sender
                st.integers(min_value=0, max_value=n - 1),  # dst
                st.integers(min_value=0, max_value=3),  # delay ms
            ),
            min_size=1,
            max_size=25,
        )
    )
    promiscuous = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    use_loss = draw(st.booleans())
    use_prr = draw(st.booleans())
    seed = draw(st.integers(min_value=1, max_value=10_000))
    return n, positions, flavours, events, promiscuous, use_loss, use_prr, seed


def _run_schedule(scenario, medium_class):
    n, positions, flavours, events, promiscuous, use_loss, use_prr, seed = (
        scenario
    )
    sim = Simulator(seed=seed)
    layout = Layout(
        {i: Position(float(x), float(y)) for i, (x, y) in enumerate(positions)}
    )
    loss = LossModel(0.2, sim.rng.stream("loss")) if use_loss else None
    propagation = (
        DistancePrr(layout, sim.rng.stream("prop"), exponent=2.0)
        if use_prr
        else None
    )
    medium = medium_class(sim, layout, "m", loss=loss, propagation=propagation)
    bank = MeterBank(n)
    radios = {}
    for i in range(n):
        radio_class, spec, component = FLEET[flavours[i]]
        radios[i] = radio_class(
            sim, i, spec, medium, bank.meter(i), component=component
        )
    received = {i: [] for i in range(n)}
    overheard = {i: [] for i in range(n)}
    for i in range(n):
        radios[i].set_receiver(
            lambda frame, i=i: received[i].append((frame.src, frame.seq))
        )
    for i in promiscuous:
        radios[i].set_overhear_handler(
            lambda frame, i=i: overheard[i].append((frame.src, frame.seq))
        )
    medium._neighbor_index()
    assert len(medium._class_ports) == len(set(flavours))
    busy_trace = []

    def step(seq):
        """Sample carrier sense, send, then wait for the next step."""
        sender, dst, _delay_ms = events[seq]
        sensed = [medium.is_busy_for(i) for i in range(n)]
        # The O(1) refcount must agree with the historical scan over
        # active transmissions at every sample point.
        for i in range(n):
            reference = any(
                tx.sender.node_id == i
                or medium.is_neighbor(tx.sender.node_id, i)
                for tx in medium._active
            )
            assert sensed[i] == reference
        busy_trace.append(sensed)
        radio = radios[sender]
        if not radio.is_transmitting:
            radio.transmit(data_frame(sender, dst, seq=seq))
        if seq + 1 < len(events):
            sim.call_later(events[seq + 1][2] / 1000.0, step, seq + 1)

    if events:
        sim.call_later(events[0][2] / 1000.0, step, 0)
    sim.run()
    # Each frame ends in at most one outcome at its one receiver.
    assert (
        medium.frames_delivered + medium.frames_collided + medium.frames_lost
        <= medium.frames_sent
    )
    keys = [key for frames in received.values() for key in frames]
    assert len(keys) == len(set(keys)) == medium.frames_delivered
    return {
        "received": received,
        "overheard": overheard,
        "counters": (
            medium.frames_sent,
            medium.frames_delivered,
            medium.frames_collided,
            medium.frames_lost,
        ),
        "energy": [bank.node_items(i) for i in range(n)],
        "busy": busy_trace,
    }


class TestBatchedDecisionIdentity:
    @settings(max_examples=30, deadline=None)
    @given(scenario=medium_scenario())
    def test_fast_path_matches_historical_loop(self, scenario):
        """Same fleet, topology, traffic, listening churn, loss and PRR
        draws: the batched per-class fanout and the per-receiver oracle
        must make identical decisions and charge bit-identical energy."""
        batched = _run_schedule(scenario, Medium)
        oracle = _run_schedule(scenario, OracleMedium)
        assert batched == oracle
