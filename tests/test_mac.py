"""MAC layers: frames, ACK/retry behaviour, dedup, contention, queues."""

import pytest

from repro.channel.medium import LossModel, Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import MICAZ
from repro.mac.frames import Frame, FrameKind, make_ack
from repro.mac.timing import MacParams, dcf_params, sensor_csma_params
from repro.radio.radio import LowPowerRadio
from repro.mac.csma import SensorCsmaMac
from repro.sim import Simulator
from repro.topology import line_layout


def data_frame(src, dst, payload_bits=256, require_ack=True):
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bits=payload_bits,
        header_bits=64,
        require_ack=require_ack,
    )


class Net:
    def __init__(self, n=3, seed=5, loss_p=0.0, params=None):
        self.sim = Simulator(seed=seed)
        self.layout = line_layout(n, 40.0)
        loss = LossModel(loss_p, self.sim.rng.stream("loss")) if loss_p else None
        self.medium = Medium(self.sim, self.layout, "m", loss=loss)
        bank = MeterBank(n)
        self.meters = {i: bank.meter(i) for i in range(n)}
        self.radios = {
            i: LowPowerRadio(self.sim, i, MICAZ, self.medium, self.meters[i])
            for i in range(n)
        }
        self.macs = {
            i: SensorCsmaMac(self.sim, self.radios[i], params=params)
            for i in range(n)
        }
        self.delivered = {i: [] for i in range(n)}
        for i in range(n):
            self.macs[i].set_data_handler(
                lambda frame, i=i: self.delivered[i].append(frame)
            )


class TestFrames:
    def test_total_bits(self):
        assert data_frame(0, 1).total_bits == 320

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Frame(FrameKind.DATA, 0, 1, payload_bits=-1, header_bits=0)

    def test_unique_frame_ids(self):
        assert data_frame(0, 1).frame_id != data_frame(0, 1).frame_id

    def test_make_ack_addresses_reversed(self):
        frame = data_frame(3, 7)
        frame.seq = 42
        ack = make_ack(frame, ack_bits=88)
        assert ack.src == 7 and ack.dst == 3
        assert ack.seq == 42
        assert ack.kind == FrameKind.ACK
        assert not ack.require_ack
        assert ack.total_bits == 88


class TestMacParams:
    def test_contention_window_doubles_and_caps(self):
        params = sensor_csma_params()
        assert params.contention_window(0) == params.cw_min_slots
        assert params.contention_window(1) == 2 * params.cw_min_slots
        assert params.contention_window(10) == params.cw_max_slots

    def test_dcf_matches_80211b(self):
        params = dcf_params()
        assert params.slot_s == 20e-6
        assert params.sifs_s == 10e-6
        assert params.difs_s == 50e-6
        assert params.max_retries == 7
        assert params.preamble_s == 192e-6

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            MacParams(
                slot_s=1e-6, sifs_s=1e-6, difs_s=1e-6,
                cw_min_slots=8, cw_max_slots=4, max_retries=1, ack_bits=8,
            )


class TestUnicastAck:
    def test_successful_send_returns_true(self):
        net = Net()
        done = net.macs[0].send(data_frame(0, 1))
        assert net.sim.run(until=done) is True
        assert len(net.delivered[1]) == 1

    def test_ack_received_by_sender(self):
        net = Net()
        done = net.macs[0].send(data_frame(0, 1))
        net.sim.run(until=done)
        assert net.macs[0].sent_ok == 1
        assert net.macs[0].retransmissions == 0

    def test_out_of_range_fails_after_retries(self):
        net = Net()
        done = net.macs[0].send(data_frame(0, 2))  # 80 m away
        assert net.sim.run(until=done) is False
        assert net.macs[0].sent_failed == 1
        assert (
            net.macs[0].retransmissions
            == sensor_csma_params().max_retries
        )

    def test_no_ack_frames_single_attempt(self):
        net = Net()
        done = net.macs[0].send(data_frame(0, 2, require_ack=False))
        assert net.sim.run(until=done) is True  # fire-and-forget "succeeds"
        assert net.macs[0].retransmissions == 0

    def test_loss_triggers_retransmission_then_success(self):
        """At 40% frame loss a try succeeds only if data AND ack survive
        (p = 0.36), so a few of 30 frames may exhaust retries — but
        retransmissions must kick in and dedup must keep deliveries
        unique."""
        net = Net(loss_p=0.4, seed=11)
        results = []
        for _ in range(30):
            done = net.macs[0].send(data_frame(0, 1))
            results.append(net.sim.run(until=done))
        assert sum(results) >= 25
        assert net.macs[0].retransmissions > 0
        # Dedup: every delivery is unique despite retransmissions; some
        # "failed" sends actually delivered (their ACKs were lost).
        seqs = [frame.seq for frame in net.delivered[1]]
        assert len(seqs) == len(set(seqs))
        assert len(seqs) >= sum(results)


class TestDuplicateSuppression:
    def test_duplicate_data_not_delivered_twice(self):
        net = Net()
        frame = data_frame(0, 1)
        done = net.macs[0].send(frame)
        net.sim.run(until=done)
        # Simulate a lost ACK by replaying the same seq.
        replay = data_frame(0, 1)
        replay.seq = frame.seq
        done2 = net.macs[0].send(replay)
        net.sim.run(until=done2)
        assert len(net.delivered[1]) == 1

    def test_distinct_seqs_both_delivered(self):
        net = Net()
        for _ in range(2):
            done = net.macs[0].send(data_frame(0, 1))
            net.sim.run(until=done)
        assert len(net.delivered[1]) == 2


class TestQueueing:
    def test_queue_overflow_drops(self):
        params = sensor_csma_params(queue_capacity=2)
        net = Net(params=params)
        events = [net.macs[0].send(data_frame(0, 1)) for _ in range(10)]
        net.sim.run()
        outcomes = [event.value for event in events]
        assert outcomes.count(False) >= 7  # one in-flight + 2 queued at most
        assert net.macs[0].queue_drops >= 7

    def test_frames_serialized_in_order(self):
        net = Net()
        for _ in range(5):
            net.macs[0].send(data_frame(0, 1))
        net.sim.run()
        seqs = [frame.seq for frame in net.delivered[1]]
        assert seqs == sorted(seqs)
        assert len(seqs) == 5


class TestContention:
    def test_two_senders_one_receiver_all_deliver(self):
        """Carrier sense + retries sort out a 2-sender hot spot."""
        net = Net(n=3)
        # 0 and 2 both send to 1 (hidden from each other -> real collisions).
        events = []
        for _ in range(10):
            events.append(net.macs[0].send(data_frame(0, 1)))
            events.append(net.macs[2].send(data_frame(2, 1)))
        net.sim.run()
        delivered = len(net.delivered[1])
        assert delivered >= 16  # most get through thanks to retries
        assert net.medium.frames_collided > 0 or net.macs[0].retransmissions >= 0

    def test_energy_charged_for_macs(self):
        net = Net()
        done = net.macs[0].send(data_frame(0, 1))
        net.sim.run(until=done)
        # Sender pays tx for data and rx for the ACK.
        categories0 = net.meters[0].by_category()
        assert categories0["tx"] > 0
        assert categories0["rx"] > 0
        # Receiver pays rx for data and tx for the ACK.
        categories1 = net.meters[1].by_category()
        assert categories1["rx"] > 0
        assert categories1["tx"] > 0
