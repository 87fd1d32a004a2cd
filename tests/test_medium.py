"""The shared medium: delivery, collisions, hidden terminals, loss,
carrier sense and overhearing energy."""

import pytest

from repro.channel.medium import LossModel, Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import MICAZ
from repro.mac.frames import Frame, FrameKind
from repro.radio.radio import LowPowerRadio
from repro.sim import Simulator
from repro.topology import line_layout


def data_frame(src, dst, payload_bits=256, header_bits=64):
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bits=payload_bits,
        header_bits=header_bits,
        require_ack=False,
    )


class Harness:
    """Raw radios on a line, bypassing MACs (frames delivered to lists)."""

    def __init__(self, n=3, spacing=40.0, loss=None, seed=1):
        self.sim = Simulator(seed=seed)
        self.layout = line_layout(n, spacing)
        self.medium = Medium(self.sim, self.layout, "test", loss=loss)
        bank = MeterBank(n)
        self.meters = {i: bank.meter(i) for i in range(n)}
        self.radios = {
            i: LowPowerRadio(self.sim, i, MICAZ, self.medium, self.meters[i])
            for i in range(n)
        }
        self.received = {i: [] for i in range(n)}
        for i in range(n):
            self.radios[i].set_receiver(
                lambda frame, i=i: self.received[i].append(frame)
            )


class TestDelivery:
    def test_in_range_unicast_delivers(self):
        h = Harness()
        h.radios[0].transmit(data_frame(0, 1))
        h.sim.run()
        assert len(h.received[1]) == 1

    def test_out_of_range_not_delivered(self):
        h = Harness()  # nodes 0 and 2 are 80 m apart
        h.radios[0].transmit(data_frame(0, 2))
        h.sim.run()
        assert h.received[2] == []

    def test_sender_does_not_hear_itself(self):
        h = Harness()
        h.radios[0].transmit(data_frame(0, 1))
        h.sim.run()
        assert h.received[0] == []

    def test_unknown_destination_ignored(self):
        h = Harness()
        h.radios[0].transmit(data_frame(0, 77))
        h.sim.run()  # no exception, no delivery

    def test_duplicate_registration_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.medium.register(h.radios[0])

    def test_delivery_takes_airtime(self):
        h = Harness()
        frame = data_frame(0, 1, payload_bits=256, header_bits=64)
        h.radios[0].transmit(frame)
        h.sim.run()
        assert h.sim.now == pytest.approx(320 / MICAZ.rate_bps)


class TestCollisions:
    def test_concurrent_same_receiver_collide(self):
        h = Harness()
        h.radios[0].transmit(data_frame(0, 1))
        h.radios[2].transmit(data_frame(2, 1))
        h.sim.run()
        assert h.received[1] == []
        assert h.medium.frames_collided == 2

    def test_hidden_terminal_collision(self):
        """0 and 2 cannot hear each other but both reach 1."""
        h = Harness()
        h.radios[0].transmit(data_frame(0, 1, payload_bits=8192))

        h.sim.call_later(  # mid-flight of the first frame
            0.001, h.radios[2].transmit, data_frame(2, 1, payload_bits=64)
        )
        h.sim.run()
        assert h.received[1] == []

    def test_receiver_transmitting_misses_frame(self):
        """Half duplex: a node cannot receive while sending."""
        h = Harness()
        h.radios[1].transmit(data_frame(1, 2, payload_bits=8192))
        h.radios[0].transmit(data_frame(0, 1, payload_bits=64))
        h.sim.run()
        assert h.received[1] == []
        assert len(h.received[2]) == 1  # 1's own frame still lands at 2

    def test_disjoint_pairs_no_collision(self):
        h = Harness(n=4, spacing=40.0)
        # 0->1 and 3->2: senders 120m apart; receivers hear one tx each...
        # Actually 1 is 80m from 3, 2 is 40m from 1: 1->? no; check 0->1 ok
        h.radios[0].transmit(data_frame(0, 1))
        h.sim.run()
        h.radios[3].transmit(data_frame(3, 2))
        h.sim.run()
        assert len(h.received[1]) == 1
        assert len(h.received[2]) == 1

    def test_back_to_back_no_collision(self):
        """Sequential (non-overlapping) frames both deliver."""
        h = Harness()

        h.radios[0].transmit(
            data_frame(0, 1),
            on_end=lambda: h.radios[0].transmit(data_frame(0, 1)),
        )
        h.sim.run()
        assert len(h.received[1]) == 2


class TestCarrierSense:
    def test_idle_channel(self):
        h = Harness()
        assert not h.medium.is_busy_for(0)

    def test_busy_during_neighbor_tx(self):
        h = Harness()
        h.radios[0].transmit(data_frame(0, 1, payload_bits=8192))
        busy_state = []

        def probe():
            busy_state.append(h.medium.is_busy_for(1))
            busy_state.append(h.medium.is_busy_for(2))  # out of 0's range

        h.sim.call_later(0.001, probe)
        h.sim.run()
        assert busy_state == [True, False]

    def test_own_transmission_is_busy(self):
        h = Harness()
        h.radios[0].transmit(data_frame(0, 1, payload_bits=8192))
        state = []

        h.sim.call_later(0.001, lambda: state.append(h.medium.is_busy_for(0)))
        h.sim.run()
        assert state == [True]


class TestLoss:
    def test_loss_probability_validated(self):
        with pytest.raises(ValueError):
            LossModel(1.5)

    def test_zero_loss_never_drops(self):
        model = LossModel(0.0)
        assert not any(model.is_lost() for _ in range(100))

    def test_full_loss_blocks_delivery(self):
        sim = Simulator(seed=2)
        loss = LossModel(0.99, sim.rng.stream("loss"))
        h = Harness(loss=loss, seed=2)
        for _ in range(50):
            h.radios[0].transmit(data_frame(0, 1))
            h.sim.run()
        assert len(h.received[1]) < 10  # ~0.5 expected
        assert h.medium.frames_lost > 40

    def test_loss_rate_statistics(self):
        sim = Simulator(seed=3)
        model = LossModel(0.3, sim.rng.stream("loss"))
        losses = sum(model.is_lost() for _ in range(10_000))
        assert 0.27 < losses / 10_000 < 0.33


class TestOverhearingEnergy:
    def test_third_party_charged_header_and_body(self):
        h = Harness()
        h.radios[1].transmit(data_frame(1, 2))
        h.sim.run()
        categories = h.meters[0].by_category()
        assert categories["overhear_header"] > 0
        assert categories["overhear_body"] > 0
        header_s = 64 / MICAZ.rate_bps
        assert categories["overhear_header"] == pytest.approx(
            MICAZ.p_rx_w * header_s
        )

    def test_addressed_receiver_charged_rx(self):
        h = Harness()
        h.radios[0].transmit(data_frame(0, 1))
        h.sim.run()
        duration = 320 / MICAZ.rate_bps
        assert h.meters[1].by_category()["rx"] == pytest.approx(
            MICAZ.p_rx_w * duration
        )

    def test_out_of_range_not_charged(self):
        h = Harness()
        h.radios[0].transmit(data_frame(0, 1))
        h.sim.run()
        assert h.meters[2].total() == 0.0
