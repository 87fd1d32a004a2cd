"""Ablation — physical capture at the receiver.

Compares the pessimistic any-overlap-kills collision model against the
distance-ratio capture model on a hidden-interferer layout:

    J(-80,0) <-- I(-40,0)      R(0,0) <-- S(30,0)

``S -> R`` (signal 30 m) runs concurrently with ``I -> J``; I is audible
at R (40 m, within I's range) but hidden from S (70 m), so carrier sense
cannot prevent the overlap.  A real DSSS receiver (CC2420 co-channel
rejection ~3 dB ⇒ distance ratio 1.25) decodes S through I's weaker
signal (40 m > 1.25 x 30 m); the pessimistic model corrupts every
overlapped frame and burns retransmissions.
"""

from repro.channel.medium import Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import MICAZ
from repro.mac.csma import SensorCsmaMac
from repro.mac.frames import Frame, FrameKind
from repro.radio.radio import LowPowerRadio
from repro.sim import URGENT, Simulator
from repro.topology import Layout, Position

#: Node ids: 0 = S (sender), 1 = R (receiver), 2 = I (interferer), 3 = J.
LAYOUT = Layout(
    {
        0: Position(30.0, 0.0),
        1: Position(0.0, 0.0),
        2: Position(-40.0, 0.0),
        3: Position(-80.0, 0.0),
    }
)


def run_parallel_flows(capture_ratio):
    sim = Simulator(seed=17)
    medium = Medium(sim, LAYOUT, "m", capture_ratio=capture_ratio)
    bank = MeterBank(len(LAYOUT))
    meters = {n: bank.meter(n) for n in LAYOUT.node_ids}
    radios = {
        n: LowPowerRadio(sim, n, MICAZ, medium, meters[n])
        for n in LAYOUT.node_ids
    }
    macs = {n: SensorCsmaMac(sim, radios[n]) for n in LAYOUT.node_ids}
    delivered = {1: 0, 3: 0}
    macs[1].set_data_handler(lambda f: delivered.__setitem__(1, delivered[1] + 1))
    macs[3].set_data_handler(lambda f: delivered.__setitem__(3, delivered[3] + 1))

    def pump(src, dst, count):
        """Offer ``count`` frames, each once the MAC is done with the last."""
        frame = Frame(FrameKind.DATA, src, dst, payload_bits=256,
                      header_bits=64)
        done = macs[src].send(frame)
        if count > 1:
            done.callbacks.append(lambda _event: pump(src, dst, count - 1))

    # Both flows start at t=0, after the MACs' own start events.
    sim.call_at(0.0, pump, 0, 1, 200, priority=URGENT)
    sim.call_at(0.0, pump, 2, 3, 200, priority=URGENT)
    sim.run(until=60.0)
    retx = macs[0].retransmissions + macs[2].retransmissions
    return delivered[1] + delivered[3], retx


def test_capture_model(benchmark, print_artifact):
    def run_both():
        return {
            "pessimistic": run_parallel_flows(None),
            "cc2420": run_parallel_flows(Medium.CC2420_CAPTURE_RATIO),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_artifact(
        "capture ablation (hidden interferer at 1.33x signal distance,"
        " 400 frames offered):\n"
        f"  any-overlap-kills : delivered={results['pessimistic'][0]} "
        f"retransmissions={results['pessimistic'][1]}\n"
        f"  CC2420 capture    : delivered={results['cc2420'][0]} "
        f"retransmissions={results['cc2420'][1]}"
    )
    delivered_pess, retx_pess = results["pessimistic"]
    delivered_capture, retx_capture = results["cc2420"]
    assert delivered_capture == 400
    assert retx_capture < retx_pess
    assert delivered_pess <= delivered_capture
