"""Flat MAC engine: trace identity vs the generator reference.

The flat callback state machine in :mod:`repro.mac.base` claims
*byte-identical* behaviour to the historical generator engine (kept as a
test-only reference in ``generator_mac.py``): same agenda entries, same
rng draw order, same counters, same energy.  These tests pin that claim
— a hypothesis property over random traffic plans plus deterministic
contention/edge-case scenarios run on both engines.
"""

import collections
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.medium import LossModel, Medium
from repro.energy.meter import EnergyMeter
from repro.energy.radio_specs import LUCENT_11, MICAZ
from generator_mac import MAC_CLASSES, MAC_ENGINES
from repro.mac.base import _DEDUP_WINDOW, ContentionMac
from repro.mac.frames import BROADCAST, Frame, FrameKind
from repro.mac.timing import sensor_csma_params
from repro.radio.radio import HighPowerRadio, LowPowerRadio
from repro.sim.simulator import Simulator
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


def run_plan(engine, *, n, loss_p, plan, seed, params=None):
    """Run a traffic plan; return the full observable trace.

    The trace captures everything the engines could plausibly diverge on:
    final clock, kernel event counts, timestamped deliveries, every MAC
    counter, and exact per-node energy floats.
    """
    sim = Simulator(seed=seed)
    layout = line_layout(n, 40.0)
    loss = LossModel(loss_p, sim.rng.stream("loss")) if loss_p else None
    medium = Medium(sim, layout, "m", loss=loss)
    meters = {i: EnergyMeter(str(i)) for i in range(n)}
    radios = {
        i: LowPowerRadio(sim, i, MICAZ, medium, meters[i]) for i in range(n)
    }
    csma_mac = MAC_CLASSES[engine][0]
    macs = {i: csma_mac(sim, radios[i], params=params) for i in range(n)}
    deliveries = []
    for i in range(n):
        macs[i].set_data_handler(
            lambda frame, i=i: deliveries.append(
                (sim.now, i, frame.src, frame.seq)
            )
        )
    outcomes = [
        macs[src].send(data_frame(src, dst, require_ack=require_ack))
        for src, dst, require_ack in plan
    ]
    sim.run()
    return {
        "now": sim.now,
        "events_processed": sim.events_processed,
        "events_cancelled": sim.events_cancelled,
        "deliveries": deliveries,
        "outcomes": [event.value for event in outcomes],
        "counters": {
            i: (
                mac.sent_ok,
                mac.sent_failed,
                mac.queue_drops,
                mac.retransmissions,
                mac.acks_dropped,
            )
            for i, mac in macs.items()
        },
        "collisions": medium.frames_collided,
        "energy": {i: meters[i].by_category() for i in range(n)},
    }


# A traffic step: sender, destination offset (BROADCAST for -1), ack flag.
plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from([0, 1, 2, BROADCAST]),
        st.booleans(),
    ),
    min_size=1,
    max_size=10,
).map(
    lambda steps: [
        (src, dst, require_ack)
        for src, dst, require_ack in steps
        if dst != src
    ]
)


class TestTraceIdentity:
    @given(
        plan=plans,
        loss_p=st.sampled_from([0.0, 0.3, 0.6]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_flat_matches_generator(self, plan, loss_p, seed):
        """Random plans, lossy or clean: the traces must be identical —
        including exact float equality on timestamps and joules."""
        traces = [
            run_plan(engine, n=3, loss_p=loss_p, plan=plan, seed=seed)
            for engine in MAC_ENGINES
        ]
        assert traces[0] == traces[1]


class TestContentionStats:
    """Deterministic hidden-terminal cell: stats must be engine-invariant
    and actually exercise the retry/drop/fail machinery."""

    # The out-of-range 0->2 frame leads the plan so it reaches the air
    # before node 0's queue fills up.
    PLAN = [(0, 2, True)] + [(0, 1, True), (2, 1, True)] * 8

    @pytest.mark.parametrize("engine", MAC_ENGINES)
    def test_hidden_terminal_counters(self, engine):
        params = sensor_csma_params(queue_capacity=4)
        trace = run_plan(
            engine,
            n=3,
            loss_p=0.0,
            plan=self.PLAN,
            seed=3,
            params=params,
        )
        reference = run_plan(
            "flat",
            n=3,
            loss_p=0.0,
            plan=self.PLAN,
            seed=3,
            params=params,
        )
        assert trace == reference
        sent_ok, sent_failed, queue_drops, retransmissions, acks_dropped = (
            trace["counters"][0]
        )
        # Nodes 0 and 2 are hidden from each other: collisions at node 1
        # force retransmissions; the 80 m 0->2 frame exhausts its retries;
        # the 4-deep queue drops part of the 9-frame burst.
        assert retransmissions > 0
        assert sent_failed >= 1  # the out-of-range 0->2 send
        assert queue_drops >= 1
        assert acks_dropped == 0
        assert sent_ok + sent_failed + queue_drops == 9


class TestAcksDropped:
    @pytest.mark.parametrize("engine", MAC_ENGINES)
    def test_receiver_sleeping_during_sifs_drops_ack(self, engine):
        """The half-duplex race on _transmit_ack: the receiving DCF radio
        goes to sleep between queueing the ACK and the SIFS expiry, so the
        ACK is dropped (and counted) rather than sent from a dead radio."""
        sim = Simulator(seed=9)
        layout = line_layout(2, 40.0)
        medium = Medium(sim, layout, "m")
        meters = {i: EnergyMeter(str(i)) for i in range(2)}
        radios = {
            i: HighPowerRadio(sim, i, LUCENT_11, medium, meters[i])
            for i in range(2)
        }
        dcf_mac = MAC_CLASSES[engine][1]
        macs = {i: dcf_mac(sim, radios[i]) for i in range(2)}
        sim.run(until=radios[0].wake())
        sim.run(until=radios[1].wake())
        # The delivery callback runs after the ACK is queued but before
        # the SIFS timer fires — sleeping the radio here loses the race.
        macs[1].set_data_handler(lambda frame: radios[1].sleep())
        done = macs[0].send(data_frame(0, 1))
        assert sim.run(until=done) is False  # no ACK ever comes back
        assert macs[1].acks_dropped == 1
        assert macs[0].sent_failed == 1
        # The radio slept through every retransmission, so only the first
        # (delivered) attempt queued an ACK.
        assert macs[0].retransmissions == macs[0].params.max_retries


class TestDedupWindow:
    """The deque+set dedup window vs an OrderedDict reference model."""

    @staticmethod
    def reference_is_dup(windows, src, seq):
        window = windows.setdefault(src, collections.OrderedDict())
        if seq in window:
            return True
        window[seq] = None
        if len(window) > _DEDUP_WINDOW:
            window.popitem(last=False)
        return False

    @given(
        stream=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2 * _DEDUP_WINDOW),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_ordered_dict_reference(self, stream):
        mac = types.SimpleNamespace(_seen={})
        windows = {}
        for src, seq in stream:
            frame = types.SimpleNamespace(src=src, seq=seq)
            got = ContentionMac._is_duplicate(mac, frame)
            expected = self.reference_is_dup(windows, src, seq)
            assert got == expected
        # Eviction keeps every per-peer window bounded.
        for order, seen in mac._seen.values():
            assert len(order) == len(seen) <= _DEDUP_WINDOW
