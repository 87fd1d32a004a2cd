"""Flat MAC engine: pinned traces, contention counters, edge cases.

The flat callback state machine in :mod:`repro.mac.base` replays the
historical generator engine's agenda entry for entry: same agenda
entries, same rng draw order, same counters, same energy.  The traces
of a fixed, seeded list of traffic plans were recorded while both
engines still ran side by side and agreed; pinning their digests keeps
the claim checked without the old engine.
"""

import collections
import hashlib
import json
import random
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.medium import LossModel, Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import LUCENT_11, MICAZ
from repro.mac.base import _DEDUP_WINDOW, ContentionMac
from repro.mac.csma import SensorCsmaMac
from repro.mac.dcf import DcfMac
from repro.mac.frames import Frame, FrameKind
from repro.mac.timing import sensor_csma_params
from repro.radio.radio import HighPowerRadio, LowPowerRadio
from repro.sim.simulator import Simulator
from repro.topology import line_layout

#: Digest prefixes of :func:`run_plan`'s trace for each plan of
#: :func:`fixed_plans`, in order.
PINNED_TRACES = (
    "c71ae98cdf6d320c", "fd280d7f1f1a5bae", "ca90e1a79d6ee128",
    "54199834df2f4c1c", "10064ee8556769e1", "efd138cb08d70f78",
    "f4a105b033721ef8", "7471d201b3152066", "2e1afd0fe5a3f028",
    "d1c1f059314a59c0", "e37508a47f296045", "1a80a3f7e49693c3",
    "a80998259ad8599e", "c5d0f98a6fda7415", "fadd22b373a5b636",
    "ad785b38ecea5c54",
)

#: The same for the hidden-terminal cell of :class:`TestContentionStats`.
PINNED_HIDDEN_TERMINAL_TRACE = "c87a184f1bbcb7db"

def data_frame(src, dst, payload_bits=256, require_ack=True):
    return Frame(
        kind=FrameKind.DATA,
        src=src,
        dst=dst,
        payload_bits=payload_bits,
        header_bits=64,
        require_ack=require_ack,
    )


def run_plan(*, n, loss_p, plan, seed, params=None):
    """Run a traffic plan; return the full observable trace.

    The trace captures everything an engine change could plausibly move:
    final clock, kernel event counts, timestamped deliveries, every MAC
    counter, and exact per-node energy floats.
    """
    sim = Simulator(seed=seed)
    layout = line_layout(n, 40.0)
    loss = LossModel(loss_p, sim.rng.stream("loss")) if loss_p else None
    medium = Medium(sim, layout, "m", loss=loss)
    bank = MeterBank(n)
    meters = {i: bank.meter(i) for i in range(n)}
    radios = {
        i: LowPowerRadio(sim, i, MICAZ, medium, meters[i]) for i in range(n)
    }
    macs = {i: SensorCsmaMac(sim, radios[i], params=params) for i in range(n)}
    deliveries = []
    for i in range(n):
        macs[i].set_data_handler(
            lambda frame, i=i: deliveries.append(
                (sim.now, i, frame.src, frame.seq)
            )
        )
    # Every send asks for its outcome: the trace counts kernel events,
    # and each outcome is one agenda entry.
    outcomes = [None] * len(plan)
    for index, (src, dst, require_ack) in enumerate(plan):
        macs[src].send(
            data_frame(src, dst, require_ack=require_ack),
            lambda success, index=index: outcomes.__setitem__(index, success),
        )
    sim.run()
    return {
        "now": sim.now,
        "events_processed": sim.events_processed,
        "events_cancelled": sim.events_cancelled,
        "deliveries": deliveries,
        "outcomes": outcomes,
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


def trace_digest(trace):
    """A short, stable digest of a :func:`run_plan` trace."""
    text = json.dumps(trace, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fixed_plans(count=16, seed=2024):
    """Seeded ``(plan, loss_p, seed)`` triples: 1–10 frames over 3 nodes."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        plan = []
        for _step in range(rng.randint(1, 10)):
            src = rng.randrange(3)
            plan.append((src, (src + rng.randint(1, 2)) % 3, rng.random() < 0.5))
        cases.append((plan, rng.choice([0.0, 0.3, 0.6]), rng.randrange(2**31)))
    return cases


class TestTraceIdentity:
    def test_flat_matches_pinned_traces(self):
        """Lossy and clean plans: each trace, down to exact float
        timestamps and joules, matches its pinned digest."""
        digests = tuple(
            trace_digest(run_plan(n=3, loss_p=loss_p, plan=plan, seed=seed))
            for plan, loss_p, seed in fixed_plans()
        )
        assert digests == PINNED_TRACES


class TestContentionStats:
    """Deterministic hidden-terminal cell: the trace is pinned, and the
    stats actually exercise the retry/drop/fail machinery."""

    # The out-of-range 0->2 frame leads the plan so it reaches the air
    # before node 0's queue fills up.
    PLAN = [(0, 2, True)] + [(0, 1, True), (2, 1, True)] * 8

    def test_hidden_terminal_counters(self):
        params = sensor_csma_params(queue_capacity=4)
        trace = run_plan(
            n=3,
            loss_p=0.0,
            plan=self.PLAN,
            seed=3,
            params=params,
        )
        assert trace_digest(trace) == PINNED_HIDDEN_TERMINAL_TRACE
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
    def test_receiver_sleeping_during_sifs_drops_ack(self):
        """The half-duplex race on _transmit_ack: the receiving DCF radio
        goes to sleep between queueing the ACK and the SIFS expiry, so the
        ACK is dropped (and counted) rather than sent from a dead radio."""
        sim = Simulator(seed=9)
        layout = line_layout(2, 40.0)
        medium = Medium(sim, layout, "m")
        bank = MeterBank(2)
        meters = {i: bank.meter(i) for i in range(2)}
        radios = {
            i: HighPowerRadio(sim, i, LUCENT_11, medium, meters[i])
            for i in range(2)
        }
        macs = {i: DcfMac(sim, radios[i]) for i in range(2)}
        radios[0].wake()
        radios[1].wake()
        sim.run()
        # The delivery callback runs after the ACK is queued but before
        # the SIFS timer fires — sleeping the radio here loses the race.
        macs[1].set_data_handler(lambda frame: radios[1].sleep())
        outcomes = []
        macs[0].send(data_frame(0, 1), outcomes.append)
        sim.run()
        assert outcomes == [False]  # no ACK ever comes back
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
