"""Agenda ordering, cancellation, the same-instant lane, and fired
timer entries."""

import gc
import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import NORMAL, URGENT, Simulator


def _push(sim, when, priority, label, fired):
    """Schedule an entry at absolute ``when`` that records ``label``."""
    return sim.call_at(when, fired.append, label, priority=priority)


@pytest.fixture
def agenda():
    return Simulator(seed=1), []


class TestAgendaOrdering:
    """The ``(time, priority, sequence)`` total order every golden
    digest depends on."""

    def test_pop_orders_by_time(self, agenda):
        sim, fired = agenda
        for when in (5.0, 1.0, 3.0):
            _push(sim, when, NORMAL, when, fired)
        sim.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_fifo_within_time_and_priority(self, agenda):
        sim, fired = agenda
        for index in range(4):
            _push(sim, 2.0, NORMAL, index, fired)
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_urgent_pops_before_normal_at_same_time(self, agenda):
        sim, fired = agenda
        # The urgent entry arrives AFTER the normal one: priority must
        # still beat insertion order.
        _push(sim, 1.0, NORMAL, "normal", fired)
        _push(sim, 1.0, URGENT, "urgent", fired)
        sim.run()
        assert fired == ["urgent", "normal"]

    def test_earlier_time_beats_priority(self, agenda):
        sim, fired = agenda
        _push(sim, 2.0, URGENT, "late", fired)
        _push(sim, 1.0, NORMAL, "early", fired)
        sim.run()
        assert fired == ["early", "late"]

    def test_interleaved_push_and_dispatch(self, agenda):
        sim, fired = agenda
        _push(sim, 1.0, NORMAL, "a", fired)
        sim.run(until=1.0)
        # A push at the just-dispatched time is still retrievable and
        # orders against later pushes by time.
        _push(sim, 1.0, NORMAL, "b", fired)
        _push(sim, 1.5, NORMAL, "c", fired)
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 1.5


# The simulator's agenda is a binary heap; the id names it in each
# test's parameter so the report says which agenda ran the contract.
@pytest.fixture(params=["heap"])
def sim(request):
    return Simulator(seed=1)


class TestCancellation:
    def test_cancelled_timer_never_fires(self, sim):
        fired = []
        entry = sim.schedule(1.0, fired.append, "t")
        sim.cancel(entry)
        sim.run()
        assert fired == []
        assert sim.events_processed == 0
        assert sim.events_cancelled == 1

    def test_cancelled_events_counted_separately(self, sim):
        sim.call_later(1.0, lambda: None)
        sim.cancel(sim.call_later(2.0, lambda: None))
        sim.run()
        assert sim.events_processed == 1
        assert sim.events_cancelled == 1

    def test_clock_never_advances_to_cancelled_only_time(self, sim):
        sim.call_later(1.0, lambda: None)
        sim.cancel(sim.call_later(5.0, lambda: None))
        sim.run()
        assert sim.now == 1.0

    def test_cancel_after_processed_is_a_noop(self, sim):
        fired = []
        entry = sim.schedule(1.0, fired.append, "t")
        sim.run()
        sim.cancel(entry)
        sim.run()
        assert fired == ["t"]
        assert sim.events_processed == 1
        assert sim.events_cancelled == 0

    def test_cancel_mid_run_from_a_callback(self, sim):
        fired = []
        doomed = sim.schedule(2.0, fired.append, "doomed")
        sim.call_later(1.0, sim.cancel, doomed)
        sim.run()
        assert fired == []
        assert sim.events_cancelled == 1

    def test_run_until_horizon_skips_cancelled(self, sim):
        fired = []
        sim.cancel(sim.schedule(1.0, fired.append, "cancelled"))
        sim.schedule(2.0, fired.append, "done")
        sim.schedule(3.0, fired.append, "later")
        sim.run(until=2.0)
        assert fired == ["done"]
        assert sim.events_processed == 1
        assert sim.events_cancelled == 1


class TestFiredTimeouts:
    """A timer entry is a fresh list every time, whatever fired before:
    the agenda keeps no pool of dispatched entries."""

    def test_processed_timeout_is_not_reused(self, sim):
        fired = []
        first = sim.schedule(1.0, fired.append, "a")
        sim.run()
        second = sim.schedule(1.0, fired.append, "b")
        assert second is not first
        sim.run()
        assert fired == ["a", "b"]

    def test_timeout_after_many_dispatches_is_fresh(self, sim):
        def tick(left):
            if left:
                sim.call_later(1.0, tick, left - 1)

        tick(3)
        sim.run()
        before = sim.events_processed
        fired = []
        fresh = sim.schedule(2.0, fired.append, "fresh")
        assert fresh[0] == sim.now + 2.0
        sim.run()
        assert fired == ["fresh"]
        assert sim.events_processed == before + 1

    def test_timer_value_not_leaked(self, sim):
        values = []

        def first_fired(value):
            values.append(value)
            sim.schedule(1.0, values.append)

        sim.schedule(1.0, first_fired, "secret")
        sim.run()
        assert values == ["secret", None]


# -- the lane and the heap dispatch one (time, priority, seq) order ---------


class ReferenceAgenda:
    """The agenda as one heap of every entry, sorted by ``(time,
    priority, seq)``: the order the lane-plus-heap kernel must replay."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._fns = {}
        self._dead = set()
        self.events_processed = 0
        self.events_cancelled = 0

    def schedule(self, delay, fn, priority):
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, priority, seq))
        self._fns[seq] = fn
        return seq

    def cancel(self, seq):
        self._dead.add(seq)

    def run(self, until=None):
        horizon = float("inf") if until is None else until
        while self._heap and self._heap[0][0] <= horizon:
            when, _priority, seq = heapq.heappop(self._heap)
            if seq in self._dead:
                self.events_cancelled += 1
                continue
            self.now = when
            self.events_processed += 1
            self._fns.pop(seq)()
        if until is not None:
            self.now = max(self.now, horizon)


class KernelAgenda:
    """The same operations on a :class:`Simulator`, through each of its
    scheduling entry points."""

    def __init__(self):
        self.sim = Simulator(seed=1)

    @property
    def now(self):
        return self.sim.now

    def schedule(self, delay, fn, priority, how):
        sim = self.sim
        if how == "schedule":
            return sim.schedule(delay, lambda _arg: fn(), None, priority)
        if how == "call_at":
            return sim.call_at(sim.now + delay, fn, priority=priority)
        return sim.call_later(delay, fn)

    def cancel(self, entry):
        self.sim.cancel(entry)

    def run(self, until=None):
        self.sim.run(until)


#: Delays that tie with each other, 0, and one (1e-9) that a clock at
#: 1e8 absorbs (1e8 + 1e-9 == 1e8) but a clock at 0 does not.
DELAYS = st.sampled_from([0.0, 0.0, 1e-9, 0.25, 0.5, 1.0])

#: One scheduling or cancelling operation.  ``call_later`` is NORMAL by
#: construction; the delay-0 NORMAL ``schedule`` keeps the same-instant
#: lane as busy as the rest.
OPS = st.one_of(
    st.tuples(
        st.sampled_from(["schedule", "call_at"]),
        DELAYS,
        st.sampled_from([NORMAL, URGENT]),
    ),
    st.tuples(st.just("call_later"), DELAYS, st.just(NORMAL)),
    st.tuples(st.just("schedule"), st.just(0.0), st.just(NORMAL)),
    st.tuples(st.just("cancel"), st.integers(0, 63), st.just(NORMAL)),
)


@st.composite
def agenda_programs(draw):
    """A start time, the operations the n-th dispatch performs, and run
    slices (a horizon, and the operations scheduled before it runs)."""
    start = draw(st.sampled_from([0.0, 1e8]))
    per_dispatch = draw(st.lists(st.lists(OPS, max_size=3), max_size=40))
    slices = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0]),
                st.lists(OPS, min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    slices.sort(key=lambda item: item[0])
    return start, per_dispatch, slices


def replay(agenda, program):
    """Drive ``agenda`` through ``program``; return the dispatched labels
    and the clock after each slice."""
    start, per_dispatch, slices = program
    agenda.run(until=start)
    fired = []
    handles = []

    def apply(ops):
        for how, value, priority in ops:
            if how == "cancel":
                if handles:
                    agenda.cancel(handles[value % len(handles)])
                continue
            label = len(handles)

            def fn(label=label):
                index = len(fired)
                fired.append(label)
                if index < len(per_dispatch):
                    apply(per_dispatch[index])

            if isinstance(agenda, KernelAgenda):
                handles.append(agenda.schedule(value, fn, priority, how))
            else:
                handles.append(agenda.schedule(value, fn, priority))

    clocks = []
    for horizon, ops in slices:
        apply(ops)
        agenda.run(until=start + horizon)
        clocks.append(agenda.now)
    agenda.run()
    clocks.append(agenda.now)
    return fired, clocks


@given(agenda_programs())
def test_lane_and_heap_dispatch_in_reference_order(program):
    reference = ReferenceAgenda()
    kernel = KernelAgenda()
    assert replay(kernel, program) == replay(reference, program)
    assert kernel.sim.events_processed == reference.events_processed
    assert kernel.sim.events_cancelled == reference.events_cancelled


def test_absorbed_delay_waits_behind_an_urgent_entry():
    """A delay the clock absorbs is due now: it runs after the URGENT
    entries due now and among the other NORMAL ones in seq order."""
    sim = Simulator(seed=1)
    sim.run(until=1e8)
    fired = []
    sim.schedule(0.0, fired.append, "zero")
    sim.schedule(1e-9, fired.append, "absorbed")
    sim.schedule(0.0, fired.append, "urgent", URGENT)
    sim.schedule(1.0, fired.append, "later")
    sim.run()
    assert fired == ["urgent", "zero", "absorbed", "later"]
    assert sim.now == 1e8 + 1.0


# -- a run leaves nothing for the cycle collector ----------------------------


def test_kernel_run_leaves_no_cyclic_garbage():
    """A dispatched or cancelled entry keeps no reference back into the
    agenda, so a run frees every entry by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator(seed=1)
        fired = []
        entries = []
        for index in range(20):
            entries.append(sim.schedule(0.1 * index, fired.append, index))
            entries.append(sim.call_later(0.1 * index, fired.append, -index))
            entries.append(sim.call_at(0.05 * index, fired.extend, (index, 1)))
            entries.append(
                sim.call_at(0.05 * index, fired.insert, 0, index, priority=URGENT)
            )
            entries.append(sim.call_later(0.2 * index, fired.clear))
        sim.cancel(sim.schedule(0.5, fired.append, "cancelled"))
        sim.cancel(entries[3])
        sim.run()
        assert sim.events_cancelled == 2
        del sim, entries
        assert gc.collect() == 0
    finally:
        gc.enable()
