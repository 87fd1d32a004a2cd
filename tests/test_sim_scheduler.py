"""Agenda ordering, cancellation, and the timeout free-list."""

import pytest

from repro.sim import NORMAL, URGENT, Event, Simulator


def _push(sim, when, priority, label, fired):
    """Enqueue an event at absolute ``when`` that records ``label``."""
    event = Event(sim)
    event._value = None
    event.callbacks.append(lambda _e: fired.append(label))
    sim._enqueue(event, delay=when - sim.now, priority=priority)
    return event


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
        sim.step()
        # A push at the just-dispatched time is still retrievable and
        # orders against later pushes by time.
        _push(sim, 1.0, NORMAL, "b", fired)
        _push(sim, 1.5, NORMAL, "c", fired)
        sim.step()
        sim.step()
        assert fired == ["a", "b", "c"]
        assert sim.peek() == float("inf")

    def test_step_and_run_dispatch_in_the_same_order(self):
        def trace(drive):
            sim = Simulator(seed=1)
            fired = []
            for index, (when, priority) in enumerate(
                [(2.0, NORMAL), (1.0, URGENT), (2.0, URGENT), (1.0, NORMAL)]
            ):
                _push(sim, when, priority, index, fired)
            drive(sim)
            return fired

        def step_all(sim):
            while sim.peek() != float("inf"):
                sim.step()

        assert trace(lambda sim: sim.run()) == trace(step_all) == [1, 3, 2, 0]


# The simulator's agenda is a binary heap; the id names it in each
# test's parameter so the report says which agenda ran the contract.
@pytest.fixture(params=["heap"])
def sim(request):
    return Simulator(seed=1)


class TestCancellation:
    def test_cancelled_timer_never_fires(self, sim):
        fired = []
        timeout = sim.timeout(1.0)
        timeout.callbacks.append(lambda _e: fired.append("t"))
        assert timeout.cancel() is True
        assert timeout.cancelled
        sim.run()
        assert fired == []
        assert not timeout.processed

    def test_cancelled_events_counted_separately(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0).cancel()
        sim.run()
        assert sim.events_processed == 1
        assert sim.events_cancelled == 1

    def test_clock_never_advances_to_cancelled_only_time(self, sim):
        sim.timeout(1.0)
        sim.timeout(5.0).cancel()
        sim.run()
        assert sim.now == 1.0

    def test_cancel_after_processed_is_a_noop(self, sim):
        timeout = sim.timeout(1.0)
        sim.run()
        assert timeout.cancel() is False
        assert not timeout.cancelled

    def test_cancel_mid_run_from_a_callback(self, sim):
        doomed = sim.timeout(2.0)
        fired = []
        doomed.callbacks.append(lambda _e: fired.append("doomed"))
        sim.call_later(1.0, doomed.cancel)
        sim.run()
        assert fired == []
        assert sim.events_cancelled == 1

    def test_run_until_event_skips_cancelled(self, sim):
        sim.timeout(1.0).cancel()
        target = sim.timeout(2.0, value="done")
        assert sim.run(until=target) == "done"
        assert sim.events_cancelled == 1

    def test_step_skips_cancelled(self, sim):
        sim.timeout(1.0).cancel()
        sim.timeout(2.0)
        sim.step()
        assert sim.now == 2.0
        assert sim.events_cancelled == 1


class TestTimeoutFreeList:
    def test_processed_timeout_is_recycled(self, sim):
        first = sim.timeout(1.0, value="a")
        sim.run()
        assert first.processed
        second = sim.timeout(1.0, value="b")
        # The kernel proved `first` unreferenced-by-the-model at pop time
        # is false here (we hold it) — so recycling must NOT have reused
        # it. Drop our reference pattern instead: timers created and
        # consumed entirely inside the loop are the recycled population.
        assert second is not first

    def test_unreferenced_timers_are_reused(self, sim):
        def tick(left):
            if left:
                sim.call_later(1.0, tick, left - 1)

        tick(3)
        sim.run()
        before = sim.events_processed
        # The free-list is warm; a fresh timeout comes from the pool with
        # fully reset state.
        fresh = sim.timeout(2.0, value="fresh")
        assert fresh.callbacks == []
        assert not fresh.processed
        assert not fresh.cancelled
        sim.run()
        assert fresh.value == "fresh"
        assert sim.events_processed == before + 1

    def test_run_until_event_recycles_timeouts(self, sim):
        # The until-event form runs the same loop as the other two, so a
        # timeout it dispatches feeds the free-list too.
        done = sim.event()
        sim.timeout(1.0).callbacks.append(lambda _event: done.succeed())
        sim.run(until=done)
        assert len(sim._pool) == 1
        recycled = sim._pool[-1]
        fresh = sim.timeout(2.0, value="fresh")
        assert fresh is recycled
        assert fresh.callbacks == []
        assert not fresh.processed
        assert sim.run(until=fresh) == "fresh"

    def test_recycled_timer_value_not_leaked(self, sim):
        values = []

        def first_fired(event):
            values.append(event.value)
            sim.timeout(1.0).callbacks.append(
                lambda later: values.append(later.value)
            )

        sim.timeout(1.0, value="secret").callbacks.append(first_fired)
        sim.run()
        assert values == ["secret", None]
