"""Simulator clock, agenda, run modes and scheduling helpers."""

import pytest

from repro.sim import URGENT, SimulationError, Simulator


# The simulator's agenda is a binary heap; the id names it in each
# test's parameter so the report says which agenda ran the contract.
@pytest.fixture(params=["heap"])
def sim(request):
    return Simulator(seed=1)


class TestClockAndAgenda:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_same_time_events_fifo(self, sim):
        order = []
        sim.call_later(1.0, lambda: order.append("first"))
        sim.call_later(1.0, lambda: order.append("second"))
        sim.call_later(1.0, lambda: order.append("third"))
        sim.run()
        assert order == ["first", "second", "third"]


class TestRunModes:
    def test_run_until_time_sets_clock(self, sim):
        sim.call_later(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_time_excludes_later_events(self, sim):
        fired = []
        sim.call_later(5.0, lambda: fired.append(5))
        sim.call_later(15.0, lambda: fired.append(15))
        sim.run(until=10.0)
        assert fired == [5]

    def test_run_until_past_raises(self, sim):
        sim.call_later(5.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_drains_agenda(self, sim):
        sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2
        assert sim.now == 2.0


class TestSchedulingHelpers:
    def test_call_later_passes_args(self, sim):
        seen = []
        sim.call_later(1.5, lambda a, b: seen.append((a, b)), 1, 2)
        sim.run()
        assert seen == [(1, 2)]

    def test_call_at_absolute_time(self, sim):
        sim.call_later(4.0, lambda: None)
        sim.run(until=3.0)
        seen = []
        sim.call_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_call_at_fires_at_exactly_the_given_time(self, sim):
        # now + (when - now) rounds to 107.63223621730194 here.
        now, when = 0.25235810227983535, 107.63223621730195
        sim.run(until=now)
        seen = []
        sim.call_at(when, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [when]

    def test_call_at_urgent_runs_before_normal(self, sim):
        seen = []
        sim.call_at(1.0, seen.append, "normal")
        sim.call_at(1.0, seen.append, "urgent", priority=URGENT)
        sim.run()
        assert seen == ["urgent", "normal"]

    def test_call_at_past_raises(self, sim):
        sim.call_later(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, print)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("test")
            events = []

            def worker(name):
                def wake():
                    events.append((round(sim.now, 9), name))
                    if sim.now < 50:
                        sim.call_later(rng.uniform(0.1, 2.0), wake)

                sim.call_later(rng.uniform(0.1, 2.0), wake)

            worker("a")
            worker("b")
            sim.run(until=50)
            return events

        assert trace(99) == trace(99)

    def test_different_seed_different_trace(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("test")
            out = [rng.random() for _ in range(5)]
            return out

        assert trace(1) != trace(2)
