"""Simulator clock, agenda, run modes and scheduling helpers."""

import pytest

from repro.sim import SimulationError, Simulator, StopSimulation


# The simulator's agenda is a binary heap; the id names it in each
# test's parameter so the report says which agenda ran the contract.
@pytest.fixture(params=["heap"])
def sim(request):
    return Simulator(seed=1)


class TestClockAndAgenda:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_peek_empty_agenda(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_time(self, sim):
        sim.timeout(7.0)
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_step_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_step_advances_one_event(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.step()
        assert sim.now == 1.0

    def test_same_time_events_fifo(self, sim):
        order = []
        sim.call_later(1.0, lambda: order.append("first"))
        sim.call_later(1.0, lambda: order.append("second"))
        sim.call_later(1.0, lambda: order.append("third"))
        sim.run()
        assert order == ["first", "second", "third"]


class TestRunModes:
    def test_run_until_time_sets_clock(self, sim):
        sim.timeout(1.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_time_excludes_later_events(self, sim):
        fired = []
        sim.call_later(5.0, lambda: fired.append(5))
        sim.call_later(15.0, lambda: fired.append(15))
        sim.run(until=10.0)
        assert fired == [5]

    def test_run_until_past_raises(self, sim):
        sim.timeout(5.0)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_until_event_returns_value(self, sim):
        timeout = sim.timeout(2.0, value="v")
        assert sim.run(until=timeout) == "v"

    def test_run_until_processed_event_returns_immediately(self, sim):
        timeout = sim.timeout(1.0, value="old")
        sim.run()
        assert sim.run(until=timeout) == "old"

    def test_run_until_unreachable_event_raises(self, sim):
        event = sim.event()  # never triggered
        sim.timeout(1.0)
        with pytest.raises(SimulationError, match="exhausted"):
            sim.run(until=event)

    def test_run_until_failed_event_raises(self, sim):
        event = sim.event()
        sim.call_later(1.0, lambda: event.fail(RuntimeError("failed")))
        with pytest.raises(RuntimeError, match="failed"):
            sim.run(until=event)

    def test_run_until_failed_event_is_defused(self, sim):
        # Raising through run(until=event) counts as delivering the
        # failure to the caller: the event must come out defused, or the
        # next run() would re-raise it as unhandled.
        event = sim.event()
        sim.call_later(1.0, lambda: event.fail(RuntimeError("failed")))
        with pytest.raises(RuntimeError, match="failed"):
            sim.run(until=event)
        sim.run()  # no re-raise

    def test_run_until_event_runs_callbacks_added_after_stop_hook(self, sim):
        # run() attaches its stop callback to the until-event when it
        # starts; callbacks appended later (here, by a model callback
        # mid-run) must still run before run() returns.
        target = sim.event()
        seen = []
        target.callbacks.append(lambda _e: seen.append("before"))

        def late():
            target.callbacks.append(lambda e: seen.append(("after", e.value)))
            target.succeed("v")

        sim.call_later(1.0, late)
        sim.call_later(5.0, lambda: seen.append("later event"))
        assert sim.run(until=target) == "v"
        assert seen == ["before", ("after", "v")]
        assert sim.now == 1.0

    def test_stop_simulation_halts_run(self, sim):
        def bomb():
            raise StopSimulation()

        fired = []
        sim.call_later(1.0, bomb)
        sim.call_later(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == []

    def test_run_drains_agenda(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.peek() == float("inf")
        assert sim.now == 2.0


class TestSchedulingHelpers:
    def test_call_later_passes_args(self, sim):
        seen = []
        sim.call_later(1.5, lambda a, b: seen.append((a, b)), 1, 2)
        sim.run()
        assert seen == [(1, 2)]

    def test_call_at_absolute_time(self, sim):
        sim.timeout(4.0)
        sim.run(until=3.0)
        seen = []
        sim.call_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_call_at_past_raises(self, sim):
        sim.timeout(2.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim._enqueue(sim.event(), delay=-1.0)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("test")
            events = []

            def worker(name):
                while sim.now < 50:
                    yield sim.timeout(rng.uniform(0.1, 2.0))
                    events.append((round(sim.now, 9), name))

            sim.process(worker("a"))
            sim.process(worker("b"))
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
