"""A scheduled event's life: waiting on the agenda, firing, its argument."""

import pytest

from repro.sim import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        # Scheduling only queues the entry: nothing runs before `run`.
        fired = []
        sim.schedule(0.0, fired.append, "now")
        assert fired == []
        assert sim.events_processed == 0

    def test_processed_after_run(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, 7)
        sim.run()
        assert fired == [7]
        assert sim.events_processed == 1

    def test_callbacks_receive_event(self, sim):
        # The callback receives the entry's argument, None when omitted.
        seen = []
        sim.schedule(1.0, seen.append, 41)
        sim.schedule(1.0, seen.append)
        sim.run()
        assert seen == [41, None]

    def test_unhandled_failure_propagates_from_run(self, sim):
        # An entry carries no failure value: a callback's exception is
        # the only failure, and the loop never swallows it.
        def boom(_arg):
            raise RuntimeError("unhandled")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()
        assert sim.now == 1.0


class TestTimeout:
    def test_fires_at_delay(self, sim):
        seen = []
        sim.schedule(2.5, lambda value: seen.append((sim.now, value)), "done")
        sim.run()
        assert seen == [(2.5, "done")]
        assert sim.now == 2.5

    def test_zero_delay_fires_now(self, sim):
        fired = []
        sim.call_later(0, fired.append, "now")
        sim.run()
        assert fired == ["now"]
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        # Every delay-taking entry point rejects a negative delay with
        # SimulationError.
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, print)
        with pytest.raises(SimulationError):
            sim.call_later(-0.1, print)
