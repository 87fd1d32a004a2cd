"""Event primitives: triggering, values, failure, timeouts."""

import pytest

from repro.sim import (
    EventAlreadyTriggered,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator(seed=1)


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_raises_while_pending(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_sets_value(self, sim):
        event = sim.event().succeed("payload")
        assert event.triggered
        assert event.ok
        assert event.value == "payload"

    def test_succeed_twice_raises(self, sim):
        event = sim.event().succeed()
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_then_succeed_raises(self, sim):
        event = sim.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_processed_after_run(self, sim):
        event = sim.event().succeed(7)
        sim.run()
        assert event.processed

    def test_callbacks_receive_event(self, sim):
        event = sim.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed(41)
        sim.run()
        assert seen == [41]

    def test_unhandled_failure_propagates_from_run(self, sim):
        event = sim.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_defused_failure_does_not_propagate(self, sim):
        event = sim.event()
        event.fail(RuntimeError("handled"))
        event.defuse()
        sim.run()  # no raise


class TestTimeout:
    def test_fires_at_delay(self, sim):
        timeout = sim.timeout(2.5, value="done")
        sim.run()
        assert sim.now == 2.5
        assert timeout.value == "done"

    def test_zero_delay_fires_now(self, sim):
        timeout = sim.timeout(0)
        sim.run()
        assert timeout.processed
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        # Normalized: every scheduling entry point rejects a negative
        # delay with SimulationError (Timeout used to raise ValueError
        # while Simulator._enqueue raised SimulationError).
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)

    def test_negative_delay_rejected_direct_construction(self, sim):
        from repro.sim import Timeout

        with pytest.raises(SimulationError):
            Timeout(sim, -0.1)

    def test_cannot_trigger_manually(self, sim):
        timeout = sim.timeout(1)
        with pytest.raises(EventAlreadyTriggered):
            timeout.succeed()
        with pytest.raises(EventAlreadyTriggered):
            timeout.fail(RuntimeError())
