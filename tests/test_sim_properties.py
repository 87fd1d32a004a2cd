"""Property-based tests of the kernel's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.rng import derive_seed

delays = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@given(delays)
def test_events_process_in_nondecreasing_time_order(delay_list):
    """The clock never runs backwards, whatever the scheduling order."""
    sim = Simulator(seed=0)
    seen = []
    for delay in delay_list:
        sim.call_later(delay, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delay_list)


@given(delays)
def test_equal_time_events_preserve_insertion_order(delay_list):
    """Ties break by insertion order (determinism requirement)."""
    sim = Simulator(seed=0)
    common = 5.0
    order = []
    for index, _ in enumerate(delay_list):
        sim.call_later(common, lambda index=index: order.append(index))
    sim.run()
    assert order == list(range(len(delay_list)))


@given(delays, st.integers(min_value=0, max_value=2**31))
def test_run_until_never_overshoots(delay_list, seed):
    """After run(until=h) the clock equals h and no later event has run."""
    sim = Simulator(seed=seed)
    horizon = 100.0
    fired = []
    for delay in delay_list:
        sim.call_later(delay, lambda delay=delay: fired.append(delay))
    sim.run(until=horizon)
    assert sim.now == horizon
    assert all(delay <= horizon for delay in fired)


@given(st.integers(min_value=0, max_value=2**62), st.text(max_size=30))
def test_derive_seed_is_pure(master, name):
    assert derive_seed(master, name) == derive_seed(master, name)


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=0, max_value=1000),
)
def test_process_timeout_accumulation(steps, seed):
    """A chain of timers, each set when the last fires, wakes at the
    prefix sums of their delays."""
    sim = Simulator(seed=seed)
    wake_times = []
    # One entry per timer: its delay, and whether it ends a step.
    chain = [
        (delay, turn == repeat - 1)
        for delay, repeat in steps
        for turn in range(repeat)
    ]

    def wake(index):
        if chain[index][1]:
            wake_times.append(sim.now)
        if index + 1 < len(chain):
            sim.call_later(chain[index + 1][0], wake, index + 1)

    sim.call_later(chain[0][0], wake, 0)
    sim.run()
    expected = []
    acc = 0.0
    for delay, repeat in steps:
        acc += delay * repeat
        expected.append(acc)
    for measured, exact in zip(wake_times, expected):
        assert abs(measured - exact) < 1e-6 * max(1.0, exact)
