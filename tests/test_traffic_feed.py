"""On-demand CBR feeds: BCP agents pull their packets in batches.

A :class:`~repro.core.bcp.BcpAgent` that adopts its CBR source cancels
the source's per-packet timer chain and generates the packets itself, in
batches, just before anything reads or changes its buffer or its data
next hop, with one pending kernel event at the packet that starts the
next session.  These tests check that the two feeds are the same
model: every composed dual cell gives the same ``RunResult`` digest
under both, and the batch and catch-up steps each leave the state
per-packet submits leave.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bcp import BcpAgent, _SenderSession
from repro.core.buffer import BulkBuffer
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.models.scenario import (
    ScenarioConfig,
    build_network,
    multi_hop_config,
    run_scenario,
    single_hop_config,
)
from repro.net.packets import PacketRun
from repro.runner.cache import results_digest
from repro.sim import Simulator
from repro.traffic import CbrSource

from tests.runs import single, unpack


@contextlib.contextmanager
def timeout_chains() -> typing.Iterator[None]:
    """Inside the block, every BCP agent declines its CBR source, so the
    source's timeout chain submits each packet when it is due."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BcpAgent, "adopt", lambda self, source: False)
        yield


def both_digests(config: ScenarioConfig) -> tuple[str, str]:
    pulled = results_digest([run_scenario(config)])
    with timeout_chains():
        chained = results_digest([run_scenario(config)])
    return pulled, chained


def _due_times(first: float, interval: float, before: float) -> list[float]:
    """A source's due times below ``before``, by repeated addition."""
    times = []
    t = first
    while t < before:
        times.append(t)
        t += interval
    return times


# -- pulled and chained feeds agree -----------------------------------


@st.composite
def _fault_plans(draw, n_nodes: int, sim_time_s: float) -> FaultPlan:
    """Scripted crashes (of senders, relays or the sink), recoveries and
    second crashes, random churn with or without recovery, or battery
    deaths; each with or without link flaps."""
    times = st.floats(min_value=0.0, max_value=sim_time_s)
    kind = draw(st.sampled_from(["none", "scripted", "churn", "batteries"]))
    crashes, recoveries = [], []
    churn: dict[str, float] = {}
    if kind == "scripted":
        crashed = draw(
            st.lists(st.sampled_from(range(n_nodes)), max_size=3, unique=True)
        )
        for node in crashed:
            at = draw(times)
            crashes.append((at, node))
            if draw(st.booleans()):
                at += draw(times) + 1e-3
                recoveries.append((at, node))
                if draw(st.booleans()):
                    crashes.append((at + draw(times) + 1e-3, node))
    elif kind == "churn":
        churn = dict(
            crash_rate_per_node_s=draw(st.sampled_from([0.01, 0.03])),
            mean_downtime_s=draw(st.sampled_from([0.0, 3.0])),
        )
    elif kind == "batteries":
        churn = dict(
            battery_capacity_j=draw(st.sampled_from([0.3, 1.0])),
            battery_poll_s=0.5,
        )
    node_ids = st.integers(min_value=0, max_value=n_nodes - 1)
    links = draw(
        st.lists(
            st.tuples(node_ids, node_ids).filter(lambda link: link[0] != link[1]),
            max_size=2,
            unique_by=frozenset,
        )
    )
    links_down, links_up = [], []
    for a, b in links:
        at = draw(times)
        links_down.append((at, a, b))
        links_up.append((at + draw(times), a, b))
    return FaultPlan(
        crashes=tuple(crashes),
        recoveries=tuple(recoveries),
        links_down=tuple(links_down),
        links_up=tuple(links_up),
        **churn,
    )


@st.composite
def dual_cells(draw) -> ScenarioConfig:
    """Small composed dual cells: high tiers that reach the sink in one
    hop (Cabletron), relay at sensor range (Lucent) or reach two grid
    hops (Cabletron at 90 m, where overheard relays teach shortcuts),
    tight or roomy buffers, shortcut learning on or off, every routing
    policy, lossy links, and the fault plans of :func:`_fault_plans`."""
    tier = draw(st.sampled_from(["one-hop", "relayed", "two-hop"]))
    rows = draw(st.integers(min_value=2, max_value=4))
    cols = draw(st.integers(min_value=3, max_value=4))
    n_nodes = rows * cols
    sink = draw(st.integers(min_value=0, max_value=n_nodes - 1))
    burst = draw(st.integers(min_value=10, max_value=500))
    rate = draw(st.sampled_from([200.0, 2000.0]))
    # Fill times of one burst run from 1.3 s to 640 s; a window of a few
    # fills keeps every cell short, and 20 s leaves room for a handshake
    # to fail (3 s per WAKEUP attempt).
    fill_s = burst * 256 / rate
    sim_time_s = max(
        20.0, draw(st.floats(min_value=2.0, max_value=3.0)) * min(fill_s, 60.0)
    )
    # The buffer must hold one burst; a just-big-enough one drops packets
    # whenever relayed traffic shares it.
    buffer_packets = max(
        burst, int(burst * draw(st.sampled_from([1.0, 1.1, 1.5, 3.0, 100.0])))
    )
    faults = draw(_fault_plans(n_nodes, sim_time_s))
    if tier == "relayed":
        build = single_hop_config
    else:
        build = functools.partial(
            multi_hop_config,
            multihop_range_m=90.0 if tier == "two-hop" else None,
        )
    return build(
        rows=rows,
        cols=cols,
        sink=sink,
        # Every node sending makes senders relay too.
        n_senders=draw(
            st.one_of(st.just(n_nodes - 1), st.integers(1, n_nodes - 1))
        ),
        # Lost frames and short WAKEUP timeouts make senders retry, and
        # fail handshakes.
        loss_probability=draw(st.sampled_from([0.0, 0.05, 0.3])),
        wakeup_timeout_s=draw(st.sampled_from([3.0, 0.2, 0.03])),
        rate_bps=rate,
        burst_packets=burst,
        buffer_packets=buffer_packets,
        shortcut_learning=draw(st.booleans()),
        # Cost refreshes (battery polls) move dynamic routes.
        routing_policy=draw(
            st.sampled_from(["hops", "tx-energy", "residual-energy"])
        ),
        sim_time_s=sim_time_s,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        faults=None if faults.is_zero else faults,
    )


@settings(max_examples=30, deadline=None)
@given(dual_cells())
def test_pulled_and_chained_feeds_give_one_digest(config):
    pulled, chained = both_digests(config)
    assert pulled == chained


@pytest.mark.parametrize(
    "config",
    [
        multi_hop_config(sim_time_s=150.0, burst_packets=100, seed=8),
        single_hop_config(
            rows=4, cols=4, sink=5, rate_bps=2000.0, burst_packets=40,
            buffer_packets=44, shortcut_learning=True, sim_time_s=40.0,
            seed=3,
        ),
        # WAKEUP retries: each attempt must size its burst from a buffer
        # that holds every packet due so far.
        multi_hop_config(
            rows=3, cols=4, sink=0, n_senders=11, burst_packets=10,
            buffer_packets=11, loss_probability=0.05, shortcut_learning=True,
            sim_time_s=20.0, seed=0,
        ),
        # Learning a shortcut moves the data next hop: packets due before
        # the overheard frame still go to the old one.
        multi_hop_config(
            rows=2, cols=4, sink=0, n_senders=7, burst_packets=10,
            buffer_packets=15, shortcut_learning=True, sim_time_s=20.0,
            seed=0,
        ),
        # A relayed packet queues behind the sender's own packets due
        # before it arrived.
        multi_hop_config(
            rows=4, cols=3, sink=4, n_senders=11, burst_packets=10,
            buffer_packets=10, shortcut_learning=True, sim_time_s=20.0,
            seed=1531,
        ),
        # A muted link to the sink fails handshakes: teardown must buffer
        # the packets due meanwhile before re-aiming the pending event.
        multi_hop_config(
            rows=2, cols=3, sink=0, n_senders=5, rate_bps=200.0,
            burst_packets=10, buffer_packets=30, sim_time_s=25.6, seed=0,
            faults=FaultPlan(
                links_down=((0.0, 0, 1),), links_up=((22.0, 0, 1),)
            ),
        ),
        # Random churn kills node 4, revives it and kills it again: its
        # source stays stopped from the first death on.
        single_hop_config(
            rows=4, cols=4, sink=5, n_senders=10, rate_bps=2000.0,
            burst_packets=30, sim_time_s=30.0, seed=2,
            faults=FaultPlan(crash_rate_per_node_s=0.01, mean_downtime_s=5.0),
        ),
    ],
    ids=[
        "paper-mh-short",
        "relayed-tight-shortcuts",
        "lossy-retries",
        "shortcut-learning",
        "relaying-senders",
        "failed-handshakes",
        "churn-kills-twice",
    ],
)
def test_named_cells_give_one_digest(config):
    pulled, chained = both_digests(config)
    assert pulled == chained


# -- the batch step ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=40),
    before=st.lists(st.integers(min_value=1, max_value=9), max_size=6),
    size=st.integers(min_value=1, max_value=9),
    count=st.integers(min_value=1, max_value=12),
)
def test_push_many_matches_repeated_push(capacity, before, size, count):
    """Same packets, byte counts, drops and peak as one push per packet."""
    one, many = BulkBuffer(float(capacity)), BulkBuffer(float(capacity))
    for packet_size in before:
        shared = single(1, 0, packet_size * 8, 0.0)
        one.push_many(7, shared)
        many.push_many(7, shared)
    run = PacketRun.new(1, 0, size * 8, [0.0] * count)
    kept = sum(one.push_many(3, run.slice(i, i + 1)) for i in range(count))
    assert many.push_many(3, run) == kept
    assert {hop: unpack(q) for hop, q in one._queues.items()} == {
        hop: unpack(q) for hop, q in many._queues.items()
    }
    assert dict(one._bytes) == dict(many._bytes)
    assert one.total_bytes == many.total_bytes


# -- tie rule and catch-up points ---------------------------------------


def _fed_network(config: ScenarioConfig):
    sim = Simulator(seed=config.seed)
    built = build_network(config, sim)
    assert built.fed_agents, "the cell must have fed senders"
    return sim, built


def test_read_at_exact_due_time_excludes_that_packet():
    config = multi_hop_config(
        rows=2, cols=3, sink=0, n_senders=1, burst_packets=50,
        sim_time_s=30.0,
    )
    sim, built = _fed_network(config)
    (agent,) = built.fed_agents
    source = agent.feed
    due = source.due_s(3)
    seen = []

    def read() -> None:
        agent.catch_up()
        seen.append(source.stats.packets_generated)

    # The first pending event pulls packet 0 and moves on to the crossing
    # (packet 49), so nothing else runs at packet 3's due time.
    sim.call_at(due, read)
    sim.run(until=due)
    assert seen == [3]
    assert agent.stats.packets_buffered == 3
    agent.catch_up(inclusive=True)
    assert source.stats.packets_generated == 4


def test_session_starts_at_the_crossing_packet():
    config = multi_hop_config(
        rows=2, cols=3, sink=0, n_senders=1, burst_packets=20,
        sim_time_s=30.0,
    )
    sim, built = _fed_network(config)
    (agent,) = built.fed_agents
    threshold_packets = int(agent.config.threshold_bytes // 32)
    crossing = agent.feed.due_s(threshold_packets - 1)
    sim.run(until=crossing - 1e-9)
    assert agent.stats.handshakes_started == 0
    sim.run(until=crossing)
    assert agent.stats.handshakes_started == 1
    assert agent.feed.stats.packets_generated == threshold_packets


def test_kill_catches_up_before_stopping_the_source():
    config = multi_hop_config(
        rows=3, cols=3, sink=4, n_senders=8, burst_packets=200,
        sim_time_s=60.0, seed=2,
    )
    sim, built = _fed_network(config)
    agent = built.fed_agents[0]
    source = agent.feed
    first, interval = source.due_s(0), source.interval_s
    kill_s = 17.3
    plan = FaultPlan(crashes=((kill_s, agent.node_id),))
    FaultInjector(sim, config.replace(faults=plan), built, plan)
    seen = []
    # Scheduled after the injector's kill, so it runs right after it.
    sim.call_at(kill_s, lambda: seen.append(agent.stats.packets_submitted))
    sim.run(until=config.sim_time_s)
    expected = len(_due_times(first, interval, kill_s))
    assert seen == [expected]
    assert source.stop_s == kill_s
    agent.catch_up(inclusive=True)
    assert source.stats.packets_generated == expected


def test_horizon_catch_up_counts_every_generated_bit():
    config = multi_hop_config(
        rows=3, cols=3, sink=4, n_senders=4, burst_packets=300,
        sim_time_s=50.0, seed=4,
    )
    sim, built = _fed_network(config)
    firsts = [(agent.feed.due_s(0), agent.feed.interval_s) for agent in built.fed_agents]
    sim.run(until=config.sim_time_s)
    lagging = sum(agent.feed.stats.bits_generated for agent in built.fed_agents)
    for agent in built.fed_agents:
        agent.catch_up(inclusive=True)
    generated = sum(agent.feed.stats.bits_generated for agent in built.fed_agents)
    expected = sum(
        len(_due_times(first, interval, config.sim_time_s)) * 256
        for first, interval in firsts
    )
    assert lagging < generated == expected
    assert run_scenario(config).generated_bits == expected


def test_max_delay_budget_keeps_the_timer_chain():
    config = multi_hop_config(
        rows=2, cols=3, sink=0, n_senders=1, sim_time_s=5.0
    )
    sim = Simulator(seed=1)
    built = build_network(config, sim)
    node = next(n for n in range(1, config.n_nodes) if n not in built.senders)
    agent = built.agents[node]
    agent.config = dataclasses.replace(agent.config, max_delay_s=1.0)
    source = CbrSource(
        sim, node, 0, agent.submit, rate_bps=2000.0, rng=random.Random(5)
    )
    assert agent.adopt(source) is False
    assert agent.feed is None
    sim.run(until=1.0)
    assert source.stats.packets_generated == agent.stats.packets_submitted > 0


def test_room_freed_on_another_hop_brings_the_crossing_back():
    # The buffer is full, partly with a stale route's packets, so no fed
    # packet can start a session and no event is pending.  A transfer
    # toward the stale hop frees the room: the event must return at once
    # (the transfer may outlast the packets the crossing still needs).
    config = multi_hop_config(
        rows=2, cols=3, sink=0, n_senders=1, burst_packets=20,
        buffer_packets=20, sim_time_s=30.0,
    )
    sim, built = _fed_network(config)
    (agent,) = built.fed_agents
    source = agent.feed
    sim.run(until=source.due_s(0))
    assert agent.buffer.bytes_for(0) == 32.0
    stale = next(n for n in range(1, config.n_nodes) if n != agent.node_id)
    for _ in range(19):
        agent.buffer.push_many(stale, single(agent.node_id, 0, 256, sim.now))
    agent.rearm()
    assert agent._feed_event is None
    session = _SenderSession(next_hop=stale, session_id=0)
    agent._sender_sessions[stale] = session
    agent._transfer(session, 19 * 32.0)
    assert agent.buffer.bytes_for(stale) == 0.0
    assert agent._feed_event is not None
    assert agent._feed_event_s == source.due_s(18)
