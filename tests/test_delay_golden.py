"""Pinned run of BCP's delay-bounded fallback (``BcpConfig.max_delay_s``).

``ScenarioConfig`` does not expose ``max_delay_s``, so no scenario golden
reaches the per-packet deadlines, the buffered-packet check behind them
or the low-power flush.  This test pins a small line with relays on both
radios and a deadline budget, driven by push-mode sources: a sha256 over
what the sink measured and every agent's protocol counters.
"""

import hashlib

from repro.core.bcp import BcpStats
from repro.core.config import BcpConfig
from repro.stats.collector import SinkCollector
from repro.traffic.generators import CbrSource, PoissonSource

from tests.test_bcp import DualNet

PINNED = "11f655cdfe6504ddbe693428dca5c45ba81cce102ac39fbab6d6060749785fe0"


def deadline_line():
    """Run a 5-node line (node 4 the sink) with lossy radios for 120 s."""
    config = BcpConfig.for_burst_packets(
        24, max_delay_s=4.0, buffer_capacity_bytes=26 * 32.0
    )
    net = DualNet(n=5, config=config, seed=21, low_loss=0.05, high_loss=0.05)
    collector = SinkCollector(net.sim, net.sink)
    net.agents[net.sink].deliver = collector.deliver_many
    sources = [
        CbrSource(net.sim, 0, net.sink, net.agents[0].submit, rate_bps=2000.0,
                  start_jitter_s=0.5),
        PoissonSource(net.sim, 1, net.sink, net.agents[1].submit,
                      mean_rate_bps=300.0),
        CbrSource(net.sim, 2, net.sink, net.agents[2].submit, rate_bps=150.0,
                  payload_bytes=20),
    ]
    # Node 0 goes quiet for the second half: its last trickle must be
    # rescued by the deadline.
    sources[0].stop_s = 60.0
    net.sim.run(until=120.0)
    return net, collector


def test_run_exercises_both_radios_and_relays():
    net, collector = deadline_line()
    stats = [agent.stats for agent in net.agents.values()]
    assert sum(s.packets_sent_low for s in stats) > 0
    assert sum(s.bursts_completed for s in stats) > 0
    assert net.agents[1].stats.packets_received > 0
    assert collector.packets_delivered > 0


def test_run_matches_pinned_digest():
    net, collector = deadline_line()
    digest = hashlib.sha256()
    digest.update(collector.delays_s.tobytes())
    digest.update(
        repr(
            (
                collector.packets_delivered,
                collector.bits_delivered,
                collector.hops_total,
                collector.duplicates,
            )
        ).encode()
    )
    for node in sorted(net.agents):
        stats = net.agents[node].stats
        counters = [getattr(stats, name) for name in BcpStats.__slots__]
        digest.update(f"{node} {counters}\n".encode())
    assert digest.hexdigest() == PINNED
