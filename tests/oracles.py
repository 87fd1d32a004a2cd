"""Brute-force reference graphs for tests, built with networkx.

networkx is a test extra, not a runtime dependency: a test that asks for
an oracle graph is skipped where networkx is not installed.
"""

import pytest

from repro.topology.geometry import in_range


def nx_graph(layout, range_m):
    """The graph an O(n²) ``in_range`` scan of ``layout`` accepts at
    ``range_m``, as a ``networkx.Graph``."""
    networkx = pytest.importorskip("networkx")
    graph = networkx.Graph()
    ids = layout.node_ids
    graph.add_nodes_from(ids)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if in_range(layout.position(a), layout.position(b), range_m):
                graph.add_edge(a, b)
    return graph
