"""Route shortcut learning for the high-power radio (paper Section 3).

"To reduce route discovery overhead of the high-power radios, we advocate
using the existing routes over the low-power radios initially and adapting
these routes as necessary, similar to route optimizations in [DSR].  ...
the high-power radio on the sender side needs to remain on to hear its
packet being forwarded by the intermediate nodes.  The last node that
forwards the packet is set as the next-hop for the following transmissions."

:class:`ShortcutLearner` implements that optimization: it starts from the
low-power route and, whenever the sender overhears one of its own packets
being forwarded by a node further down the path, it records the *farthest*
overheard forwarder as the new next hop.  The dual-radio scenarios can run
with learning on or off (an ablation the benchmarks exercise); with the
paper's static trees learning converges after the first burst along a path.
"""

from __future__ import annotations


from repro.net.routing import RoutingError, RoutingLike


class ShortcutLearner:
    """Per-node high-power next-hop cache with DSR-style shortening.

    Parameters
    ----------
    node_id:
        The owning (sender) node.
    low_table / high_table:
        Routing tables of the low-power and high-power networks.  The low
        table provides the initial route; the high table bounds which
        shortcuts are reachable in one high-power hop.
    """

    def __init__(
        self,
        node_id: int,
        low_table: RoutingLike,
        high_table: RoutingLike,
    ):
        self.node_id = node_id
        self.low_table = low_table
        self.high_table = high_table
        self._learned: dict[int, int] = {}
        self.shortcuts_learned = 0

    def next_hop(self, dst: int) -> int:
        """Current high-power next hop toward ``dst``.

        Prefers a learned shortcut; otherwise falls back to the low-power
        route's next hop (the paper's "use existing routes initially").
        """
        learned = self._learned.get(dst)
        if learned is not None:
            return learned
        return self.low_table.next_hop(self.node_id, dst)

    def observe_forwarding(self, dst: int, forwarder: int) -> bool:
        """Record that ``forwarder`` was overheard relaying our packet to ``dst``.

        Only adopts ``forwarder`` when it is (a) directly reachable over the
        high-power radio and (b) strictly closer to ``dst`` than the current
        next hop.  Returns whether a new shortcut was learned.
        """
        if forwarder == self.node_id:
            return False
        if not self.high_table.has_edge(self.node_id, forwarder):
            return False
        try:
            current = self.next_hop(dst)
        except RoutingError:
            # ``dst`` is unreachable this epoch (it died after the frame
            # left): there is no route to shorten.
            return False
        if forwarder == current:
            return False
        current_remaining = self._remaining(current, dst)
        candidate_remaining = self._remaining(forwarder, dst)
        if candidate_remaining < current_remaining:
            self._learned[dst] = forwarder
            self.shortcuts_learned += 1
            return True
        return False

    def _remaining(self, via: int, dst: int) -> int:
        if via == dst:
            return 0
        if not self.low_table.has_route(via, dst):
            return len(self.low_table) + 1
        return self.low_table.hops(via, dst)

    def has_shortcut(self, dst: int) -> bool:
        """Whether a shortcut toward ``dst`` has been learned."""
        return dst in self._learned
