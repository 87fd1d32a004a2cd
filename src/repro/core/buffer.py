"""Per-next-hop bulk buffers (paper Section 3, sender side).

"Data messages for different receivers are buffered separately, so messages
for the same next hop can be combined and sent to that next hop."

:class:`BulkBuffer` keeps one FIFO of packet runs
(:class:`~repro.net.packets.PacketRun`) per next hop and tracks byte
occupancy against a node-wide capacity (the evaluation uses 5000 × 32 B).
When the node-wide capacity is exceeded the *arriving* packets are dropped
(drop-tail), which is what a full receiver advertising ``allowed = 0``
degenerates to.

A push keeps the prefix of a run that fits and a pop splits at most the
run at the budget boundary, both sized by arithmetic.  Byte counts are
sums of packet sizes (multiples of 1/8), so the products equal the
per-packet additions exactly.
"""

from __future__ import annotations

import collections

from repro.net.packets import PacketRun


class BulkBuffer:
    """FIFO packet buffers keyed by next-hop node id.

    Parameters
    ----------
    capacity_bytes:
        Node-wide byte budget across all next hops (``float('inf')`` to
        disable, e.g. for the sink).
    """

    def __init__(self, capacity_bytes: float = float("inf")):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._queues: dict[int, collections.deque[PacketRun]] = {}
        self._bytes: dict[int, float] = collections.defaultdict(float)
        self._total_bytes = 0.0

    # -- occupancy ---------------------------------------------------------

    @property
    def total_bytes(self) -> float:
        """Bytes buffered across all next hops."""
        return self._total_bytes

    @property
    def free_bytes(self) -> float:
        """Remaining node-wide capacity."""
        return max(0.0, self.capacity_bytes - self._total_bytes)

    def bytes_for(self, next_hop: int) -> float:
        """Bytes buffered toward ``next_hop``."""
        return self._bytes.get(next_hop, 0.0)

    def has_packet(self, next_hop: int, packet_id: int) -> bool:
        """Whether the packet is still buffered toward ``next_hop``."""
        queue = self._queues.get(next_hop)
        if not queue:
            return False
        return any(
            run.first_id <= packet_id < run.first_id + len(run.created_s)
            for run in queue
        )

    # -- mutation ------------------------------------------------------------

    def push_many(self, next_hop: int, run: PacketRun) -> int:
        """Buffer the packets of ``run`` toward ``next_hop``, in order, as
        long as they fit; returns how many were buffered.

        The rest are dropped: one run's packets are all one size, so the
        ones that do not fit are a suffix.
        """
        count = len(run.created_s)
        size = run.payload_bits / 8
        total = self._total_bytes
        capacity = self.capacity_bytes
        if total + count * size > capacity:
            fits = max(0, int((capacity - total) // size))
            if not fits:
                return 0
            run = run.slice(0, fits)
            count = fits
        queue = self._queues.get(next_hop)
        if queue is None:
            queue = self._queues[next_hop] = collections.deque()
        queue.append(run)
        added = count * size
        self._bytes[next_hop] += added
        self._total_bytes = total + added
        return count

    def pop_up_to(self, next_hop: int, budget_bytes: float) -> list[PacketRun]:
        """Dequeue whole packets toward ``next_hop`` totalling ≤ ``budget_bytes``.

        Packets are never split; a packet that does not fit the remaining
        budget stays buffered (and ends the pop — FIFO order is preserved),
        so at most the last run popped is a prefix of a buffered one.
        """
        if budget_bytes < 0:
            raise ValueError("budget must be non-negative")
        queue = self._queues.get(next_hop)
        popped: list[PacketRun] = []
        if not queue:
            return popped
        remaining = budget_bytes
        taken = 0.0
        while queue:
            run = queue[0]
            count = len(run.created_s)
            size = run.payload_bits / 8
            whole = count * size
            if whole <= remaining:
                popped.append(queue.popleft())
                remaining -= whole
                taken += whole
                continue
            fits = int(remaining // size)
            if fits:
                popped.append(run.slice(0, fits))
                queue[0] = run.slice(fits, count)
                taken += fits * size
            break
        self._bytes[next_hop] -= taken
        self._total_bytes -= taken
        return popped
