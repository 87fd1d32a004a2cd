"""Per-next-hop bulk buffers (paper Section 3, sender side).

"Data messages for different receivers are buffered separately, so messages
for the same next hop can be combined and sent to that next hop."

:class:`BulkBuffer` keeps one FIFO per next hop and tracks byte occupancy
against a node-wide capacity (the evaluation uses 5000 × 32 B).  When the
node-wide capacity is exceeded the *arriving* packet is dropped (drop-tail),
which is what a full receiver advertising ``allowed = 0`` degenerates to.
"""

from __future__ import annotations

import collections

from repro.net.packets import DataPacket


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
        self._queues: dict[int, collections.deque[DataPacket]] = {}
        self._bytes: dict[int, float] = collections.defaultdict(float)
        self._total_bytes = 0.0
        self.drops = 0
        self.peak_bytes = 0.0

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

    def packets_for(self, next_hop: int) -> int:
        """Packet count buffered toward ``next_hop``."""
        queue = self._queues.get(next_hop)
        return len(queue) if queue else 0

    def next_hops(self) -> list[int]:
        """Next hops with at least one buffered packet."""
        return [hop for hop, queue in self._queues.items() if queue]

    def has_packet(self, next_hop: int, packet_id: int) -> bool:
        """Whether the packet is still buffered toward ``next_hop``."""
        queue = self._queues.get(next_hop)
        if not queue:
            return False
        return any(packet.packet_id == packet_id for packet in queue)

    # -- mutation ------------------------------------------------------------

    def push(self, next_hop: int, packet: DataPacket) -> bool:
        """Buffer ``packet`` toward ``next_hop``; False if dropped (full)."""
        size = packet.payload_bits / 8
        if self._total_bytes + size > self.capacity_bytes:
            self.drops += 1
            return False
        queue = self._queues.get(next_hop)
        if queue is None:
            queue = collections.deque()
            self._queues[next_hop] = queue
        queue.append(packet)
        self._bytes[next_hop] += size
        self._total_bytes += size
        self.peak_bytes = max(self.peak_bytes, self._total_bytes)
        return True

    def push_many(self, next_hop: int, packets: list[DataPacket]) -> int:
        """:meth:`push` each of ``packets`` in order; returns how many
        were buffered.

        Leaves exactly the state the per-packet calls would: the same
        float additions in the same order, and a drop for every packet
        that does not fit when its turn comes.
        """
        capacity = self.capacity_bytes
        total = self._total_bytes
        hop_bytes = self._bytes.get(next_hop, 0.0)
        peak = self.peak_bytes
        accepted = []
        for packet in packets:
            size = packet.payload_bits / 8
            if total + size > capacity:
                continue
            accepted.append(packet)
            hop_bytes += size
            total += size
            if total > peak:
                peak = total
        self.drops += len(packets) - len(accepted)
        if accepted:
            queue = self._queues.get(next_hop)
            if queue is None:
                queue = self._queues[next_hop] = collections.deque()
            queue.extend(accepted)
            self._bytes[next_hop] = hop_bytes
            self._total_bytes = total
            self.peak_bytes = peak
        return len(accepted)

    def pop_up_to(self, next_hop: int, budget_bytes: float) -> list[DataPacket]:
        """Dequeue whole packets toward ``next_hop`` totalling ≤ ``budget_bytes``.

        Packets are never split; a packet that does not fit the remaining
        budget stays buffered (and ends the pop — FIFO order is preserved).
        """
        if budget_bytes < 0:
            raise ValueError("budget must be non-negative")
        queue = self._queues.get(next_hop)
        popped: list[DataPacket] = []
        if not queue:
            return popped
        remaining = budget_bytes
        hop_bytes = self._bytes[next_hop]
        total = self._total_bytes
        while queue:
            size = queue[0].payload_bits / 8
            if size > remaining:
                break
            popped.append(queue.popleft())
            remaining -= size
            hop_bytes -= size
            total -= size
        self._bytes[next_hop] = hop_bytes
        self._total_bytes = total
        return popped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        per_hop = {hop: len(q) for hop, q in self._queues.items() if q}
        return f"<BulkBuffer {self._total_bytes:.0f}B {per_hop}>"
