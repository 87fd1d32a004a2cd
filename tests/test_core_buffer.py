"""BCP per-next-hop buffering."""

import pytest

from repro.core.buffer import BulkBuffer
from repro.net.packets import PacketRun

from tests.runs import single, unpack


def packet(size_bytes=32, src=1, dst=0):
    return single(src, dst, size_bytes * 8, 0.0)


def run(count, size_bytes=32, src=1, dst=0):
    return PacketRun.new(src, dst, size_bytes * 8, [0.0] * count)


class TestPush:
    def test_accumulates_bytes(self):
        buffer = BulkBuffer()
        for _ in range(3):
            assert buffer.push_many(5, packet()) == 1
        assert buffer.bytes_for(5) == 96
        assert len(unpack(buffer.pop_up_to(5, 96))) == 3
        assert buffer.total_bytes == 0

    def test_separate_queues_per_next_hop(self):
        buffer = BulkBuffer()
        buffer.push_many(1, packet())
        buffer.push_many(2, packet())
        buffer.push_many(2, packet())
        assert buffer.bytes_for(1) == 32
        assert buffer.bytes_for(2) == 64
        assert buffer.total_bytes == 96

    def test_capacity_enforced_nodewide(self):
        buffer = BulkBuffer(capacity_bytes=64)
        assert buffer.push_many(1, packet()) == 1
        assert buffer.push_many(2, packet()) == 1
        assert buffer.push_many(1, packet()) == 0
        assert buffer.total_bytes == 64

    def test_run_keeps_the_prefix_that_fits(self):
        buffer = BulkBuffer(capacity_bytes=100)
        whole = run(5)
        assert buffer.push_many(1, whole) == 3
        assert buffer.total_bytes == 96
        kept = unpack(buffer.pop_up_to(1, 1000))
        assert [p.packet_id for p in kept] == [
            p.packet_id for p in unpack([whole])[:3]
        ]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BulkBuffer(capacity_bytes=0)


class TestPop:
    def test_pop_respects_budget(self):
        buffer = BulkBuffer()
        for _ in range(5):
            buffer.push_many(1, packet())
        popped = buffer.pop_up_to(1, 100)  # 3 x 32 = 96 <= 100
        assert len(unpack(popped)) == 3
        assert buffer.bytes_for(1) == 64

    def test_pop_fifo_order(self):
        buffer = BulkBuffer()
        packets = [packet() for _ in range(4)]
        for item in packets:
            buffer.push_many(1, item)
        popped = buffer.pop_up_to(1, 1000)
        assert unpack(popped) == unpack(packets)

    def test_pop_splits_a_run_at_the_budget(self):
        buffer = BulkBuffer()
        whole = run(5)
        buffer.push_many(1, whole)
        first = buffer.pop_up_to(1, 70)
        rest = buffer.pop_up_to(1, 1000)
        assert len(first) == len(rest) == 1
        assert unpack(first) + unpack(rest) == unpack([whole])
        assert [len(r.created_s) for r in first + rest] == [2, 3]

    def test_pop_never_splits_packets(self):
        buffer = BulkBuffer()
        buffer.push_many(1, packet(size_bytes=100))
        assert buffer.pop_up_to(1, 99) == []
        assert buffer.bytes_for(1) == 100

    def test_pop_empty_hop(self):
        buffer = BulkBuffer()
        assert buffer.pop_up_to(42, 1000) == []

    def test_pop_frees_capacity(self):
        buffer = BulkBuffer(capacity_bytes=64)
        buffer.push_many(1, packet())
        buffer.push_many(1, packet())
        buffer.pop_up_to(1, 32)
        assert buffer.push_many(1, packet()) == 1
        assert buffer.free_bytes == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BulkBuffer().pop_up_to(1, -1)


def test_has_packet_checks_id_ranges():
    buffer = BulkBuffer()
    whole = run(4)
    buffer.push_many(1, whole)
    buffer.pop_up_to(1, 32)
    ids = range(whole.first_id, whole.first_id + 4)
    assert [buffer.has_packet(1, i) for i in ids] == [False, True, True, True]
    assert not buffer.has_packet(2, whole.first_id + 1)
    assert not buffer.has_packet(1, whole.first_id + 4)
