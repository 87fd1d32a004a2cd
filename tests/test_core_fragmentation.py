"""Burst assembly, including hypothesis round-trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fragmentation import assemble_burst
from repro.net.packets import PacketRun

from tests.runs import single, unpack


def packets(count, size_bytes=32):
    return [single(1, 0, size_bytes * 8, 0.0) for _ in range(count)]


def carried(fragments):
    """The packets of ``fragments``, taken in fragment-index order."""
    ordered = sorted(fragments, key=lambda fragment: fragment.index)
    return unpack([run for fragment in ordered for run in fragment.runs])


class TestAssemble:
    def test_paper_packing_32_per_frame(self):
        """32-byte packets into 1024-byte frames: 32 per frame."""
        fragments = assemble_burst(packets(64), 1, 5, 1024)
        assert len(fragments) == 2
        assert all(f.packets == 32 for f in fragments)
        assert all(f.payload_bits == 1024 * 8 for f in fragments)

    def test_trailing_partial_fragment(self):
        fragments = assemble_burst(packets(33), 1, 5, 1024)
        assert len(fragments) == 2
        assert fragments[1].packets == 1

    def test_one_run_cut_at_the_frame_budget(self):
        run = PacketRun.new(1, 0, 256, [float(i) for i in range(70)])
        fragments = assemble_burst([run], 1, 5, 1024)
        assert [f.packets for f in fragments] == [32, 32, 6]
        assert [len(f.runs) for f in fragments] == [1, 1, 1]
        assert carried(fragments) == unpack([run])

    def test_indices_and_total(self):
        fragments = assemble_burst(packets(70), 9, 5, 1024)
        assert [f.index for f in fragments] == [0, 1, 2]
        assert all(f.total == 3 for f in fragments)
        assert all(f.session_id == 9 and f.origin == 5 for f in fragments)

    def test_oversized_packet_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            assemble_burst(packets(1, size_bytes=2000), 1, 5, 1024)

    def test_invalid_frame_payload(self):
        with pytest.raises(ValueError):
            assemble_burst(packets(1), 1, 5, 0)

    def test_empty_input_no_fragments(self):
        assert assemble_burst([], 1, 5, 1024) == []


class TestReassemble:
    def test_round_trip_order(self):
        originals = packets(100)
        fragments = assemble_burst(originals, 1, 5, 1024)
        assert carried(fragments) == unpack(originals)

    def test_out_of_order_fragments(self):
        originals = packets(96)
        fragments = assemble_burst(originals, 1, 5, 1024)
        assert carried(reversed(fragments)) == unpack(originals)

    def test_missing_fragment_leaves_gap(self):
        originals = packets(96)
        fragments = assemble_burst(originals, 1, 5, 1024)
        assert len(carried([fragments[0], fragments[2]])) == 64


sizes = st.lists(st.integers(min_value=1, max_value=128), min_size=0, max_size=60)


@given(sizes, st.integers(min_value=128, max_value=2048))
def test_property_round_trip(packet_sizes, frame_bytes):
    """Assembly keeps every packet, in order, whatever the sizes."""
    originals = [single(1, 0, size * 8, 0.0) for size in packet_sizes]
    fragments = assemble_burst(originals, 1, 2, frame_bytes)
    assert carried(fragments) == unpack(originals)


@given(sizes, st.integers(min_value=128, max_value=2048))
def test_property_fragments_respect_budget(packet_sizes, frame_bytes):
    originals = [single(1, 0, size * 8, 0.0) for size in packet_sizes]
    fragments = assemble_burst(originals, 1, 2, frame_bytes)
    for fragment in fragments:
        assert fragment.payload_bits <= frame_bytes * 8
        assert fragment.packets  # no empty fragments


@given(sizes)
def test_property_conservation(packet_sizes):
    originals = [single(1, 0, size * 8, 0.0) for size in packet_sizes]
    fragments = assemble_burst(originals, 1, 2, 1024)
    assert sum(f.packets for f in fragments) == len(originals)
    assert sum(f.payload_bits for f in fragments) == sum(
        p.payload_bits for p in originals
    )
