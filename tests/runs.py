"""Per-packet views of :class:`~repro.net.packets.PacketRun` for tests."""

import collections

from repro.net.packets import PacketRun

#: One packet of a run, as the tests read it.
Packet = collections.namedtuple(
    "Packet", "packet_id src dst payload_bits created_s hops"
)


def unpack(runs):
    """The packets of ``runs``, in order."""
    return [
        Packet(run.first_id + offset, run.src, run.dst, run.payload_bits, t,
               run.hops)
        for run in runs
        for offset, t in enumerate(run.created_s)
    ]


def single(src, dst, payload_bits, created_s):
    """One freshly generated packet (a run of length 1)."""
    return PacketRun.new(src, dst, payload_bits, [created_s])


class Collect(list):
    """A submit or deliver callback that keeps the packets of each run."""

    def __call__(self, run):
        self.extend(unpack((run,)))
