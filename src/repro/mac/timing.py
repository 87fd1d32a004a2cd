"""MAC timing/parameter presets for the two radio classes.

The paper (Section 4.1) uses the "full IEEE 802.11b MAC" for the high-power
radio and "a simpler MAC ... (e.g., no RTS/CTS)" for the sensor radio.  The
presets below encode standard constants:

* :func:`dcf_params` — IEEE 802.11b DCF: 20 µs slots, SIFS 10 µs,
  DIFS 50 µs, CWmin 32 / CWmax 1024, retry limit 7, 14-byte ACKs, 192 µs
  long PLCP preamble per frame.
* :func:`sensor_csma_params` — IEEE 802.15.4-style unslotted CSMA-CA as
  the CC2420 implements it: 320 µs unit backoff periods, initial window
  2^macMinBE = 8 slots growing to 2^macMaxBE-ish 128, SIFS-like 192 µs
  turnaround, retry limit 5, 11-byte ACKs, no RTS/CTS.

Simplification (documented): backoff counters are re-drawn (with a doubled
window, mirroring 802.15.4's backoff-exponent increment) when the channel
is found busy, instead of 802.11's freeze-and-resume.  This slightly
changes access-delay distribution under contention but preserves the
collision-avoidance behaviour the evaluation depends on.

Every timing constant here is a multiple of a small base unit (20 µs
802.11 slots, 320 µs CC2420 backoff periods), so contending nodes land
their timers on a handful of *exact* shared timestamps per slot
boundary.  A timestamp-bucketed agenda exploits that on a synthetic
timer loop, but on whole scenario cells it measured 7–20% slower than
the kernel's plain binary heap, which is why the heap is the only
agenda.
"""

from __future__ import annotations

import dataclasses

from repro.units import BITS_PER_BYTE


@dataclasses.dataclass(frozen=True)
class MacParams:
    """Parameters shared by both MAC implementations.

    Attributes
    ----------
    slot_s / sifs_s / difs_s:
        Contention slot, short and distributed inter-frame spaces.
    cw_min_slots / cw_max_slots:
        Initial and maximum contention windows (in slots).
    max_retries:
        Retransmissions after the first attempt before a frame is dropped.
    ack_bits:
        On-air size of an acknowledgment frame.
    ack_timeout_margin_s:
        Grace added to the computed ACK wait (propagation + turnaround).
    preamble_s:
        Fixed PHY preamble added to every frame's airtime.
    queue_capacity:
        Transmit-queue depth; frames beyond it are dropped at enqueue
        (drop-tail).
    busy_cap_slots:
        Ceiling of the window growth on consecutive *busy* senses
        (802.15.4's macMaxBE); retries may still grow to
        ``cw_max_slots``.  ``None`` means no separate cap.
    """

    slot_s: float
    sifs_s: float
    difs_s: float
    cw_min_slots: int
    cw_max_slots: int
    max_retries: int
    ack_bits: int
    ack_timeout_margin_s: float = 1e-4
    preamble_s: float = 0.0
    queue_capacity: int = 512
    busy_cap_slots: int | None = None

    def __post_init__(self) -> None:
        if self.cw_min_slots < 1 or self.cw_max_slots < self.cw_min_slots:
            raise ValueError("contention windows must satisfy 1 <= min <= max")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def contention_window(self, attempt: int) -> int:
        """Window size (slots) for the ``attempt``-th try (0-based), doubling."""
        return min(self.cw_min_slots << attempt, self.cw_max_slots)


def dcf_params(queue_capacity: int = 512) -> MacParams:
    """IEEE 802.11b DCF constants (long preamble)."""
    return MacParams(
        slot_s=20e-6,
        sifs_s=10e-6,
        difs_s=50e-6,
        cw_min_slots=32,
        cw_max_slots=1024,
        max_retries=7,
        ack_bits=14 * BITS_PER_BYTE,
        preamble_s=192e-6,
        queue_capacity=queue_capacity,
    )


def sensor_csma_params(queue_capacity: int = 128) -> MacParams:
    """802.15.4/CC2420-style unslotted CSMA-CA constants (no RTS/CTS)."""
    return MacParams(
        slot_s=320e-6,
        sifs_s=192e-6,
        difs_s=128e-6,
        cw_min_slots=8,
        cw_max_slots=128,
        max_retries=5,
        ack_bits=11 * BITS_PER_BYTE,
        preamble_s=0.0,
        queue_capacity=queue_capacity,
        busy_cap_slots=32,
    )
