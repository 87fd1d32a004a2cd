"""Unit conversions and physical constants used throughout :mod:`repro`.

The library uses strict SI units internally:

* time in **seconds**
* energy in **joules**
* power in **watts**
* data sizes in **bits** (helper functions accept bytes where noted)
* rates in **bits per second**
* distances in **meters**

The paper (and its Table 1) quotes milliwatts, millijoules and
kilobits/kilobytes; these helpers convert at the boundary so that no module
ever mixes unit systems.
"""

from __future__ import annotations

#: Number of bits per byte (spelled out so size conversions read clearly).
BITS_PER_BYTE = 8

#: Bytes per kilobyte.  The paper uses binary kilobytes (1 KB = 1024 B).
BYTES_PER_KB = 1024


def mw_to_w(milliwatts: float) -> float:
    """Convert a power in milliwatts to watts."""
    return milliwatts * 1e-3


def w_to_mw(watts: float) -> float:
    """Convert a power in watts to milliwatts."""
    return watts * 1e3


def mj_to_j(millijoules: float) -> float:
    """Convert an energy in millijoules to joules."""
    return millijoules * 1e-3


def j_to_mj(joules: float) -> float:
    """Convert an energy in joules to millijoules."""
    return joules * 1e3


def kbps_to_bps(kilobits_per_second: float) -> float:
    """Convert a rate in kilobits/s (decimal, as radio datasheets quote) to bits/s."""
    return kilobits_per_second * 1e3


def mbps_to_bps(megabits_per_second: float) -> float:
    """Convert a rate in megabits/s to bits/s."""
    return megabits_per_second * 1e6


def kb_to_bits(kilobytes: float) -> float:
    """Convert binary kilobytes (1 KB = 1024 B) to bits."""
    return kilobytes * BYTES_PER_KB * BITS_PER_BYTE


def bits_to_kb(num_bits: float) -> float:
    """Convert bits to binary kilobytes (1 KB = 1024 B)."""
    return num_bits / (BYTES_PER_KB * BITS_PER_BYTE)
