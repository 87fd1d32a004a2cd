"""Radio energy characteristics (the paper's Table 1) and derived quantities.

The paper evaluates three IEEE 802.11 NICs (Cabletron, Lucent 2 Mb/s,
Lucent 11 Mb/s) and three sensor radios (Mica, Mica2, Micaz).  Table 1 lists,
per radio: bit rate, transmit power, receive power, idle power and wake-up
energy (mW / mJ).  This module encodes those numbers in SI units, fills the
few gaps the table leaves (documented per-field below) and derives the
per-bit costs the break-even analysis needs.

Gaps filled relative to Table 1:

* ``Pi`` (idle power) is "N/A" for Mica2 and Micaz — for these
  receive-while-idle radios we use the receive power, the standard
  assumption for CC1000/CC2420-class transceivers (idle listening costs the
  same as receiving).
* Sensor radios have no ``Ewakeup`` entry; their wake-up cost is negligible
  and modelled as zero (they are the always-on control plane).
* Wake-up *latency* is not in the table.  We derive it as
  ``e_wakeup / p_idle`` (the time the radio would take to burn the wake-up
  energy at idle power), giving ~0.7–1.6 ms for the 802.11 NICs, and allow
  overriding.
* Transmission ranges come from Section 2.2: ~250 m for the 2 Mb/s 802.11
  radios, ~40 m for sensor radios, and the paper assumes Lucent 11 Mb/s has
  the *same* range as the sensor radios (rate–range trade-off).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.units import (
    BITS_PER_BYTE,
    kbps_to_bps,
    mbps_to_bps,
    mj_to_j,
    mw_to_w,
)


@dataclasses.dataclass(frozen=True)
class RadioEnergyModel:
    """First-order radio model: ``E_ELEC + E_AMP * d^alpha`` per bit.

    The standard sensor-network abstraction (Heinzelman et al.; the
    LASensorNetwork lineage): transmitting one bit over distance ``d``
    costs a fixed electronics term plus an amplifier term growing with
    the path-loss exponent, while receiving costs the electronics term
    alone.  It is the distance-*dependent* cost the Table 1 specs cannot
    express (they bill one nominal power at one nominal range), and it is
    what makes energy-aware route selection meaningful: a long hop is
    superlinearly more expensive than two short ones.

    Attributes
    ----------
    e_elec_j_per_bit:
        Transceiver electronics energy per bit (tx and rx sides alike).
    e_amp_j_per_bit:
        Amplifier energy per bit per ``m^alpha``.
    path_loss_exponent:
        ``alpha``; 2 for free space, up to ~4 for lossy ground-level
        channels.
    """

    e_elec_j_per_bit: float = 50e-9
    e_amp_j_per_bit: float = 100e-12
    path_loss_exponent: float = 2.0

    def tx_cost_j(self, bits: float, distance_m: float) -> float:
        """Energy to transmit ``bits`` over ``distance_m`` meters.

        ``distance_m <= 0`` (self-delivery, co-located nodes) degenerates
        to the electronics term alone.
        """
        if distance_m <= 0.0:
            return self.e_elec_j_per_bit * bits
        return bits * (
            self.e_elec_j_per_bit
            + self.e_amp_j_per_bit * distance_m**self.path_loss_exponent
        )


#: The literature-standard parameterization (50 nJ/bit electronics,
#: 100 pJ/bit/m² amplifier, free-space exponent) — the shared flyweight
#: every energy-aware routing policy uses unless a scenario overrides it.
FIRST_ORDER_RADIO_MODEL = RadioEnergyModel()


@dataclasses.dataclass(frozen=True)
class TxPowerLevel:
    """One discrete transmit power setting: draw plus nominal reach."""

    p_tx_w: float
    range_m: float


#: EE662-style discrete transmit-power ladder for the CC2420-class sensor
#: radio: output-power register steps (datasheet draw at 3 V: 8.5 mA at
#: -25 dBm up to 17.4 mA at 0 dBm) mapped onto the paper's 40 m nominal
#: range.  Assign via ``RadioSpec.replace(tx_power_levels=TX_POWER_LEVELS)``;
#: the default specs keep an empty ladder, so nothing changes unless a
#: scenario opts in.
TX_POWER_LEVELS: tuple[TxPowerLevel, ...] = (
    TxPowerLevel(p_tx_w=mw_to_w(25.5), range_m=10.0),
    TxPowerLevel(p_tx_w=mw_to_w(33.0), range_m=20.0),
    TxPowerLevel(p_tx_w=mw_to_w(42.0), range_m=30.0),
    TxPowerLevel(p_tx_w=mw_to_w(52.2), range_m=40.0),
)


@dataclasses.dataclass(frozen=True)
class RadioSpec:
    """Static energy/timing characteristics of one radio model.

    All fields are SI: watts, joules, seconds, bits/s, meters.

    Attributes
    ----------
    name:
        Human-readable radio name as used in the paper's figures.
    kind:
        ``"low"`` for sensor radios, ``"high"`` for IEEE 802.11 radios.
    rate_bps:
        Nominal bit rate.
    p_tx_w / p_rx_w / p_idle_w:
        Power draw while transmitting / receiving / idle-listening.
    p_sleep_w:
        Power draw asleep (0 for the radios Table 1 covers; kept for
        completeness and the testbed's CC2420 model).
    e_wakeup_j:
        Energy to transition this radio from off to idle.
    t_wakeup_s:
        Latency of that transition.
    range_m:
        Nominal transmission range (Section 2.2).
    payload_bytes / header_bytes:
        Default data-packet payload and header sizes used with this radio
        class (Section 4.1: 32 B sensor packets, 1024 B 802.11 packets).
    tx_power_levels:
        Optional discrete transmit-power ladder (EE662-style).  Empty —
        the default for every Table 1 spec — means the radio always
        transmits at ``p_tx_w``; non-empty lets the port pick the
        cheapest level whose reach covers the next hop.
    """

    name: str
    kind: str
    rate_bps: float
    p_tx_w: float
    p_rx_w: float
    p_idle_w: float
    p_sleep_w: float = 0.0
    e_wakeup_j: float = 0.0
    t_wakeup_s: float = 0.0
    range_m: float = 0.0
    payload_bytes: int = 32
    header_bytes: int = 8
    tx_power_levels: tuple[TxPowerLevel, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("low", "high"):
            raise ValueError(f"kind must be 'low' or 'high', got {self.kind!r}")
        if self.rate_bps <= 0:
            raise ValueError(f"{self.name}: rate must be positive")
        for field in ("p_tx_w", "p_rx_w", "p_idle_w", "p_sleep_w", "e_wakeup_j"):
            if getattr(self, field) < 0:
                raise ValueError(f"{self.name}: {field} must be non-negative")
        for level in self.tx_power_levels:
            if level.p_tx_w <= 0 or level.range_m <= 0:
                raise ValueError(
                    f"{self.name}: tx power levels need positive power and "
                    f"range, got {level!r}"
                )

    # -- derived quantities ------------------------------------------------

    @property
    def payload_bits(self) -> int:
        """Default payload size in bits."""
        return self.payload_bytes * BITS_PER_BYTE

    @property
    def header_bits(self) -> int:
        """Default header size in bits."""
        return self.header_bytes * BITS_PER_BYTE

    @property
    def packet_bits(self) -> int:
        """Default on-air packet size (payload + header) in bits."""
        return self.payload_bits + self.header_bits

    @property
    def link_power_w(self) -> float:
        """Combined sender+receiver power while a frame is on the air.

        This is the ``Ptx + Prx`` term of Equations 1 and 2.
        """
        return self.p_tx_w + self.p_rx_w

    def energy_per_payload_bit(self) -> float:
        """Link energy (tx+rx) per *payload* bit with default packet sizes.

        This is ``(Ptx+Prx)/R * (1 + hs/ps)`` — the per-bit slope used by
        the break-even denominator in Equation 3.
        """
        overhead = 1.0 + self.header_bits / self.payload_bits
        return self.link_power_w / self.rate_bps * overhead

    def airtime(self, size_bits: float) -> float:
        """Time to clock ``size_bits`` onto the air at this radio's rate."""
        return size_bits / self.rate_bps

    def tx_power_for_range(self, distance_m: float) -> float:
        """Cheapest discrete transmit power whose reach covers ``distance_m``.

        Falls back to the nominal ``p_tx_w`` when the ladder is empty or
        no level reaches far enough (transmitting at full power is the
        only way to even *attempt* an out-of-ladder hop).
        """
        best = None
        for level in self.tx_power_levels:
            if level.range_m >= distance_m:
                if best is None or level.p_tx_w < best:
                    best = level.p_tx_w
        return self.p_tx_w if best is None else best

    def replace(self, **changes: typing.Any) -> "RadioSpec":
        """Return a copy with ``changes`` applied (delegates to dataclasses)."""
        return dataclasses.replace(self, **changes)


def _derived_wakeup_latency(e_wakeup_j: float, p_idle_w: float) -> float:
    return e_wakeup_j / p_idle_w if p_idle_w > 0 else 0.0


# --------------------------------------------------------------------------
# Table 1 — IEEE 802.11 radios (high-power).
# --------------------------------------------------------------------------

CABLETRON = RadioSpec(
    name="Cabletron",
    kind="high",
    rate_bps=mbps_to_bps(2),
    p_tx_w=mw_to_w(1400.0),
    p_rx_w=mw_to_w(1000.0),
    p_idle_w=mw_to_w(830.0),
    e_wakeup_j=mj_to_j(1.328),
    t_wakeup_s=_derived_wakeup_latency(mj_to_j(1.328), mw_to_w(830.0)),
    range_m=250.0,
    payload_bytes=1024,
    header_bytes=34,
)

LUCENT_2 = RadioSpec(
    name="Lucent (2Mbps)",
    kind="high",
    rate_bps=mbps_to_bps(2),
    p_tx_w=mw_to_w(1327.2),
    p_rx_w=mw_to_w(966.9),
    p_idle_w=mw_to_w(843.7),
    e_wakeup_j=mj_to_j(0.6),
    t_wakeup_s=_derived_wakeup_latency(mj_to_j(0.6), mw_to_w(843.7)),
    range_m=250.0,
    payload_bytes=1024,
    header_bytes=34,
)

LUCENT_11 = RadioSpec(
    name="Lucent (11Mbps)",
    kind="high",
    rate_bps=mbps_to_bps(11),
    p_tx_w=mw_to_w(1346.1),
    p_rx_w=mw_to_w(900.6),
    p_idle_w=mw_to_w(739.4),
    e_wakeup_j=mj_to_j(0.6),
    t_wakeup_s=_derived_wakeup_latency(mj_to_j(0.6), mw_to_w(739.4)),
    # Section 2.2: at 11 Mb/s the range is assumed equal to the sensor radio.
    range_m=40.0,
    payload_bytes=1024,
    header_bytes=34,
)

# --------------------------------------------------------------------------
# Table 1 — sensor radios (low-power).
# --------------------------------------------------------------------------

MICA = RadioSpec(
    name="Mica",
    kind="low",
    rate_bps=kbps_to_bps(40),
    p_tx_w=mw_to_w(81.0),
    p_rx_w=mw_to_w(30.0),
    p_idle_w=mw_to_w(30.0),
    range_m=40.0,
    payload_bytes=32,
    header_bytes=8,
)

MICA2 = RadioSpec(
    name="Mica2",
    kind="low",
    rate_bps=kbps_to_bps(38.4),
    p_tx_w=mw_to_w(42.0),
    p_rx_w=mw_to_w(29.0),
    # Table 1 lists Pi as N/A; idle listening costs receive power on CC1000.
    p_idle_w=mw_to_w(29.0),
    range_m=40.0,
    payload_bytes=32,
    header_bytes=8,
)

MICAZ = RadioSpec(
    name="Micaz",
    kind="low",
    rate_bps=kbps_to_bps(250),
    p_tx_w=mw_to_w(51.0),
    p_rx_w=mw_to_w(59.1),
    # Table 1 lists Pi as N/A; idle listening costs receive power on CC2420.
    p_idle_w=mw_to_w(59.1),
    range_m=40.0,
    payload_bytes=32,
    header_bytes=8,
)

#: All Table 1 radios by paper name.
TABLE_1: dict[str, RadioSpec] = {
    spec.name: spec
    for spec in (CABLETRON, LUCENT_2, LUCENT_11, MICA, MICA2, MICAZ)
}

#: The high-power (IEEE 802.11) radios, in Table 1 order.
HIGH_POWER_RADIOS: tuple[RadioSpec, ...] = (CABLETRON, LUCENT_2, LUCENT_11)

#: The low-power (sensor) radios, in Table 1 order.
LOW_POWER_RADIOS: tuple[RadioSpec, ...] = (MICA, MICA2, MICAZ)


def get_spec(name: str) -> RadioSpec:
    """Look up a Table 1 radio by its paper name (case-insensitive).

    Raises
    ------
    KeyError
        If no radio of that name exists, listing the valid names.
    """
    for key, spec in TABLE_1.items():
        if key.lower() == name.lower():
            return spec
    raise KeyError(f"unknown radio {name!r}; expected one of {sorted(TABLE_1)}")
