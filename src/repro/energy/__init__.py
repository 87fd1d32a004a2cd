"""Energy substrate: radio characteristics, accounting, break-even analysis.

* :mod:`repro.energy.radio_specs` — Table 1 of the paper in SI units.
* :mod:`repro.energy.meter` — per-category energy accounting.
* :mod:`repro.energy.breakeven` — Equations 1–5 (the paper's Section 2.1).
* :mod:`repro.energy.battery` — lifetime extrapolation.
* :mod:`repro.energy.residual` — flush-then-read live residual queries.
"""

from repro.energy.battery import AA_PAIR_CAPACITY_J, Battery, BatteryDepleted
from repro.energy.breakeven import (
    DEFAULT_WAKEUP_MESSAGE_BYTES,
    DualRadioLink,
    breakeven_bits,
    breakeven_bits_multihop,
    crossover_bits,
    energy_high,
    energy_high_multihop,
    energy_low,
    energy_low_multihop,
)
from repro.energy.meter import (
    CATEGORY_IDLE,
    CATEGORY_OVERHEAR,
    CATEGORY_RX,
    CATEGORY_SLEEP,
    CATEGORY_TX,
    CATEGORY_WAKEUP,
    MeterBank,
    NodeMeter,
    PowerIntegrator,
)
from repro.energy.radio_specs import (
    CABLETRON,
    FIRST_ORDER_RADIO_MODEL,
    HIGH_POWER_RADIOS,
    LOW_POWER_RADIOS,
    LUCENT_2,
    LUCENT_11,
    MICA,
    MICA2,
    MICAZ,
    TABLE_1,
    TX_POWER_LEVELS,
    RadioEnergyModel,
    RadioSpec,
    TxPowerLevel,
    get_spec,
)
from repro.energy.residual import live_consumed_j, live_residual_fraction

__all__ = [
    "AA_PAIR_CAPACITY_J",
    "Battery",
    "BatteryDepleted",
    "CABLETRON",
    "CATEGORY_IDLE",
    "CATEGORY_OVERHEAR",
    "CATEGORY_RX",
    "CATEGORY_SLEEP",
    "CATEGORY_TX",
    "CATEGORY_WAKEUP",
    "DEFAULT_WAKEUP_MESSAGE_BYTES",
    "DualRadioLink",
    "FIRST_ORDER_RADIO_MODEL",
    "HIGH_POWER_RADIOS",
    "LOW_POWER_RADIOS",
    "LUCENT_11",
    "LUCENT_2",
    "MICA",
    "MICA2",
    "MICAZ",
    "MeterBank",
    "NodeMeter",
    "PowerIntegrator",
    "RadioEnergyModel",
    "RadioSpec",
    "TABLE_1",
    "TX_POWER_LEVELS",
    "TxPowerLevel",
    "breakeven_bits",
    "breakeven_bits_multihop",
    "crossover_bits",
    "energy_high",
    "energy_high_multihop",
    "energy_low",
    "energy_low_multihop",
    "get_spec",
    "live_consumed_j",
    "live_residual_fraction",
]
