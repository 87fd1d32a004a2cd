"""repro — a reproduction of *Improving Energy Conservation Using Bulk
Transmission over High-Power Radios in Sensor Networks* (Sengul, Bakht,
Harris, Abdelzaher, Kravets; ICDCS 2008).

The package provides, from scratch:

* a deterministic discrete-event simulation kernel (:mod:`repro.sim`);
* the paper's energy substrate: Table 1 radio characteristics, energy
  accounting, and the Section 2 break-even analysis (:mod:`repro.energy`);
* radio/channel/MAC/routing substrates for dual-radio sensor networks
  (:mod:`repro.radio`, :mod:`repro.channel`, :mod:`repro.mac`,
  :mod:`repro.net`);
* **BCP**, the Bulk Communication Protocol (:mod:`repro.core`);
* the Section 4 evaluation: the Sensor / 802.11 / Dual-radio models and
  sweep harness (:mod:`repro.models`), and the two-mote prototype
  emulation (:mod:`repro.testbed`);
* analysis, statistics and reporting to regenerate every table and figure
  (:mod:`repro.analysis`, :mod:`repro.stats`, :mod:`repro.report`,
  :mod:`repro.cli`).

Quick start::

    from repro.energy import DualRadioLink, MICAZ, LUCENT_11, breakeven_bits
    link = DualRadioLink(low=MICAZ, high=LUCENT_11)
    print(breakeven_bits(link) / 8, "bytes to break even")

    from repro.models import ScenarioConfig, run_scenario
    result = run_scenario(ScenarioConfig(model="dual", burst_packets=500,
                                         n_senders=10, sim_time_s=300.0))
    print(result.goodput, result.normalized_energy_j_per_kbit())
"""

from repro.core.bcp import BcpAgent
from repro.core.config import BcpConfig
from repro.energy.breakeven import (
    DualRadioLink,
    breakeven_bits,
    breakeven_bits_multihop,
    crossover_bits,
    energy_high,
    energy_low,
)
from repro.energy.radio_specs import (
    CABLETRON,
    LUCENT_2,
    LUCENT_11,
    MICA,
    MICA2,
    MICAZ,
    TABLE_1,
    RadioSpec,
    get_spec,
)
from repro.models.scenario import (
    ScenarioConfig,
    multi_hop_config,
    run_replicated,
    run_scenario,
    single_hop_config,
)
from repro.sim.simulator import Simulator
from repro.stats.metrics import RunResult
from repro.testbed.experiment import (
    PrototypeConfig,
    run_prototype,
    sweep_thresholds,
)

__version__ = "1.0.0"

__all__ = [
    "BcpAgent",
    "BcpConfig",
    "CABLETRON",
    "DualRadioLink",
    "LUCENT_11",
    "LUCENT_2",
    "MICA",
    "MICA2",
    "MICAZ",
    "PrototypeConfig",
    "RadioSpec",
    "RunResult",
    "ScenarioConfig",
    "Simulator",
    "TABLE_1",
    "__version__",
    "breakeven_bits",
    "breakeven_bits_multihop",
    "crossover_bits",
    "energy_high",
    "energy_low",
    "get_spec",
    "multi_hop_config",
    "run_prototype",
    "run_replicated",
    "run_scenario",
    "single_hop_config",
    "sweep_thresholds",
]
