"""The Section 4 evaluation models and scenario harness."""

from repro.models.forwarding import ForwardingAgent
from repro.models.sweeps import (
    LABEL_SENSOR,
    LABEL_WIFI,
    SweepCell,
    SweepData,
    SweepScale,
    dual_label,
    energy_delay_points,
    energy_rows,
    goodput_rows,
    run_sweep,
)
from repro.models.scenario import (
    MODEL_DUAL,
    MODEL_SENSOR,
    MODEL_WIFI,
    Network,
    PAPER_BURST_SIZES,
    PAPER_SENDER_COUNTS,
    RadioAssignment,
    ScenarioConfig,
    build_network,
    multi_hop_config,
    run_replicated,
    run_scenario,
    select_senders,
    single_hop_config,
)

__all__ = [
    "ForwardingAgent",
    "MODEL_DUAL",
    "MODEL_SENSOR",
    "MODEL_WIFI",
    "Network",
    "PAPER_BURST_SIZES",
    "PAPER_SENDER_COUNTS",
    "RadioAssignment",
    "ScenarioConfig",
    "build_network",
    "multi_hop_config",
    "run_replicated",
    "run_scenario",
    "select_senders",
    "single_hop_config",
]
