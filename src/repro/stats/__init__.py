"""Metrics, confidence intervals and run summaries."""

from repro.stats.collector import SinkCollector
from repro.stats.confidence import Estimate, mean_confidence
from repro.stats.metrics import (
    ENERGY_HIGH_RADIO,
    ENERGY_LOW_RADIO,
    ENERGY_SENSOR_FULL,
    ENERGY_SENSOR_HEADER,
    ENERGY_SENSOR_IDEAL,
    ENERGY_TOTAL,
    RunResult,
    j_per_bit_to_j_per_kbit,
    merge_counters,
)
from repro.stats.summary import ReplicatedSummary, summarize_runs
from repro.stats.summation import ltr_sum

__all__ = [
    "ENERGY_HIGH_RADIO",
    "ENERGY_LOW_RADIO",
    "ENERGY_SENSOR_FULL",
    "ENERGY_SENSOR_HEADER",
    "ENERGY_SENSOR_IDEAL",
    "ENERGY_TOTAL",
    "Estimate",
    "ReplicatedSummary",
    "RunResult",
    "SinkCollector",
    "j_per_bit_to_j_per_kbit",
    "ltr_sum",
    "mean_confidence",
    "merge_counters",
    "summarize_runs",
]
