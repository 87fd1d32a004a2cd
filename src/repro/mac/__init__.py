"""MAC layers: frames, timing presets, CSMA (sensor) and DCF (802.11)."""

from repro.mac.base import ContentionMac
from repro.mac.csma import SensorCsmaMac
from repro.mac.dcf import DcfMac
from repro.mac.frames import BROADCAST, Frame, FrameKind, make_ack
from repro.mac.timing import MacParams, dcf_params, sensor_csma_params

__all__ = [
    "BROADCAST",
    "ContentionMac",
    "DcfMac",
    "Frame",
    "FrameKind",
    "MacParams",
    "SensorCsmaMac",
    "dcf_params",
    "make_ack",
    "sensor_csma_params",
]
