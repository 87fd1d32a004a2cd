"""BCP — the Bulk Communication Protocol (the paper's core contribution).

* :class:`BcpAgent` — the per-node protocol engine.
* :class:`BcpConfig` — thresholds, timeouts, flow control, shortcuts.
* :class:`BulkBuffer` — per-next-hop data buffering.
* :mod:`~repro.core.fragmentation` — burst assembly.
* :mod:`~repro.core.messages` — WAKEUP / WAKEUP-ACK and their envelope.
"""

from repro.core.bcp import BcpAgent, BcpNodeSpec, BcpStats
from repro.core.buffer import BulkBuffer
from repro.core.config import RULE_OF_THUMB_THRESHOLD_BYTES, BcpConfig
from repro.core.fragmentation import BurstFragment, assemble_burst
from repro.core.messages import (
    CONTROL_PAYLOAD_BITS,
    CONTROL_PAYLOAD_BYTES,
    ControlEnvelope,
    Wakeup,
    WakeupAck,
    new_session_id,
)

__all__ = [
    "BcpAgent",
    "BcpConfig",
    "BcpNodeSpec",
    "BcpStats",
    "BulkBuffer",
    "BurstFragment",
    "CONTROL_PAYLOAD_BITS",
    "CONTROL_PAYLOAD_BYTES",
    "ControlEnvelope",
    "RULE_OF_THUMB_THRESHOLD_BYTES",
    "Wakeup",
    "WakeupAck",
    "assemble_burst",
    "new_session_id",
]
