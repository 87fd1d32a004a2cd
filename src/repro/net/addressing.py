"""Dual-radio address mapping (paper Section 3, sender-side MAC interface).

"BCP needs to be able to map the low-power and high-power radio addresses
for the receiver."  Each node has one address per radio interface; the
:class:`AddressMap` binds them, one-to-one, and answers whether a node
has an address on a given interface.  In the simulator addresses are synthetic but structurally
faithful: sensor interfaces get 16-bit-style short addresses, 802.11
interfaces get EUI-48-style strings, and the lookups BCP performs before a
handshake go through this table exactly as a real implementation's would.
"""

from __future__ import annotations


#: Interface names used throughout the library.
LOW_INTERFACE = "low"
HIGH_INTERFACE = "high"


class AddressMap:
    """One-to-one node-id ↔ per-interface address bindings."""

    def __init__(self) -> None:
        self._by_node: dict[tuple[int, str], str] = {}
        self._by_address: dict[str, tuple[int, str]] = {}

    def register(self, node_id: int, interface: str, address: str) -> None:
        """Bind ``address`` to ``(node_id, interface)``.

        Raises
        ------
        ValueError
            If the node already has an address on that interface or the
            address is already bound elsewhere.
        """
        key = (node_id, interface)
        if key in self._by_node:
            raise ValueError(f"node {node_id} already has a {interface} address")
        if address in self._by_address:
            raise ValueError(f"address {address!r} is already registered")
        self._by_node[key] = address
        self._by_address[address] = key

    def register_node(
        self, node_id: int, has_high_radio: bool = True
    ) -> None:
        """Register synthetic addresses for a node's interfaces."""
        self.register(node_id, LOW_INTERFACE, format_short_address(node_id))
        if has_high_radio:
            self.register(node_id, HIGH_INTERFACE, format_eui48(node_id))

    def has_interface(self, node_id: int, interface: str) -> bool:
        """Whether ``node_id`` has an address on ``interface``."""
        return (node_id, interface) in self._by_node

    def __len__(self) -> int:
        return len(self._by_address)


def format_short_address(node_id: int) -> str:
    """IEEE 802.15.4-style 16-bit short address for sensor interfaces."""
    if not 0 <= node_id <= 0xFFFF:
        raise ValueError(f"node id {node_id} does not fit a short address")
    return f"0x{node_id:04x}"


def format_eui48(node_id: int) -> str:
    """EUI-48-style MAC address for 802.11 interfaces."""
    if not 0 <= node_id <= 0xFFFFFFFF:
        raise ValueError(f"node id {node_id} does not fit the EUI-48 scheme")
    octets = [0x02, 0x11, (node_id >> 24) & 0xFF, (node_id >> 16) & 0xFF,
              (node_id >> 8) & 0xFF, node_id & 0xFF]
    return ":".join(f"{octet:02x}" for octet in octets)
