"""A simple battery model for lifetime extrapolation.

The paper motivates dual radios with node *lifetime* (weeks to months).
:class:`Battery` converts a measured average power draw into a projected
lifetime and supports draining against a capacity, which the examples use to
translate normalized-energy wins into "days of deployment" terms.
"""

from __future__ import annotations

#: Energy content of a pair of AA alkaline cells (~2 × 2850 mAh × 1.5 V),
#: the standard mote power source.
AA_PAIR_CAPACITY_J = 2 * 2.850 * 1.5 * 3600.0


class BatteryDepleted(Exception):
    """Raised when a drain request exceeds the remaining charge."""


class Battery:
    """Finite energy reservoir.

    Parameters
    ----------
    capacity_j:
        Total energy in joules (defaults to a pair of AA cells).
    """

    def __init__(self, capacity_j: float = AA_PAIR_CAPACITY_J):
        if capacity_j <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_j!r}")
        self.capacity_j = capacity_j
        self.remaining_j = capacity_j

    @property
    def fraction_remaining(self) -> float:
        """Remaining charge as a fraction of capacity in [0, 1]."""
        return self.remaining_j / self.capacity_j

    def drain(self, joules: float) -> None:
        """Remove ``joules`` from the battery.

        Raises
        ------
        BatteryDepleted
            If less than ``joules`` remain; the battery is left untouched so
            callers can decide how to handle node death.
        ValueError
            If ``joules`` is negative.
        """
        if joules < 0:
            raise ValueError(f"cannot drain negative energy {joules!r}")
        if joules > self.remaining_j:
            raise BatteryDepleted(
                f"requested {joules:.3f} J with {self.remaining_j:.3f} J left"
            )
        self.remaining_j -= joules

    def try_drain(self, joules: float) -> bool:
        """Remove up to ``joules``, clamping at empty; True when depleted.

        The non-throwing counterpart of :meth:`drain` for the fault
        injector's death path: an overdraw consumes whatever charge was
        left (the final partial joule is accounted, not lost to an
        exception) and leaves the battery exactly at zero.

        Raises
        ------
        ValueError
            If ``joules`` is negative.
        """
        if joules < 0:
            raise ValueError(f"cannot drain negative energy {joules!r}")
        remaining = self.remaining_j - joules
        self.remaining_j = remaining if remaining > 0.0 else 0.0
        return self.remaining_j <= 0.0

    def lifetime_s(self, average_power_w: float) -> float:
        """Projected lifetime of the *remaining* charge at a constant draw."""
        if average_power_w <= 0:
            return float("inf")
        return self.remaining_j / average_power_w

    def lifetime_days(self, average_power_w: float) -> float:
        """Projected lifetime in days at a constant draw."""
        return self.lifetime_s(average_power_w) / 86400.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Battery {self.remaining_j:.0f}/{self.capacity_j:.0f} J "
            f"({self.fraction_remaining:.1%})>"
        )
