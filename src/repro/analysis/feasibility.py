"""Feasibility study series (paper Section 2.2, Figures 1–3).

These are closed-form sweeps over the Section 2.1 equations:

* :func:`fig1_energy_vs_size` — energy to move ``s`` bytes one hop, for
  each sensor radio alone and each 802.11+Micaz pairing (Fig. 1's log-log
  curves whose crossings are the break-even points).
* :func:`fig2_breakeven_vs_idle` — ``s*`` as the high-power radios idle
  longer before/after the transfer (Fig. 2).
* :func:`fig3_breakeven_vs_forward_progress` — ``s*`` as one high-power
  hop replaces 1–6 low-power hops (Fig. 3).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.energy.breakeven import (
    DualRadioLink,
    breakeven_bits,
    breakeven_bits_multihop,
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
    RadioSpec,
)
from repro.units import bits_to_kb, kb_to_bits


@dataclasses.dataclass(frozen=True)
class Series:
    """One named curve: x values, y values, and axis labels."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")


def _lin_space(lo: float, hi: float, points: int) -> list[float]:
    """``points`` evenly spaced values from ``lo`` to ``hi`` inclusive:
    ``lo + i * step``, the last exactly ``hi`` (``numpy.linspace``'s
    float arithmetic, so the values match it bit for bit)."""
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points - 1)] + [hi]


def _log_space(start: float, stop: float, points: int) -> list[float]:
    """``points`` log-spaced values from ``start`` to ``stop`` inclusive:
    ten to the power of each :func:`_lin_space` exponent."""
    exponents = _lin_space(math.log10(start), math.log10(stop), points)
    return [10.0 ** e for e in exponents]


def fig1_energy_vs_size(
    sizes_kb: typing.Sequence[float] | None = None,
) -> list[Series]:
    """Fig. 1: energy (mJ) vs data size (KB), single hop.

    Curves: Mica, Mica2, Micaz alone; Cabletron/Lucent-2/Lucent-11 paired
    with Micaz (the paper's dual-radio combinations).
    """
    sizes = list(sizes_kb) if sizes_kb is not None else _log_space(0.1, 10.0, 50)
    series: list[Series] = []
    for spec in (MICA, MICA2, MICAZ):
        energies = [
            energy_low(kb_to_bits(size), spec) * 1e3 for size in sizes
        ]
        series.append(Series(spec.name, tuple(sizes), tuple(energies)))
    for high in (CABLETRON, LUCENT_2, LUCENT_11):
        link = DualRadioLink(low=MICAZ, high=high)
        energies = [
            energy_high(kb_to_bits(size), link) * 1e3 for size in sizes
        ]
        series.append(
            Series(f"{high.name}-Micaz", tuple(sizes), tuple(energies))
        )
    return series


#: The radio pairings Fig. 2 plots.
FIG2_PAIRS: tuple[tuple[RadioSpec, RadioSpec], ...] = (
    (CABLETRON, MICA),
    (CABLETRON, MICA2),
    (LUCENT_2, MICA),
    (LUCENT_2, MICA2),
    (LUCENT_11, MICA),
    (LUCENT_11, MICA2),
    (LUCENT_11, MICAZ),
)


def fig2_breakeven_vs_idle(
    idle_times_s: typing.Sequence[float] | None = None,
) -> list[Series]:
    """Fig. 2: break-even size (KB) vs total high-radio idle time (s)."""
    idles = (
        list(idle_times_s)
        if idle_times_s is not None
        else _log_space(1e-3, 10.0, 50)
    )
    series = []
    for high, low in FIG2_PAIRS:
        points = []
        for idle in idles:
            link = DualRadioLink(low=low, high=high, idle_s=idle)
            points.append(bits_to_kb(breakeven_bits(link)))
        series.append(
            Series(f"{high.name}-{low.name}", tuple(idles), tuple(points))
        )
    return series


#: The radio pairings Fig. 3 plots (the 2 Mb/s radios, which have the range
#: advantage; Lucent 11 Mb/s has sensor-equal range, see Section 2.2).
FIG3_PAIRS: tuple[tuple[RadioSpec, RadioSpec], ...] = (
    (CABLETRON, MICA),
    (CABLETRON, MICA2),
    (CABLETRON, MICAZ),
    (LUCENT_2, MICA),
    (LUCENT_2, MICA2),
    (LUCENT_2, MICAZ),
)


def fig3_breakeven_vs_forward_progress(
    max_hops: int = 6,
) -> list[Series]:
    """Fig. 3: break-even size (KB) vs forward progress (hops).

    Infinite break-even points (infeasible configurations) are reported as
    ``float('inf')`` — the paper's curves simply start at the first
    feasible hop count.
    """
    hops = list(range(1, max_hops + 1))
    series = []
    for high, low in FIG3_PAIRS:
        link = DualRadioLink(low=low, high=high)
        points = [
            bits_to_kb(breakeven_bits_multihop(link, fp)) for fp in hops
        ]
        series.append(
            Series(
                f"{high.name}-{low.name}",
                tuple(float(fp) for fp in hops),
                tuple(points),
            )
        )
    return series


def crossover_table() -> dict[str, float]:
    """Break-even sizes (KB) for the Fig. 1 pairings (inf = infeasible)."""
    out = {}
    for high in (CABLETRON, LUCENT_2, LUCENT_11):
        link = DualRadioLink(low=MICAZ, high=high)
        out[f"{high.name}-Micaz"] = bits_to_kb(breakeven_bits(link))
    return out
