"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.channel.medium import Medium
from repro.energy.meter import MeterBank
from repro.energy.radio_specs import LUCENT_11, MICAZ
from repro.mac.csma import SensorCsmaMac
from repro.mac.dcf import DcfMac
from repro.radio.radio import HighPowerRadio, LowPowerRadio
from repro.sim.simulator import Simulator
from repro.topology.layout import grid_layout, line_layout


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=12345)


@pytest.fixture
def small_grid():
    """A 2×2 grid with 40 m spacing (orthogonal neighbors connected)."""
    return grid_layout(2, 2, 40.0)


@pytest.fixture
def three_line():
    """Three nodes in a line, 40 m apart (0-1-2; 0 and 2 out of range)."""
    return line_layout(3, 40.0)


class LowStack:
    """A complete low-power stack (radios + MACs) over one medium."""

    def __init__(self, sim: Simulator, layout, spec=MICAZ, loss=None):
        self.sim = sim
        self.layout = layout
        self.medium = Medium(sim, layout, name="low", loss=loss)
        bank = MeterBank(len(layout))
        self.meters = {n: bank.meter(n) for n in layout.node_ids}
        self.radios = {
            n: LowPowerRadio(sim, n, spec, self.medium, self.meters[n])
            for n in layout.node_ids
        }
        self.macs = {n: SensorCsmaMac(sim, self.radios[n]) for n in layout.node_ids}


class HighStack:
    """A complete high-power stack (radios + MACs) over one medium."""

    def __init__(self, sim: Simulator, layout, spec=LUCENT_11, loss=None):
        self.sim = sim
        self.layout = layout
        self.medium = Medium(sim, layout, name="high", loss=loss)
        bank = MeterBank(len(layout))
        self.meters = {n: bank.meter(n) for n in layout.node_ids}
        self.radios = {
            n: HighPowerRadio(sim, n, spec, self.medium, self.meters[n])
            for n in layout.node_ids
        }
        self.macs = {n: DcfMac(sim, self.radios[n]) for n in layout.node_ids}


@pytest.fixture
def low_stack(sim, three_line) -> LowStack:
    """Low-power stack on the three-node line."""
    return LowStack(sim, three_line)


@pytest.fixture
def high_stack(sim, three_line) -> HighStack:
    """High-power stack on the three-node line."""
    return HighStack(sim, three_line)
