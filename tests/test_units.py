"""Unit-conversion helpers."""

import pytest

from repro import units


def test_mw_roundtrip():
    assert units.w_to_mw(units.mw_to_w(830.0)) == pytest.approx(830.0)


def test_mj_roundtrip():
    assert units.j_to_mj(units.mj_to_j(1.328)) == pytest.approx(1.328)


def test_kbps_to_bps():
    assert units.kbps_to_bps(250) == 250_000


def test_mbps_to_bps():
    assert units.mbps_to_bps(11) == 11_000_000


def test_kb_uses_binary_kilobytes():
    assert units.kb_to_bits(1) == 8192
    assert units.bits_to_kb(8192) == 1.0
