"""Sweep orchestration: matrix structure and figure views."""

import pytest

from repro.models.sweeps import (
    LABEL_SENSOR,
    LABEL_WIFI,
    SweepScale,
    dual_label,
    energy_delay_points,
    energy_rows,
    goodput_rows,
    run_sweep,
)
from repro.runner import SweepRunner


@pytest.fixture(scope="module")
def tiny_sweep():
    scale = SweepScale(senders=(3, 5), bursts=(10, 100), n_runs=1,
                       sim_time_s=40.0)
    return run_sweep("SH", scale, rate_bps=2000.0)


class TestSweepStructure:
    def test_labels(self, tiny_sweep):
        assert tiny_sweep.labels() == [
            "DualRadio-10",
            "DualRadio-100",
            LABEL_SENSOR,
            LABEL_WIFI,
        ]

    def test_sender_counts(self, tiny_sweep):
        assert tiny_sweep.sender_counts() == [3, 5]

    def test_dual_label(self):
        assert dual_label(500) == "DualRadio-500"

    def test_invalid_case(self):
        with pytest.raises(ValueError):
            run_sweep("XX")

    def test_progress_callback(self):
        # Progress comes from the runner: one event per cell, labelled
        # with the cell's case, label and sender count.
        events = []
        run_sweep(
            "SH",
            SweepScale(senders=(2,), bursts=(10,), n_runs=1, sim_time_s=5.0),
            include_wifi=False,
            include_sensor=False,
            runner=SweepRunner(progress=events.append),
        )
        assert [(e.completed, e.total) for e in events] == [(1, 1)]
        assert events[0].description.startswith("SH: DualRadio-10 senders=2 ")


class TestFigureViews:
    def test_goodput_rows_complete(self, tiny_sweep):
        rows = goodput_rows(tiny_sweep)
        assert set(rows) == set(tiny_sweep.labels())
        for per_count in rows.values():
            assert set(per_count) == {3, 5}
            assert all(0.0 <= v <= 1.0 for v in per_count.values())

    def test_energy_rows_split_sensor_variants(self, tiny_sweep):
        rows = energy_rows(tiny_sweep)
        assert "Sensor-ideal" in rows
        assert "Sensor-header" in rows
        assert LABEL_WIFI not in rows  # paper excludes 802.11 from energy
        for count in (3, 5):
            assert rows["Sensor-header"][count] >= rows["Sensor-ideal"][count]

    def test_energy_delay_points_per_sender_count(self, tiny_sweep):
        points = energy_delay_points(tiny_sweep)
        assert set(points) == {3, 5}
        for line in points.values():
            bursts = [burst for burst, _d, _e in line]
            assert bursts == sorted(bursts) == [10, 100]


class TestScalePresets:
    def test_paper_scale(self):
        scale = SweepScale.paper()
        assert scale.senders == (5, 10, 15, 20, 25, 30, 35)
        assert scale.sim_time_s == 5000.0
        assert scale.n_runs == 20
        assert scale.bursts == (10, 100, 500, 1000, 2500)

    def test_smoke_scale(self):
        assert SweepScale.smoke().n_runs == 1
