"""Unit tests for the ASCII visualization helpers."""

import pytest

from repro.analysis.visualize import bar_chart, series_panel, sparkline
from repro.errors import ConfigurationError


class TestVisualize:
    def test_sparkline_shape(self):
        spark = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert len(spark) == 8
        assert spark[0] == "▁" and spark[-1] == "█"

    def test_sparkline_constant_flat(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_sparkline_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            sparkline([])

    def test_bar_chart_scales_to_max(self):
        chart = bar_chart({"a": 10.0, "b": 5.0}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5
        assert "10.00" in lines[0]

    def test_bar_chart_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            bar_chart({"a": -1.0})

    def test_series_panel_alignment(self):
        panel = series_panel(
            {"MSOA": [1.0, 1.2, 1.1], "DA": [1.0, 1.05, 1.02]},
            x_label="microservices",
        )
        assert "MSOA" in panel and "DA" in panel
        assert "microservices" in panel

    def test_series_panel_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            series_panel({"a": [1.0], "b": [1.0, 2.0]})
