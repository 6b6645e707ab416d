"""Tests for terminal plots."""

import pytest

from repro.utils.ascii_plot import series_plot


class TestSeriesPlot:
    def test_markers_present(self):
        out = series_plot({"up": [1, 2, 3, 4], "down": [4, 3, 2, 1]})
        assert "U" in out and "D" in out
        assert "U=up" in out and "D=down" in out

    def test_extremes_on_border_rows(self):
        out = series_plot({"line": [0.0, 10.0]}, height=5)
        lines = out.splitlines()
        assert "L" in lines[0]   # max row
        assert "L" in lines[4]   # min row

    def test_flat_series_safe(self):
        out = series_plot({"flat": [2.0, 2.0, 2.0]})
        assert "F" in out

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            series_plot({"a": [1, 2], "b": [1, 2, 3]})

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            series_plot({"a": [1.0]})

    def test_empty(self):
        with pytest.raises(ValueError):
            series_plot({})

    def test_height_validation(self):
        with pytest.raises(ValueError):
            series_plot({"a": [1, 2]}, height=1)
