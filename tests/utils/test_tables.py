"""Tests for ASCII table rendering."""

import pytest

from repro.utils.tables import format_bytes, render_table


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512.00B"

    def test_gib(self):
        assert format_bytes(3 * 1024**3) == "3.00GiB"


class TestRenderTable:
    def test_round_trip(self):
        out = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        assert "name" in out and "bb" in out and "22" in out
        lines = out.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.startswith("My Table")

    def test_numeric_right_aligned(self):
        out = render_table(["v"], [[1], [100]])
        row_one = [line for line in out.splitlines() if "| " in line][-2]
        assert row_one.endswith("  1 |")

    def test_float_formatting(self):
        out = render_table(["v"], [[1.23456]])
        assert "1.235" in out

    def test_integral_float_shown_as_int(self):
        out = render_table(["v"], [[4.0]])
        assert " 4 " in out

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_empty_headers_raise(self):
        with pytest.raises(ValueError):
            render_table([], [])

    def test_no_rows_ok(self):
        out = render_table(["a"], [])
        assert "a" in out
