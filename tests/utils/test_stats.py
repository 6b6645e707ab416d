"""Tests for statistics helpers."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import percentile, ratio

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    # Samples never mix 0.0 and -0.0: numpy's partition may order the two
    # either way, so only the sign of such a zero result can differ.
    @given(
        st.lists(
            st.one_of(
                finite_floats,
                st.floats(min_value=0.0, allow_nan=False),
                st.sampled_from([0.0, 5e-324, 1e308, -1e308]),
            ),
            min_size=1, max_size=40,
        ),
        st.one_of(st.sampled_from([0.0, 50.0, 95.0, 100.0]), st.floats(0.0, 100.0)),
    )
    def test_bit_equal_to_numpy(self, values, q):
        values = [v + 0.0 for v in values]  # -0.0 -> 0.0
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN here too
            expected = np.percentile(np.asarray(values), q)
        assert struct.pack("<d", percentile(values, q)) == struct.pack("<d", expected)

    def test_nan_and_inf_follow_numpy(self):
        assert math.isnan(percentile([1.0, math.nan, 2.0], 50))
        with np.errstate(invalid="ignore"):
            for values, q in (([1.0, math.inf], 50), ([1.0, math.inf], 100), ([math.inf], 0)):
                expected = float(np.percentile(values, q))
                got = percentile(values, q)
                assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestRatio:
    def test_normal(self):
        assert ratio(6.0, 3.0) == 2.0

    def test_zero_denominator(self):
        assert ratio(1.0, 0.0) == math.inf

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(ratio(0.0, 0.0))
