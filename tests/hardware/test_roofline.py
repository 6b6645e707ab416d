"""Tests for the roofline latency model."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.device import DEVICES, DeviceSpec, get_device
from repro.hardware.roofline import Roofline

_GB = 1024**3

device = DeviceSpec("test-dev", vram_bytes=8 * _GB, peak_flops=1e12,
                    mem_bandwidth=1e11)


class TestRoofline:
    def test_compute_bound_point(self):
        # High arithmetic intensity: compute limits.
        point = Roofline(device, efficiency=1.0).point(flops=1e12, num_bytes=1e6)
        assert point.compute_bound
        assert point.latency == pytest.approx(1.0)
        # Zero bytes is infinite intensity: compute binds, no division fails.
        point = Roofline(device, efficiency=1.0).point(flops=1e12, num_bytes=0.0)
        assert point.compute_bound
        assert point.memory_time == 0.0
        assert point.latency == pytest.approx(1.0)

    def test_memory_bound_point(self):
        point = Roofline(device, efficiency=1.0).point(flops=1e6, num_bytes=1e11)
        assert not point.compute_bound
        assert point.latency == pytest.approx(1.0)

    def test_latency_is_max_of_both(self):
        r = Roofline(device, efficiency=1.0)
        point = r.point(flops=5e11, num_bytes=5e10)
        assert point.latency == max(point.compute_time, point.memory_time)

    def test_efficiency_scales_latency(self):
        full = Roofline(device, efficiency=1.0).latency(1e12, 1e6)
        derated = Roofline(device, efficiency=0.5).latency(1e12, 1e6)
        assert derated == pytest.approx(2 * full)

    def test_negative_inputs_raise(self):
        with pytest.raises(ValueError):
            Roofline(device).point(-1.0, 0.0)

    @pytest.mark.parametrize("flops, num_bytes", [
        (0.0, -1.0), (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
    ])
    def test_negative_bytes_and_nan_inputs_raise(self, flops, num_bytes):
        with pytest.raises(ValueError):
            Roofline(device).point(flops, num_bytes)

    @given(
        st.sampled_from(DEVICES.names()),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0, max_value=1e16),
        st.floats(min_value=0, max_value=1e13),
    )
    def test_point_divides_by_the_peaks_derated_once(self, name, efficiency, flops, num_bytes):
        """Deriving the derated peaks at construction moves no float."""
        dev = get_device(name)
        point = Roofline(dev, efficiency).point(flops, num_bytes)
        assert point.compute_time == flops / (dev.peak_flops * efficiency)
        assert point.memory_time == num_bytes / (dev.mem_bandwidth * efficiency)

    def test_bad_efficiency_raises(self):
        with pytest.raises(ValueError):
            Roofline(device, efficiency=0.0)

    @given(
        st.floats(min_value=0, max_value=1e15),
        st.floats(min_value=0, max_value=1e12),
    )
    def test_latency_monotone_in_work(self, flops, num_bytes):
        r = Roofline(get_device("rtx4090"))
        base = r.latency(flops, num_bytes)
        assert r.latency(flops * 2, num_bytes) >= base
        assert r.latency(flops, num_bytes * 2) >= base

    def test_ridge_point_transition(self):
        """Below the ridge intensity memory binds; above it compute binds."""
        r = Roofline(device, efficiency=1.0)
        ridge = device.ridge_intensity
        below = r.point(flops=ridge * 0.5 * 1e6, num_bytes=1e6)
        above = r.point(flops=ridge * 2.0 * 1e6, num_bytes=1e6)
        assert not below.compute_bound
        assert above.compute_bound
