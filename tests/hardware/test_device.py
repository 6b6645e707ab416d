"""Tests for the device registry."""

import pytest

from repro.errors import UnknownNameError
from repro.hardware.device import (
    DEVICES,
    DeviceSpec,
    get_device,
)

_GB = 1024**3


class TestDeviceSpec:
    def test_usable_bytes_excludes_reserved(self):
        spec = DeviceSpec("x", vram_bytes=10 * _GB, peak_flops=1e12,
                          mem_bandwidth=1e11, reserved_fraction=0.1)
        assert spec.usable_bytes == int(10 * _GB * 0.9)

    def test_ridge_intensity(self):
        spec = DeviceSpec("x", vram_bytes=_GB, peak_flops=2e12, mem_bandwidth=1e12)
        assert spec.ridge_intensity == 2.0

    def test_rejects_nonpositive_vram(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", vram_bytes=0, peak_flops=1.0, mem_bandwidth=1.0)

    def test_rejects_bad_reserved_fraction(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", vram_bytes=1, peak_flops=1.0, mem_bandwidth=1.0,
                       reserved_fraction=1.0)


class TestRegistry:
    def test_paper_devices_present(self):
        for name in ("rtx4090", "rtx4070ti", "rtx3070ti", "a100-80gb", "h100-sxm"):
            assert name in DEVICES.names()

    def test_rtx4090_is_24gb(self):
        assert get_device("rtx4090").vram_bytes == 24 * _GB

    def test_edge_vram_ordering(self):
        assert (
            get_device("rtx3070ti").vram_bytes
            < get_device("rtx4070ti").vram_bytes
            < get_device("rtx4090").vram_bytes
        )

    def test_unknown_device_raises(self):
        with pytest.raises(UnknownNameError):
            get_device("rtx9090")

    def test_unknown_device_suggests_nearest(self):
        with pytest.raises(UnknownNameError) as excinfo:
            get_device("rtx409")
        assert "did you mean 'rtx4090'?" in str(excinfo.value)
        assert "registered: a100-80gb" in str(excinfo.value)

    def test_register_idempotent(self):
        spec = get_device("rtx4090")
        assert DEVICES.register(spec.name, spec) is spec

    def test_register_conflict_raises(self):
        conflicting = DeviceSpec("rtx4090", vram_bytes=1 * _GB,
                                 peak_flops=1.0, mem_bandwidth=1.0)
        with pytest.raises(ValueError):
            DEVICES.register(conflicting.name, conflicting)
