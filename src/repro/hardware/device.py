"""Device specifications for the edge GPUs used in the paper's evaluation.

The paper evaluates on a single NVIDIA RTX 4090 (24 GB) as the primary edge
platform (Sec. 6.1) and extends to an RTX 3070 Ti (8 GB) and RTX 4070 Ti
(12 GB) in Sec. 6.4. Cloud-class devices are included as references for the
Fig. 1 comparison. Peak numbers are dense FP16 tensor throughput and peak
DRAM bandwidth from vendor datasheets; the roofline model (Sec. 4.3.1 of
the paper) only consumes these two scalars plus VRAM capacity. Specs are
registered by name in :data:`DEVICES`, a
:class:`~repro.utils.registry.Registry`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.registry import Registry

__all__ = ["DeviceSpec", "DEVICES", "get_device"]

_GB = 1024**3


@dataclass(frozen=True, slots=True)
class DeviceSpec:
    """Static description of one accelerator.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"rtx4090"``.
    vram_bytes:
        Total device memory.
    peak_flops:
        Dense FP16 tensor throughput in FLOP/s.
    mem_bandwidth:
        Peak DRAM bandwidth in bytes/s.
    pcie_bandwidth:
        Effective host<->device transfer bandwidth in bytes/s, used by the
        KV-offloading strategy (Sec. 4.3.2).
    reserved_fraction:
        Fraction of VRAM reserved for CUDA graphs, activations and other
        intermediate state (Fig. 9), unavailable to weights or KV cache.
    """

    name: str
    vram_bytes: int
    peak_flops: float
    mem_bandwidth: float
    pcie_bandwidth: float = 25.0e9
    reserved_fraction: float = 0.08

    def __post_init__(self) -> None:
        if self.vram_bytes <= 0:
            raise ValueError("vram_bytes must be positive")
        if self.peak_flops <= 0 or self.mem_bandwidth <= 0:
            raise ValueError("peak_flops and mem_bandwidth must be positive")
        if not 0.0 <= self.reserved_fraction < 1.0:
            raise ValueError("reserved_fraction must be in [0, 1)")

    @property
    def usable_bytes(self) -> int:
        """VRAM available to model weights and KV cache."""
        return int(self.vram_bytes * (1.0 - self.reserved_fraction))

    @property
    def ridge_intensity(self) -> float:
        """Arithmetic intensity (FLOP/byte) where the roofline bends."""
        return self.peak_flops / self.mem_bandwidth


DEVICES: Registry[DeviceSpec] = Registry("device")


def get_device(name: str) -> DeviceSpec:
    """Look up a device by registry key."""
    return DEVICES[name]


# -- The paper's evaluation platforms (Sec. 6.1, 6.4) -----------------------

RTX_4090 = DeviceSpec(
    name="rtx4090",
    vram_bytes=24 * _GB,
    peak_flops=165.2e12,
    mem_bandwidth=1008.0e9,
)

RTX_4070_TI = DeviceSpec(
    name="rtx4070ti",
    vram_bytes=12 * _GB,
    peak_flops=80.1e12,
    mem_bandwidth=504.0e9,
)

RTX_3070_TI = DeviceSpec(
    name="rtx3070ti",
    vram_bytes=8 * _GB,
    peak_flops=43.5e12,
    mem_bandwidth=608.0e9,
)

# Cloud reference points for the Fig. 1 comparison.
A100_80GB = DeviceSpec(
    name="a100-80gb",
    vram_bytes=80 * _GB,
    peak_flops=312.0e12,
    mem_bandwidth=2039.0e9,
    pcie_bandwidth=55.0e9,
)

H100_SXM = DeviceSpec(
    name="h100-sxm",
    vram_bytes=80 * _GB,
    peak_flops=989.0e12,
    mem_bandwidth=3350.0e9,
    pcie_bandwidth=55.0e9,
)

for _spec in (RTX_4090, RTX_4070_TI, RTX_3070_TI, A100_80GB, H100_SXM):
    DEVICES.register(_spec.name, _spec)
