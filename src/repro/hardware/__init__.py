"""Hardware substrate: device specs, roofline model, lane KV ledger, offload."""

from repro.hardware.device import (
    A100_80GB,
    DEVICES,
    H100_SXM,
    RTX_3070_TI,
    RTX_4070_TI,
    RTX_4090,
    DeviceSpec,
    get_device,
)
from repro.hardware.memory import (
    KVLedger,
    KVSegment,
    SharedKVLedger,  # alias of KVLedger, kept only for benchmarks/perf
)
from repro.hardware.offload import OffloadLink
from repro.hardware.roofline import Roofline, RooflinePoint

__all__ = [
    "DeviceSpec",
    "DEVICES",
    "get_device",
    "RTX_4090",
    "RTX_4070_TI",
    "RTX_3070_TI",
    "A100_80GB",
    "H100_SXM",
    "Roofline",
    "RooflinePoint",
    "KVLedger",
    "KVSegment",
    "SharedKVLedger",
    "OffloadLink",
]
