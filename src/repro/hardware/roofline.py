"""Roofline latency model (paper Sec. 4.3.1).

The paper estimates the latency of one batch in each stage as::

    T_roof = max(FLOPs / P, Bytes / BW)

where ``P`` is the device's peak compute and ``BW`` its peak memory
bandwidth. The same model drives this reproduction's simulated clock: every
engine step is costed by the roofline over the FLOPs/bytes of the batch it
executes, which is what makes decode memory-bound (weight reads dominate)
and prefill compute-bound — the asymmetry behind Fig. 6 and the asymmetric
memory allocator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.device import DeviceSpec

__all__ = ["Roofline", "RooflinePoint"]


@dataclass(frozen=True, slots=True)
class RooflinePoint:
    """One costed operation: where it lands on the roofline."""

    flops: float
    bytes: float
    compute_time: float
    memory_time: float

    @property
    def latency(self) -> float:
        """The roofline latency: max of compute-bound and memory-bound time."""
        return max(self.compute_time, self.memory_time)

    @property
    def compute_bound(self) -> bool:
        """True when compute, not bandwidth, limits this operation."""
        return self.compute_time >= self.memory_time


class Roofline:
    """Latency estimator bound to one device.

    An optional ``efficiency`` factor (0, 1] derates both peaks uniformly to
    model achievable rather than theoretical throughput; it scales all
    latencies equally and therefore never changes any comparison this
    library makes. The derated :attr:`peak` (FLOP/s) and :attr:`bandwidth`
    (B/s) are derived once, here. :meth:`point` and :meth:`batched_point`
    are the analysis API (allocator, figures, reports); a worker's launch
    divides by the two constants itself (``ModelWorker._charge``).
    """

    def __init__(self, device: DeviceSpec, efficiency: float = 0.6) -> None:
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        self._device = device
        self._efficiency = efficiency
        self._peak = device.peak_flops * efficiency
        self._bandwidth = device.mem_bandwidth * efficiency

    @property
    def device(self) -> DeviceSpec:
        return self._device

    @property
    def efficiency(self) -> float:
        return self._efficiency

    @property
    def peak(self) -> float:
        return self._peak

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    def point(self, flops: float, num_bytes: float) -> RooflinePoint:
        """Cost one operation, returning the full roofline breakdown."""
        if not (flops >= 0 and num_bytes >= 0):
            raise ValueError("flops and bytes must be non-negative")
        return RooflinePoint(
            flops=flops,
            bytes=num_bytes,
            compute_time=flops / self._peak,
            memory_time=num_bytes / self._bandwidth,
        )

    def latency(self, flops: float, num_bytes: float) -> float:
        """Shorthand for ``point(...).latency``."""
        return self.point(flops, num_bytes).latency

    def batched_point(
        self,
        flops: float,
        num_bytes: float,
        shared_bytes: float,
        occupancy: int,
    ) -> RooflinePoint:
        """Cost one member of an ``occupancy``-wide co-scheduled batch step.

        ``shared_bytes`` is traffic the whole batch issues once per step —
        the weight read, for a decode or prefill launch — so each member
        is billed its ``1/occupancy`` share of it, while the rest of
        ``num_bytes`` (per-member KV reads and writes) and all FLOPs stay
        fully charged. Summed over the members, a batch step therefore
        reads the weights once and everything else in proportion to
        occupancy — the continuous-batching amortization. ``occupancy=1``
        degenerates to :meth:`point` exactly.
        """
        if occupancy < 1:
            raise ValueError("occupancy must be >= 1")
        if shared_bytes < 0:
            raise ValueError("shared_bytes must be non-negative")
        if occupancy == 1:
            return self.point(flops, num_bytes)
        shared = min(shared_bytes, num_bytes)
        return self.point(flops, (num_bytes - shared) + shared / occupancy)
