"""Execution telemetry: GPU-utilization spans and per-phase time accounting.

Stands in for the paper's Nsight Systems traces (Fig. 4, Fig. 17 left): the
simulator knows exactly how many batch slots are busy at every instant, so
utilization is recorded as piecewise-constant spans. There is no tracker:
a solve-path session keeps a plain ``list[UtilSpan]``, and its workers' one
billing method (:meth:`~repro.engine.worker.ModelWorker._charge`) appends
each launch of positive duration to it. Fleet sessions keep no launch log
(their workers hold ``None``): no fleet metric reads one, and a drain would
otherwise retain a span per launch of every request it served.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Phase", "UtilSpan", "PhaseTimer", "TokenCounters"]


class Phase(str, Enum):
    GENERATION = "generation"
    VERIFICATION = "verification"
    SWAP = "swap"


@dataclass(frozen=True, slots=True)
class UtilSpan:
    """One interval of constant batch occupancy."""

    t_start: float
    t_end: float
    busy_slots: int
    capacity_slots: int
    phase: Phase
    speculative_slots: int = 0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def utilization(self) -> float:
        if self.capacity_slots == 0:
            return 0.0
        return self.busy_slots / self.capacity_slots


@dataclass
class PhaseTimer:
    """Accumulated simulated seconds per execution phase."""

    totals: dict[Phase, float] = field(default_factory=dict)

    def add(self, phase: Phase, dt: float) -> None:
        if not dt >= 0:
            raise ValueError("dt must be non-negative")
        self.totals[phase] = self.totals.get(phase, 0.0) + dt

    def get(self, phase: Phase) -> float:
        return self.totals.get(phase, 0.0)

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def clear(self) -> None:
        self.totals.clear()


@dataclass(slots=True)
class TokenCounters:
    """Where generated tokens ended up — feeds the goodput analysis.

    ``committed`` tokens are part of a beam's accepted reasoning;
    ``speculative_used`` were generated speculatively and later adopted as a
    head start; ``speculative_wasted`` were discarded at round end.
    """

    committed: int = 0
    speculative_used: int = 0
    speculative_wasted: int = 0
    recomputed: int = 0

    @property
    def speculation_efficiency(self) -> float:
        spec = self.speculative_used + self.speculative_wasted
        if spec == 0:
            return 0.0
        return self.speculative_used / spec
