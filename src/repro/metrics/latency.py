"""Completion latency and its generator/verifier breakdown (Fig. 13)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["LatencyBreakdown", "mean_breakdown"]


@dataclass(frozen=True, slots=True)
class LatencyBreakdown:
    """End-to-end seconds for one request, split by phase."""

    total: float
    generation: float
    verification: float
    swap: float = 0.0

    def __post_init__(self) -> None:
        for name in ("total", "generation", "verification", "swap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def accounted(self) -> float:
        return self.generation + self.verification + self.swap

    def to_json_dict(self) -> dict:
        """Plain-data form for the on-disk result cache (exact floats)."""
        return {
            "total": self.total,
            "generation": self.generation,
            "verification": self.verification,
            "swap": self.swap,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LatencyBreakdown":
        return cls(
            total=payload["total"],
            generation=payload["generation"],
            verification=payload["verification"],
            swap=payload.get("swap", 0.0),
        )


def mean_breakdown(breakdowns: Iterable[LatencyBreakdown]) -> LatencyBreakdown:
    """Arithmetic mean per component over a non-empty collection."""
    items = list(breakdowns)
    if not items:
        raise ValueError("cannot average an empty collection of breakdowns")
    n = len(items)
    return LatencyBreakdown(
        total=sum(b.total for b in items) / n,
        generation=sum(b.generation for b in items) / n,
        verification=sum(b.verification for b in items) / n,
        swap=sum(b.swap for b in items) / n,
    )
