"""Utilization summaries over telemetry spans (Fig. 4, Fig. 17 left)."""

from __future__ import annotations

from typing import Sequence

from repro.engine.telemetry import Phase, UtilSpan

__all__ = ["mean_phase_utilization", "decay_ratio"]


def mean_phase_utilization(spans: Sequence[UtilSpan], phase: Phase) -> float:
    """Time-weighted mean occupancy for one phase."""
    selected = [s for s in spans if s.phase is phase]
    total = sum(s.duration for s in selected)
    if total == 0:
        return 0.0
    return sum(s.utilization * s.duration for s in selected) / total


def decay_ratio(spans: Sequence[UtilSpan], phase: Phase) -> float:
    """Occupancy at the end of the phase relative to its start.

    The baseline's generation phase decays toward ~1/capacity as stragglers
    drain (Fig. 4 left); speculation keeps this ratio near 1 (Fig. 17).
    """
    selected = sorted((s for s in spans if s.phase is phase), key=lambda s: s.t_start)
    if not selected:
        return 0.0
    first = selected[0].utilization
    last = selected[-1].utilization
    if first == 0:
        return 0.0
    return last / first
