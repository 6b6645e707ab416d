"""Structured serving traces: one event per scheduling decision.

The paper's artifact emits JSONL logs per run (Appendix B.2). This module
provides the equivalent: a :class:`SolveTrace` collects round-level events
(generation rounds with wave/speculation stats, verification rounds with
batch/cache stats, offload swaps) and renders them as JSONL, the format
the solve goldens pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceEvent", "SolveTrace"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped scheduling event."""

    time: float
    kind: str
    round_idx: int
    payload: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"time": round(self.time, 6), "kind": self.kind,
                  "round": self.round_idx, **self.payload}
        return json.dumps(record, sort_keys=True)


class SolveTrace:
    """Append-only event log for one problem's solve."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def record(self, time: float, kind: str, round_idx: int, **payload: Any) -> None:
        """Append one event (payload values must be JSON-compatible)."""
        self._events.append(
            TraceEvent(time=time, kind=kind, round_idx=round_idx, payload=payload)
        )

    def to_jsonl(self) -> str:
        """All events as a JSONL string."""
        return "\n".join(e.to_json() for e in self._events)
