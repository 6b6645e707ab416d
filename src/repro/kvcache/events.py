"""KV cache event accounting.

The hit, recompute and eviction totals feed each solve's
:class:`~repro.metrics.report.ProblemRunResult` (its cache hit rates and
evicted-segment counts). The optional bounded event trace, off unless
``trace_capacity`` is set, is what the cache property tests observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["CacheEventKind", "CacheEvent", "CacheStats"]


class CacheEventKind(str, Enum):
    ALLOCATE = "allocate"
    HIT = "hit"
    EVICT = "evict"
    RECOMPUTE = "recompute"


@dataclass(frozen=True, slots=True)
class CacheEvent:
    """One cache transition, timestamped on the simulation clock."""

    time: float
    kind: CacheEventKind
    segment_id: int
    tokens: int


@dataclass
class CacheStats:
    """Running totals plus an optional bounded trace.

    :class:`~repro.kvcache.cache.PagedKVCache` moves the totals as plain
    field updates at each transition and calls :meth:`record` only when
    ``trace_capacity`` is set, so a cache that traces nothing makes no
    call here.
    """

    hit_tokens: int = 0
    recomputed_tokens: int = 0
    evicted_tokens: int = 0
    evicted_segments: int = 0
    allocated_tokens: int = 0
    trace_capacity: int = 0
    trace: list[CacheEvent] = field(default_factory=list)

    def record(
        self, time: float, kind: CacheEventKind, segment_id: int, tokens: int
    ) -> None:
        """Append one transition's :class:`CacheEvent` while the trace has
        room; the totals are the caller's to move."""
        if len(self.trace) < self.trace_capacity:
            self.trace.append(CacheEvent(time, kind, segment_id, tokens))

    @property
    def hit_rate(self) -> float:
        """Token-weighted prefix hit rate over all materializations."""
        touched = self.hit_tokens + self.recomputed_tokens
        if touched == 0:
            return 0.0
        return self.hit_tokens / touched
