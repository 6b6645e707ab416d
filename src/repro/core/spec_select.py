"""SelectSPEC: speculative-candidate selection (paper Sec. 4.1.1).

When a beam finishes its step early and the waiting queue is empty, its
slot can speculate. Verifier scores between consecutive steps correlate, so
the *previous* step's score is a zero-overhead proxy for whether the search
will keep the beam — and therefore whether speculative work on its children
will be useful.

The policy partitions scores into ``B`` equal bins (``B`` = the search's
branching factor); a beam whose score lands in bin ``C_j`` (``C_1`` highest)
has speculative potential ``M_i = B - j + 1``: an upper bound on how many
child continuations it may pre-generate, and its scheduling priority. Slots
are filled lazily from the highest-potential finished beams.
"""

from __future__ import annotations

import heapq

__all__ = ["speculative_potential", "SelectSpec"]

_DEFAULT_SCORE = 0.5  # first round has no verifier history: middle bin


def speculative_potential(score: float | None, branching_factor: int) -> int:
    """``M_i`` for a beam with previous-step ``score`` under ``B`` bins."""
    if branching_factor < 1:
        raise ValueError("branching_factor must be positive")
    s = _DEFAULT_SCORE if score is None else score
    if not 0.0 <= s <= 1.0:
        raise ValueError("scores live in [0, 1]")
    bin_j = min(branching_factor, int((1.0 - s) * branching_factor) + 1)
    return branching_factor - bin_j + 1


class SelectSpec:
    """Priority allocator of freed slots to speculative branches.

    :attr:`heap` holds ``(-potential, arrival, candidate)``: descending
    potential, then FIFO arrival (unique, so candidates never compare).
    A candidate is a finished beam's ``[lineage, potential, branches
    started]``, a list so claiming branches counts in place. It leaves
    when its last branch is claimed, so the heap is non-empty exactly when
    a branch is left to claim; a decode round reads it to decide whether
    to enter its speculation fill at all.
    """

    def __init__(self, branching_factor: int) -> None:
        if branching_factor < 1:
            raise ValueError("branching_factor must be positive")
        self._branching = branching_factor
        self.heap: list[tuple[int, int, list]] = []
        self._arrivals = 0

    def offer(self, lineage: tuple[int, ...], prev_score: float | None) -> None:
        """Register a newly finished beam as a speculative candidate."""
        # :func:`speculative_potential`, inline: one call per finished beam.
        branching = self._branching
        s = _DEFAULT_SCORE if prev_score is None else prev_score
        if not 0.0 <= s <= 1.0:
            raise ValueError("scores live in [0, 1]")
        potential = branching - min(branching, int((1.0 - s) * branching) + 1) + 1
        arrival = self._arrivals
        self._arrivals = arrival + 1
        heapq.heappush(self.heap, (-potential, arrival, [lineage, potential, 0]))

    def claim(self, k: int) -> list[tuple[tuple[int, ...], int]]:
        """Claim up to ``k`` speculative slots, ``(parent lineage, child
        index)`` pairs in claim order: a candidate gives its next children
        up to its ``M_i``, then the next in heap order takes over. Fewer
        than ``k`` means no candidate has potential left."""
        heap = self.heap
        claims: list[tuple[tuple[int, ...], int]] = []
        while k > 0 and heap:
            candidate = heap[0][2]
            lineage, potential, started = candidate
            end = min(potential, started + k)
            for child_index in range(started, end):
                claims.append((lineage, child_index))
            k -= end - started
            if end >= potential:
                heapq.heappop(heap)
            else:
                candidate[2] = end
        return claims

    def __len__(self) -> int:
        return len(self.heap)
