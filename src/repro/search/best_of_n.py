"""Best-of-N sampling (outcome-reward selection).

The earliest TTS recipe: ``n`` independent chains run to completion, then an
Outcome Reward Model picks the best full solution. There is no intermediate
pruning, so the "selection" stage simply continues every chain, and the
verifier is consulted only on terminal paths (``verifies_steps`` is False —
the serving system skips per-step verification rounds entirely).
"""

from __future__ import annotations

from repro.search.base import Expansion, SearchAlgorithm, SelectionDecision
from repro.search.tree import ReasoningPath
from repro.utils.rng import KeyedRng

__all__ = ["BestOfN"]


class BestOfN(SearchAlgorithm):
    """``n`` independent chains, outcome-scored at the end."""

    name = "best_of_n"
    verifies_steps = False

    def __init__(self, n: int) -> None:
        # Branching factor 1: chains never fork after the root.
        super().__init__(n=n, branching_factor=1)

    def select(
        self,
        active: list[ReasoningPath],
        round_idx: int,
        rng: KeyedRng,
    ) -> SelectionDecision:
        """Every chain survives with exactly one continuation."""
        return SelectionDecision(
            expansions=tuple(Expansion(path=p, n_children=1) for p in active)
        )
