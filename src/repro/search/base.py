"""The abstract verifier-guided search pattern (paper Sec. 3.1).

Every mainstream TTS method is a two-stage loop — *generate* a step for
each active beam, *verify* and select which beams continue — differing only
in the selection heuristic and per-step generation budget. This module
fixes that contract so serving backends (baseline vLLM-style or FastTTS)
are interchangeable underneath any algorithm, which is also how the
library's algorithmic-equivalence tests are built.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import itemgetter

from repro.search.tree import ReasoningPath
from repro.utils.rng import KeyedRng

__all__ = ["Expansion", "SelectionDecision", "SearchAlgorithm"]


@dataclass(frozen=True, slots=True)
class Expansion:
    """One surviving beam and how many children it spawns."""

    path: ReasoningPath
    n_children: int

    def __post_init__(self) -> None:
        if self.n_children < 1:
            raise ValueError("a kept beam spawns at least one child")


@dataclass(frozen=True, slots=True)
class SelectionDecision:
    """The verification stage's output: who survives, who branches."""

    expansions: tuple[Expansion, ...]

    @property
    def total_children(self) -> int:
        return sum(e.n_children for e in self.expansions)


class SearchAlgorithm(ABC):
    """A TTS method, expressed inside the common two-stage loop.

    Subclasses must be pure: selection may depend only on the supplied
    paths/scores and the keyed RNG, never on wall time or iteration order,
    so that two serving backends drive identical searches.

    ``n``, ``branching_factor`` and ``verifies_steps`` are plain
    attributes (a session reads them every round); the first two are set
    once, checked, by ``__init__``, and nothing writes them afterwards.
    """

    name: str = "abstract"
    #: Whether the PRM scores every intermediate step (False for BoN).
    verifies_steps: bool = True

    def __init__(self, n: int, branching_factor: int = 4) -> None:
        if n < 1:
            raise ValueError("n (total beam budget) must be positive")
        if branching_factor < 1:
            raise ValueError("branching_factor must be positive")
        #: Total beam budget (the paper's x-axis ``n``).
        self.n = n
        #: ``B`` — also the bin count for SelectSPEC (Sec. 4.1.1).
        self.branching_factor = branching_factor

    def initial_width(self) -> int:
        """How many root beams the search starts with."""
        return self.n

    def step_cap(self, round_idx: int) -> int | None:
        """Per-step token budget for this round (None = dataset default)."""
        return None

    @abstractmethod
    def select(
        self,
        active: list[ReasoningPath],
        round_idx: int,
        rng: KeyedRng,
    ) -> SelectionDecision:
        """Choose survivors and branch counts from scored active paths.

        ``active`` contains only non-terminal, freshly scored paths.
        """

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def ranked(paths: list[ReasoningPath]) -> list[ReasoningPath]:
        """Paths sorted by :meth:`ReasoningPath.sort_key`: score descending
        with deterministic tie-break.

        The tie-break (a lineage hash) orders equal scores only, so it is
        derived only when two scores tie.
        """
        # ``path.final_score``, inlined: one read per path, not a call.
        scores = [path.scores[-1] if path.scores else 0.0 for path in paths]
        if len(set(scores)) < len(scores):
            return sorted(paths, key=lambda p: p.sort_key())
        ranked = sorted(zip(scores, paths), key=itemgetter(0), reverse=True)
        return [path for _, path in ranked]

    def keep_count(self, n_active: int) -> int:
        """Default survivor count: budget / branching factor (at least 1)."""
        return max(1, min(n_active, self.n // self.branching_factor))
