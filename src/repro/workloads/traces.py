"""Step-length models fitted to the paper's workload characterization.

Fig. 3 (right) profiles Qwen2.5-Math-1.5B on AIME: the token count of one
thinking step averages roughly 150-250 tokens while outliers reach ~1200,
and this avg-vs-max disparity persists across all step indices. A lognormal
with a hard cap reproduces both the heavy tail and the cap the serving
system imposes (``max_tokens`` per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

from repro.utils.rng import KeyedRng

__all__ = ["StepLengthModel"]


@dataclass(frozen=True, slots=True)
class StepLengthModel:
    """Lognormal step-length distribution with floor and cap.

    ``median_tokens`` is the distribution median (``exp(mu)``), ``sigma``
    the log-space spread. Draws are keyed, so a step's length depends only
    on what is being generated, never on scheduling order.
    """

    median_tokens: float
    sigma: float
    min_tokens: int = 8
    max_tokens: int = 1280

    def __post_init__(self) -> None:
        if self.median_tokens <= 0:
            raise ValueError("median_tokens must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0 < self.min_tokens <= self.max_tokens:
            raise ValueError("need 0 < min_tokens <= max_tokens")

    @property
    def mean_tokens(self) -> float:
        """Uncapped lognormal mean (the cap pulls the realized mean down)."""
        return self.median_tokens * exp(self.sigma**2 / 2.0)

    def sample(self, rng: KeyedRng, *key, cap: int | None = None) -> int:
        """Draw one step length for the addressed key.

        ``cap`` lets a search algorithm impose a tighter per-step budget
        (the Varying Granularity variant does exactly this).
        """
        limit = self.max_tokens if cap is None else min(cap, self.max_tokens)
        if limit < self.min_tokens:
            return max(1, limit)  # the cap alone fixes the answer: no draw
        raw = rng.lognormal("step-len", *key, mean=log(self.median_tokens), sigma=self.sigma)
        return int(min(max(raw, self.min_tokens), limit))
