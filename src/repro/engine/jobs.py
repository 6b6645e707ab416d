"""Job records exchanged between the server loop and the workers.

A *generation job* asks the generator worker to extend one beam by its next
thinking step; a *verification job* asks the verifier worker to score a
path after its newest step. Both carry the KV-segment lineage needed for
cache residency decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GenJob", "VerifyJob", "RoundStats"]


@dataclass(slots=True)
class GenJob:
    """Extend one beam by one thinking step.

    Attributes
    ----------
    lineage:
        The beam's full lineage (also its RNG identity).
    path_segments:
        Segment ids root->leaf for everything already generated (prompt and
        prior steps). These must be resident before decoding.
    new_segment:
        Segment id for the step being generated.
    step_tokens:
        Full planned token count of this step.
    head_start:
        Tokens already generated speculatively in the previous round; only
        ``step_tokens - head_start`` remain to decode.
    prev_score:
        The beam's verifier score from the previous step, the zero-overhead
        speculation priority proxy (paper Sec. 4.1.1). ``None`` on the
        first round.
    remaining_tokens:
        ``step_tokens - head_start``: what is left to decode. Derived once
        when the job is built, so a read is a slot, not a call.
    """

    lineage: tuple[int, ...]
    path_segments: tuple[int, ...]
    path_segment_tokens: tuple[int, ...]
    new_segment: int
    step_tokens: int
    head_start: int = 0
    prev_score: float | None = None
    remaining_tokens: int = field(init=False)

    def __post_init__(self) -> None:
        if self.step_tokens <= 0:
            raise ValueError("step_tokens must be positive")
        if not 0 <= self.head_start <= self.step_tokens:
            raise ValueError("head_start must be within [0, step_tokens]")
        if len(self.path_segments) != len(self.path_segment_tokens):
            raise ValueError("path_segments and path_segment_tokens must align")
        if not self.path_segments:
            raise ValueError("a job always has at least the prompt segment")
        self.remaining_tokens = self.step_tokens - self.head_start


@dataclass(slots=True)
class VerifyJob:
    """Score one path after its newest step.

    ``lookahead_segment``/``lookahead_tokens`` carry a fully speculated next
    step to be scored in the same request (LookAhead Verification,
    Sec. 4.1.3); ``lookahead_child`` names the prospective child lineage the
    pre-computed score belongs to.
    """

    lineage: tuple[int, ...]
    step_idx: int
    path_segments: tuple[int, ...]
    path_segment_tokens: tuple[int, ...]
    new_segment: int
    new_tokens: int
    mean_soundness: float
    lookahead_child: tuple[int, ...] | None = None
    lookahead_segment: int | None = None
    lookahead_tokens: int = 0
    lookahead_soundness: float = 0.0

    def __post_init__(self) -> None:
        if self.new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        if self.lookahead_tokens < 0:
            raise ValueError("lookahead_tokens must be non-negative")
        if len(self.path_segments) != len(self.path_segment_tokens):
            raise ValueError("path_segments and path_segment_tokens must align")
        if not self.path_segments:
            raise ValueError("a job always has at least the prompt segment")


@dataclass(slots=True)
class RoundStats:
    """Aggregate accounting for one generation or verification round."""

    round_time: float = 0.0
    recomputed_tokens: int = 0
    decoded_tokens: int = 0
    speculative_tokens: int = 0
    prefilled_tokens: int = 0
    cache_hit_tokens: int = 0
    #: Clock time (on the round's worker clock) at which the round's first
    #: decoded token materialized; None when the round decoded nothing.
    #: The fleet's TTFT metric reads this off a session's first round.
    first_token_time: float | None = None
