"""The verification stage executor with LookAhead Verification (Sec. 4.1.3).

A discriminative PRM scores each active path after its newest step: one
batched prefill per group of ``B_pre`` paths. The verifier keeps its own
paged KV cache, so a path whose prefix survived since the last iteration
only prefills the new step; an evicted prefix is recomputed — the cost the
baseline's static memory split pays constantly.

LookAhead Verification exploits speculation: when the previous generation
round fully pre-generated a beam's next step, that step is concatenated
into the *current* verifier request. Its score lands in the score cache,
and if the search selects that child, the next iteration's verification of
it is free (and its KV is already resident — the locality win the paper
credits for the 75-85% verifier latency reduction).

Each flush batch of ``B_pre`` jobs is pinned by one
:meth:`~repro.kvcache.cache.PagedKVCache.pin_paths` call, each lookahead
leaf right after its job's. A lookahead that does not fit is skipped (the
job never fails for it); a job that does not fit flushes the batch before
it and heads the next one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.jobs import RoundStats, VerifyJob
from repro.engine.worker import VerifierWorker
from repro.errors import CapacityError
from repro.llm.verifier import SimulatedPRM
from repro.workloads.problem import Problem

__all__ = ["VerificationRound", "VerificationRoundResult"]

ScoreKey = tuple[tuple[int, ...], int]  # (lineage, step_idx)


@dataclass(frozen=True, slots=True)
class VerificationRoundResult:
    """Scores for this round plus pre-computed lookahead scores."""

    scores: dict[tuple[int, ...], float]
    lookahead_scores: dict[ScoreKey, float]
    stats: RoundStats


class VerificationRound:
    """Executes one verification stage over an ordered list of jobs."""

    def __init__(
        self,
        worker: VerifierWorker,
        prm: SimulatedPRM,
        batch_size: int,
        lookahead: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._worker = worker
        self._cache = worker.cache
        self._clock = worker.clock
        self._prm = prm
        self._batch_size = batch_size
        self._lookahead = lookahead

    def run(
        self,
        problem: Problem,
        jobs: list[VerifyJob],
        score_cache: dict[ScoreKey, float] | None = None,
    ) -> VerificationRoundResult:
        """Score all jobs, consulting and extending the score cache."""
        stats = RoundStats()
        scores: dict[tuple[int, ...], float] = {}
        lookahead_scores: dict[ScoreKey, float] = {}
        cache_in = score_cache or {}
        start_time = self._clock.now

        to_compute: list[VerifyJob] = []
        for job in jobs:
            cached = cache_in.get((job.lineage, job.step_idx))
            if cached is not None:
                scores[job.lineage] = cached
            else:
                to_compute.append(job)

        done = 0
        while done < len(to_compute):
            batch = self._pin_batch(to_compute[done : done + self._batch_size])
            self._flush(problem, batch, scores, lookahead_scores, stats)
            done += len(batch)

        stats.round_time = self._clock.now - start_time
        return VerificationRoundResult(scores, lookahead_scores, stats)

    # -- internals ---------------------------------------------------------

    def _pin_batch(self, jobs: list[VerifyJob]) -> list[tuple[VerifyJob, int, int, bool]]:
        """Pin a flush batch's paths, as the module docstring says. Returns
        ``(job, missing_tokens, hit_tokens, lookahead_ok)`` per pinned job:
        a prefix of ``jobs``, shorter under cache pressure."""
        cache = self._cache
        leaves: list[int] = []
        owners: list[VerifyJob | None] = []  # None: the previous job's lookahead
        for job in jobs:
            cache.register_chain(
                job.path_segments + (job.new_segment,),
                job.path_segment_tokens + (job.new_tokens,),
            )
            leaves.append(job.new_segment)
            owners.append(job)
            lookahead = job.lookahead_segment
            if self._lookahead and lookahead is not None and job.lookahead_tokens > 0:
                cache.register_segment(lookahead, job.new_segment, job.lookahead_tokens)
                leaves.append(lookahead)
                owners.append(None)
        batch: list[tuple[VerifyJob, int, int, bool]] = []
        pinned = 0
        while pinned < len(leaves):
            splits = cache.pin_paths(leaves[pinned:], now=self._clock.now)
            for owner, (hits, missing, _) in zip(owners[pinned:], splits):
                if owner is None:
                    job, job_missing, job_hits, _ = batch[-1]
                    batch[-1] = (job, job_missing + missing, job_hits + hits, True)
                else:
                    batch.append((owner, missing, hits, False))
            pinned += len(splits)
            if pinned < len(leaves):
                if owners[pinned] is None:
                    pinned += 1  # skip the lookahead under pressure
                elif batch:
                    break  # cache pressure: flush, then retry the job
                else:
                    raise CapacityError(
                        "a single verification request exceeds the verifier KV budget"
                    )
        return batch

    def _flush(
        self,
        problem: Problem,
        batch: list[tuple[VerifyJob, int, int, bool]],
        scores: dict[tuple[int, ...], float],
        lookahead_scores: dict[ScoreKey, float],
        stats: RoundStats,
    ) -> None:
        """Run one batched prefill and emit scores."""
        token_counts, cached_lens = [], []
        for _, missing, hits, _ in batch:
            token_counts.append(missing)
            cached_lens.append(hits)
        self._worker.prefill_batch(token_counts, cached_lens,
                                   capacity_slots=self._batch_size)
        stats.prefilled_tokens += sum(token_counts)
        stats.cache_hit_tokens += sum(cached_lens)
        for job, _, _, lookahead_ok in batch:
            scores[job.lineage] = self._prm.score_step(
                problem, job.lineage, job.step_idx, job.mean_soundness
            )
            self._cache.release_tail(job.new_segment)
            if lookahead_ok and job.lookahead_child is not None:
                lookahead_scores[(job.lookahead_child, job.step_idx + 1)] = (
                    self._prm.score_step(
                        problem,
                        job.lookahead_child,
                        job.step_idx + 1,
                        job.lookahead_soundness,
                    )
                )
                self._cache.release_tail(job.lookahead_segment)
