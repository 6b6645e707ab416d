"""The generation stage executor: Continuous Beam Batching + Speculative
Beam Extension (paper Sec. 4.1, Algorithm 1).

One TTS iteration's generation phase runs here as an event-driven decode
loop. Between events the batch composition is constant, so time advances in
*spans* of ``min(remaining)`` lockstep token steps costed by the roofline —
an exact but O(events) simulation of per-token decoding.

Two-phase scheduling (Sec. 4.1.2):

* **Phase 1 — Continuous Beam Batching**: freed slots are refilled from the
  waiting queue of thinking paths belonging to this request (both the
  baseline and FastTTS do this; vLLM's continuous batching provides it).
* **Phase 2 — Speculative Beam Extension** (FastTTS only): when the waiting
  queue is empty, freed slots are filled with speculative continuations of
  already-finished beams, chosen by :class:`~repro.core.spec_select.SelectSpec`.
  Speculation is strictly terminated the moment the last standard beam
  finishes — it can never add tail latency — and is fully preemptible via
  the ``preempt_check`` hook.

Algorithmic equivalence holds by construction: speculative tokens are drawn
from the same keyed streams a future non-speculative execution would use,
and verification never sees them.

Per span the loop touches each slot a fixed number of times: one pass
yields the span length, the speculative-slot count, the context sum and
the segments to grow; ``run`` grows them in one
:meth:`~repro.kvcache.cache.PagedKVCache.extend_segments` call and enters
``_grow_slots`` only on a shortfall, to pick a victim where that call
stopped; one pass retires finished slots.
A sequence is one :class:`_Slot` for the whole round — waiting, running,
preempted back to waiting. An admission burst is pinned by one
:meth:`~repro.kvcache.cache.PagedKVCache.pin_paths` call, which also runs
each slot's admission test against its planned growth (a speculative slot
is a burst of one), and a slot's context length is the hit/recompute split
that call reported, not a second tree walk. What is
fixed for the round is derived once: the speculation byte budget at
construction, and the count of running standard slots by the pass that
retires and admits them (strict termination reads it, not the batch).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.engine.jobs import GenJob, GenOutcome, RoundStats, SpecHeadStart
from repro.engine.telemetry import Phase
from repro.engine.worker import GeneratorWorker
from repro.errors import SchedulingError
from repro.core.spec_select import SelectSpec

__all__ = ["ChildStepPlan", "GenerationRound", "GenerationRoundResult"]

# Resolves (parent lineage, child index) to the child's next-step identity,
# or None when the child cannot exist (e.g. the parent's step was terminal).
ChildPlanner = Callable[[tuple[int, ...], int], "ChildStepPlan | None"]
# Whether a beam's step can have children: when the planner returns plans.
HasChild = Callable[[tuple[int, ...]], bool]


@dataclass(frozen=True, slots=True)
class ChildStepPlan:
    """What a speculative branch would generate for one prospective child."""

    child_lineage: tuple[int, ...]
    segment_id: int
    parent_leaf_segment: int
    n_tokens: int  # positive: the session's child planner checks it


@dataclass(frozen=True, slots=True)
class GenerationRoundResult:
    """Per-beam outcomes plus speculative head starts for the next round."""

    outcomes: dict[tuple[int, ...], GenOutcome]
    head_starts: dict[tuple[int, ...], SpecHeadStart]
    stats: RoundStats


# Batch bookkeeping rows compare by identity (``eq=False``): "is this slot
# still running" / "remove the victim" mean this very slot, and the
# generated field-tuple ``__eq__`` made every ``in`` / ``remove`` a scan of
# field comparisons.
@dataclass(slots=True, eq=False)
class _Slot:
    """One sequence of the round: a standard job waiting for a batch slot
    (again, after a preemption) or occupying one, or a speculative slot."""

    segment: int
    remaining: int
    context_len: int = 0  # path tokens at admission
    progress: int = 0  # decoded in this occupancy
    prior_progress: int = 0  # decoded in an earlier occupancy (preemption)
    job: GenJob | None = None
    spec_parent: tuple[int, ...] | None = None
    spec_child: int = -1
    spec_lineage: tuple[int, ...] | None = None
    is_spec: bool = False  # no job: a speculative continuation


class GenerationRound:
    """Executes one generation stage over an ordered list of jobs."""

    def __init__(
        self,
        worker: GeneratorWorker,
        slot_budget: int,
        speculation: bool = False,
        branching_factor: int = 4,
        child_planner: ChildPlanner | None = None,
        has_child: HasChild | None = None,
        preempt_check: Callable[[], bool] | None = None,
        spec_bandwidth_fraction: float = 0.25,
    ) -> None:
        if slot_budget < 1:
            raise ValueError("slot_budget must be positive")
        if speculation and (child_planner is None or has_child is None):
            raise ValueError("speculation requires a child_planner and has_child")
        if not 0.0 < spec_bandwidth_fraction < math.inf:
            raise ValueError("spec_bandwidth_fraction must be positive and finite")
        self._worker = worker
        self._cache = worker.cache
        self._clock = worker.clock
        self._slot_budget = slot_budget
        self._speculation = speculation
        self._branching = branching_factor
        self._child_planner = child_planner
        self._has_child = has_child
        self._preempt_check = preempt_check
        self._spec_budget_bytes = spec_bandwidth_fraction * worker.model.weight_bytes
        self._kv_bytes_per_token = self._cache.kv_bytes_per_token

    def run(self, jobs: list[GenJob]) -> GenerationRoundResult:
        """Run the round; ``jobs`` must already be in scheduling order."""
        stats = RoundStats()
        outcomes: dict[tuple[int, ...], GenOutcome] = {}
        heads: dict[tuple[int, ...], SpecHeadStart] = {}
        if not jobs:
            return GenerationRoundResult(outcomes, heads, stats)

        clock, cache = self._clock, self._cache
        start_time = clock.now
        waiting: deque[_Slot] = deque([
            _Slot(segment=j.new_segment, remaining=j.remaining_tokens, job=j)
            for j in jobs
        ])
        selector = SelectSpec(self._branching) if self._speculation else None
        running: list[_Slot] = []
        capacity = min(self._slot_budget, max(1, len(jobs)))
        speculation_enabled = self._speculation

        self._admit_standard(waiting, running, outcomes, stats, selector)

        while running:
            if self._preempt_check is not None and self._preempt_check():
                # A new request arrived: Phase 2 halts immediately.
                speculation_enabled = False
                self._kill_spec_slots(running, heads, stats)
                if not running and not waiting:
                    break
                if not running:
                    self._admit_standard(waiting, running, outcomes, stats, selector)
                    continue

            # One pass over the batch: the span length, how much of it is
            # speculative, the context it attends over and what must grow.
            delta = running[0].remaining
            spec_slots = context = 0
            segments = []
            for slot in running:
                if slot.remaining < delta:
                    delta = slot.remaining
                if slot.is_spec:
                    spec_slots += 1
                context += slot.context_len + slot.progress
                segments.append(slot.segment)
            busy = len(running)
            avg_cache = context / busy + delta / 2.0
            span_start = clock.now
            span_dt = self._worker.decode_span(
                n_steps=delta,
                busy_slots=busy,
                capacity_slots=capacity,
                avg_cache_len=avg_cache,
                speculative_slots=spec_slots,
            )
            if stats.first_token_time is None:
                # The span decodes lockstep: its first token lands one
                # per-step latency after the span begins.
                stats.first_token_time = span_start + span_dt / delta
            grown = cache.extend_segments(segments, delta, clock.now)
            if grown == busy:
                for slot in running:
                    slot.progress += delta
                    slot.remaining -= delta
            else:
                self._grow_slots(running, waiting, heads, delta, grown, stats)

            still_running: list[_Slot] = []
            standard = 0
            for slot in running:
                if slot.remaining > 0:
                    still_running.append(slot)
                    if not slot.is_spec:
                        standard += 1
                elif slot.is_spec:
                    self._finish_spec(slot, heads, stats)
                else:
                    stats.decoded_tokens += slot.progress
                    self._finish_standard(
                        slot.job, slot.prior_progress + slot.progress, outcomes, selector
                    )
            running = still_running

            standard += self._admit_standard(waiting, running, outcomes, stats, selector)
            if speculation_enabled and not waiting and selector is not None:
                self._fill_with_speculation(running, selector, stats, capacity)
            if not waiting and running and not standard:
                # All standard beams done: strict speculative termination.
                self._kill_spec_slots(running, heads, stats)

        stats.round_time = clock.now - start_time
        stats.head_starts = list(heads.values())
        return GenerationRoundResult(outcomes, heads, stats)

    # -- admission and slot lifecycle --------------------------------------

    def _admit_standard(
        self,
        waiting: deque[_Slot],
        running: list[_Slot],
        outcomes: dict[tuple[int, ...], GenOutcome],
        stats: RoundStats,
        selector: SelectSpec | None,
    ) -> int:
        """Admit waiting beams into free slots, batching the prefill charge.

        The burst's candidates are the longest prefix of ``waiting`` whose
        slot-taking members fit the free slots; one cache call pins them,
        stopping at the first whose blocks and planned growth do not fit
        (the wave then waits for running beams to drain). All beams
        admitted in one burst share a single batched prefill launch for
        their missing KV (recompute after eviction, prompt prefill on
        round 0) — as vLLM's chunked prefill would. Returns how many slots
        were added to ``running``. Raises if the round is stuck: work
        waiting but nothing running or admitted.
        """
        cache = self._cache
        segments = cache.segments
        free = self._slot_budget - len(running)
        leaves, grow = [], []
        for slot in waiting:
            if free <= 0:
                break
            job = slot.job
            # A head-started tail (last round's speculation) keeps its length.
            tail = segments.get(job.new_segment)
            tail_len = job.head_start if tail is None else tail.token_len
            cache.register_chain(
                job.path_segments + (job.new_segment,),
                job.path_segment_tokens + (tail_len,),
            )
            leaves.append(slot.segment)
            grow.append(slot.remaining)
            if slot.remaining > 0:
                free -= 1
        splits = cache.pin_paths(leaves, self._clock.now, grow) if leaves else []
        burst_slots = 0  # admitted entries that occupy a slot (remaining > 0)
        recomputed, hits, done = [], [], []
        for hit_tokens, recomputed_tokens, evicted in splits:
            slot = waiting.popleft()
            stats.recomputed_tokens += recomputed_tokens
            stats.cache_hit_tokens += hit_tokens
            stats.evicted_segments += evicted
            recomputed.append(recomputed_tokens)
            hits.append(hit_tokens)
            if slot.remaining == 0:
                done.append(slot)
            else:
                # the whole path: every token is a hit or a recompute
                slot.context_len = hit_tokens + recomputed_tokens
                running.append(slot)
                burst_slots += 1
        if splits:
            self._worker.prefill_batch(
                recomputed, hits, phase=Phase.GENERATION, capacity_slots=self._slot_budget
            )
        for slot in done:
            # Step already fully generated: a speculative head start, or a
            # preempted beam whose decode had finished.
            self._finish_standard(slot.job, slot.prior_progress, outcomes, selector)
        if waiting and not running:
            raise SchedulingError(
                "generation round stalled: the generator KV budget cannot "
                "host even one waiting beam"
            )
        return burst_slots

    def _finish_standard(
        self,
        job: GenJob,
        tokens_generated: int,
        outcomes: dict[tuple[int, ...], GenOutcome],
        selector: SelectSpec | None,
    ) -> None:
        """Release the beam's path, record its outcome and — when its
        step can have children — offer it to the speculation selector."""
        self._cache.unpin_path(job.new_segment)
        outcomes[job.lineage] = GenOutcome(
            lineage=job.lineage,
            finish_time=self._clock.now,
            tokens_generated=tokens_generated,
        )
        if selector is not None and self._has_child(job.lineage):
            selector.offer(job.lineage, job.prev_score)

    def _fill_with_speculation(
        self,
        running: list[_Slot],
        selector: SelectSpec,
        stats: RoundStats,
        capacity: int,
    ) -> None:
        """Fill freed slots up to the round's batch width (never beyond:
        the paper's policy maintains a constant batch size) and within the
        marginal-bandwidth cap."""
        assert self._child_planner is not None
        cache = self._cache
        spec_slots = standard_context = 0
        for slot in running:
            if slot.is_spec:
                spec_slots += 1
            else:
                standard_context += slot.context_len + slot.progress
        # Bound speculation by its marginal memory-bandwidth cost. Straggler
        # steps read the weights regardless; a speculative slot only adds
        # its KV traffic. Once the combined speculative KV reads per step
        # approach the weight traffic, speculation starts slowing the
        # straggler it is meant to hide, so slots are capped at
        # ``spec_bandwidth_fraction`` of the weight bytes. At small n this
        # cap is far above the free-slot count and never binds.
        standard = len(running) - spec_slots
        avg_ctx = max(1.0, standard_context / standard) if standard else 512.0
        spec_step_bytes = avg_ctx * self._kv_bytes_per_token
        spec_cap = max(1, int(self._spec_budget_bytes / spec_step_bytes))
        width = min(self._slot_budget, capacity)
        while len(running) < width and spec_slots < spec_cap:
            claim = selector.next_branch()
            if claim is None:
                return
            parent_lineage, child_index = claim
            plan = self._child_planner(parent_lineage, child_index)
            if plan is None:
                continue
            cache.register_segment(plan.segment_id, plan.parent_leaf_segment, 0)
            split = cache.pin_paths(
                (plan.segment_id,), self._clock.now, grow=(plan.n_tokens,)
            )
            if not split:
                continue  # never evict standard work for speculation
            hit_tokens, recomputed_tokens, _ = split[0]
            spec_slots += 1
            running.append(
                _Slot(
                    segment=plan.segment_id,
                    remaining=plan.n_tokens,
                    context_len=hit_tokens + recomputed_tokens,
                    spec_parent=parent_lineage,
                    spec_child=child_index,
                    spec_lineage=plan.child_lineage,
                    is_spec=True,
                )
            )

    def _finish_spec(
        self,
        slot: _Slot,
        heads: dict[tuple[int, ...], SpecHeadStart],
        stats: RoundStats,
    ) -> None:
        assert slot.spec_lineage is not None and slot.spec_parent is not None
        self._cache.unpin_path(slot.segment)
        stats.speculative_tokens += slot.progress
        if slot.progress > 0:
            heads[slot.spec_lineage] = SpecHeadStart(
                parent_lineage=slot.spec_parent,
                child_index=slot.spec_child,
                tokens=slot.progress,
                segment_id=slot.segment,
            )

    def _kill_spec_slots(
        self,
        running: list[_Slot],
        heads: dict[tuple[int, ...], SpecHeadStart],
        stats: RoundStats,
    ) -> None:
        """Terminate speculative slots, keeping partial progress as heads."""
        for slot in running:
            if slot.is_spec:
                self._finish_spec(slot, heads, stats)
        running[:] = [slot for slot in running if not slot.is_spec]

    # -- decode-time KV growth ---------------------------------------------

    def _grow_slots(
        self,
        running: list[_Slot],
        waiting: deque[_Slot],
        heads: dict[tuple[int, ...], SpecHeadStart],
        delta: int,
        grown: int,
        stats: RoundStats,
    ) -> None:
        """Finish a span whose batch grew ``delta`` tokens for only the
        first ``grown`` slots of ``running``, preempting on OOM.

        Victim policy mirrors vLLM recompute-mode preemption: speculative
        slots die first (their progress is kept as a head start), then the
        most recently admitted standard slot is pushed back to the waiting
        queue — its generated text survives, so re-admission recomputes its
        KV via prefill rather than re-decoding. :meth:`run` grows the whole
        batch in one cache call and enters this only on a shortfall; each
        shortfall frees one victim and resumes from the slot that could
        not grow.
        """
        cache, now = self._cache, self._clock.now
        pending = running[:]
        while True:
            for slot in pending[:grown]:
                slot.progress += delta
                slot.remaining -= delta
            if grown == len(pending):
                return
            pending = pending[grown:]
            victim = self._pick_victim(running, pending[0])
            if victim is None:
                raise SchedulingError(
                    "decode batch cannot grow: a single sequence "
                    "exceeds the generator KV budget"
                )
            if victim.is_spec:
                self._finish_spec(victim, heads, stats)
            else:
                self._preempt_standard(victim, waiting, stats)
            running.remove(victim)
            if victim in pending:
                pending.remove(victim)  # preempted before its turn to grow
            grown = cache.extend_segments(
                [slot.segment for slot in pending], delta, now
            )

    def _pick_victim(self, running: list[_Slot], protected: _Slot) -> _Slot | None:
        for slot in reversed(running):
            if slot is not protected and slot.is_spec:
                return slot
        for slot in reversed(running):
            if slot is not protected:
                return slot
        return None

    def _preempt_standard(
        self, slot: _Slot, waiting: deque[_Slot], stats: RoundStats
    ) -> None:
        assert slot.job is not None
        self._cache.unpin_path(slot.segment)
        self._cache.evict_path(slot.segment, now=self._clock.now)
        stats.decoded_tokens += slot.progress  # text exists; KV recomputes
        slot.prior_progress += slot.progress
        slot.progress = 0
        waiting.appendleft(slot)
