"""The generation stage executor: Continuous Beam Batching + Speculative
Beam Extension (paper Sec. 4.1, Algorithm 1).

One TTS iteration's generation phase runs here as an event loop. Between
events the batch composition is constant, so time advances in *spans* of
lockstep token steps costed by the roofline: an exact simulation of
per-token decoding whose work follows its events (a beam joins, finishes
or crosses a KV block), not the batch width.

Two-phase scheduling (Sec. 4.1.2):

* **Phase 1 — Continuous Beam Batching**: freed slots are refilled from the
  waiting queue of thinking paths belonging to this request (both the
  baseline and FastTTS do this; vLLM's continuous batching provides it).
* **Phase 2 — Speculative Beam Extension** (FastTTS only): when the waiting
  queue is empty, freed slots are filled with speculative continuations of
  already-finished beams, chosen by :class:`~repro.core.spec_select.SelectSpec`.
  Speculation is strictly terminated the moment the last standard beam
  finishes — it can never add tail latency — and is fully preemptible: it
  halts at the first span that starts at or after ``preempt_at``.

Algorithmic equivalence holds by construction: speculative tokens are drawn
from the same keyed streams a future non-speculative execution would use,
and verification never sees them.

The round keeps one lockstep *offset*. A running slot stores the offsets
at which it joined and at which it finishes; its progress and remaining
are derived from them, so no span advances a slot. The next span ends at
the smallest finish offset, the top of a heap keyed ``(finish offset,
admission number)``, and the context sum and the standard count that
price a span and cap speculation move when a slot joins or leaves. Work
happens only at events:

* *finish*: after a span only the slots whose finish offset is its end
  leave, popped in admission order (the batch's order), each settled
  inline; admission is entered only when beams wait, and the speculation
  fill only when a slot is free and the selector holds a candidate;
* *block crossing*: a tail gains one token per offset, so it crosses a
  KV block boundary at every offset of one residue mod the block size;
  the running tails sit in one bucket per residue, and a span's one
  :meth:`~repro.kvcache.cache.PagedKVCache.grow_span` call takes blocks
  for the tails of the residues it covers, in batch order;
* *leave*: a tail writes its length, LRU stamp and change mark when it
  leaves (:meth:`~repro.kvcache.cache.PagedKVCache.release_tail`). Each
  span reserves one stamp per admission number in its batch, so a tail's
  stamp is the span's base plus its admission number, in the order the
  eager per-span stamps had.

A span whose crossings cannot find blocks even by evicting settles every
running tail where that span stopped, then runs the one shortfall loop
(``_grow_slots``), which grows the batch a segment at a time and preempts
victims; the books are rebuilt from what it leaves running.

A sequence is one :class:`_Slot` for the whole round — waiting, running,
preempted back to waiting. An admission burst is pinned by one
:meth:`~repro.kvcache.cache.PagedKVCache.pin_paths` call, which also runs
each slot's admission test against its planned growth, and a slot's
context length is the hit/recompute split that call reported, not a second
tree walk. A speculation fill is a burst too: one claim of as many
branches as there is room, and one ``pin_paths(..., heads=True)`` call
that registers every planned head and admits each branch on its own, so a
refused branch does not end the burst. The speculation byte budget is
derived once, at construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from repro.engine.jobs import GenJob, RoundStats
from repro.engine.telemetry import Phase
from repro.engine.worker import GeneratorWorker
from repro.errors import SchedulingError
from repro.core.spec_select import SelectSpec

__all__ = ["ChildStepPlan", "GenerationRound", "GenerationRoundResult"]

# Resolves (parent lineage, child index) to the child's next-step identity
# — a ``ChildStepPlan`` or a plain tuple of its fields — or None when the
# child cannot exist (e.g. the parent's step was terminal).
ChildPlanner = Callable[[tuple[int, ...], int], "ChildStepPlan | tuple | None"]
# Whether a beam's step can have children: when the planner returns plans.
HasChild = Callable[[tuple[int, ...]], bool]


class ChildStepPlan(NamedTuple):
    """What a speculative branch would generate for one prospective child."""

    child_lineage: tuple[int, ...]
    segment_id: int
    parent_leaf_segment: int
    n_tokens: int  # positive: the session's child planner checks it


@dataclass(frozen=True, slots=True)
class GenerationRoundResult:
    """Each standard beam's finish time, and head starts by child lineage:
    ``(tokens, segment_id)``, the speculative tokens pre-generated for the
    child and the KV segment holding them."""

    finished_at: dict[tuple[int, ...], float]
    head_starts: dict[tuple[int, ...], tuple[int, int]]
    stats: RoundStats


# Batch bookkeeping rows compare by identity (``eq=False``): "is this slot
# still running" / "remove the victim" mean this very slot, and the
# generated field-tuple ``__eq__`` made every ``in`` / ``remove`` a scan of
# field comparisons.
@dataclass(slots=True, eq=False)
class _Slot:
    """One sequence of the round: a standard job waiting for a batch slot
    (again, after a preemption) or occupying one, or a speculative slot.

    While it runs, its progress is ``offset - joined`` and it finishes at
    offset ``finish``; ``progress`` and ``remaining`` are written only
    at construction and by the shortfall loop. Its tail held ``tail_len``
    tokens at offset ``synced``, the last time its length was written.
    """

    segment: int
    remaining: int
    context_len: int = 0  # path tokens at admission
    progress: int = 0  # decoded in this occupancy
    job: GenJob | None = None
    spec_lineage: tuple[int, ...] | None = None  # its head start's key
    is_spec: bool = False  # no job: a speculative continuation
    seq: int = -1  # admission number while running, else -1
    joined: int = 0
    finish: int = 0
    synced: int = 0
    tail_len: int = 0


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
        preempt_at: float = math.inf,
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
        self._preempt_at = preempt_at
        self._spec_budget_bytes = spec_bandwidth_fraction * worker.model.weight_bytes
        self._kv_bytes_per_token = self._cache.kv_bytes_per_token
        self._block_tokens = self._cache.pool.block_tokens
        # The event loop's books, reset by :meth:`run`: the lockstep
        # offset, the last span's stamp base, the next admission number,
        # the finish heap of ``(offset, admission number, slot)`` (an
        # entry whose slot left since is skipped), the running slots'
        # ``(admission number, slot)`` pairs by admission number in one
        # bucket per block-crossing residue (see :meth:`run`), and the sums of ``context_len - joined`` over the
        # running (standard) slots, with the running standard count.
        self._offset = self._stamp_base = self._admitted = 0
        self._finishes: list[tuple[int, int, _Slot]] = []
        self._crossings: list[dict[int, tuple[int, _Slot]]] = []
        self._context = self._standard_context = self._standard = 0

    def run(self, jobs: list[GenJob]) -> GenerationRoundResult:
        """Run the round; ``jobs`` must already be in scheduling order."""
        stats = RoundStats()
        finished_at: dict[tuple[int, ...], float] = {}
        heads: dict[tuple[int, ...], tuple[int, int]] = {}
        if not jobs:
            return GenerationRoundResult(finished_at, heads, stats)

        clock, cache, worker = self._clock, self._cache, self._worker
        start_time = clock.now
        waiting: deque[_Slot] = deque([
            _Slot(segment=j.new_segment, remaining=j.remaining_tokens, job=j)
            for j in jobs
        ])
        selector = SelectSpec(self._branching) if self._speculation else None
        has_child, preempt_at = self._has_child, self._preempt_at
        block_tokens = self._block_tokens
        running: list[_Slot] = []
        capacity = min(self._slot_budget, max(1, len(jobs)))
        speculation_enabled = self._speculation
        self._offset = self._stamp_base = self._admitted = 0
        finishes = self._finishes
        finishes.clear()
        crossings = self._crossings = []
        for _ in range(block_tokens):
            crossings.append({})
        self._context = self._standard_context = self._standard = 0

        self._admit_standard(waiting, running, finished_at, stats, selector)

        while running:
            if speculation_enabled and clock.now >= preempt_at:
                # A new request arrived: Phase 2 halts immediately.
                speculation_enabled = False
                self._kill_spec_slots(running, heads, stats)
                if not running and not waiting:
                    break
                if not running:
                    self._admit_standard(waiting, running, finished_at, stats, selector)
                    continue

            while finishes[0][1] != finishes[0][2].seq:
                heappop(finishes)  # its slot left before finishing
            offset = self._offset
            end = finishes[0][0]
            delta = end - offset
            busy = len(running)
            span_start = clock.now
            span_dt = worker.decode_span(
                n_steps=delta,
                busy_slots=busy,
                capacity_slots=capacity,
                avg_cache_len=(self._context + busy * offset) / busy + delta / 2.0,
                speculative_slots=busy - self._standard,
            )
            if stats.first_token_time is None:
                # The span decodes lockstep: its first token lands one
                # per-step latency after the span begins.
                stats.first_token_time = span_start + span_dt / delta

            # Blocks for the tails that cross a boundary inside the span, in
            # batch order. A tail gains one token per offset, so it crosses
            # at every offset of one residue mod the block size, which
            # files it in that residue's bucket for as long as it runs.
            crossed = []
            if delta < block_tokens:
                for residue in range(offset + 1, end + 1):
                    crossed += crossings[residue % block_tokens].values()
            else:  # every tail crosses
                for bucket in crossings:
                    crossed += bucket.values()
            crossed.sort()  # ``(admission number, slot)``: batch order
            grows = []
            for _, slot in crossed:
                grows.append((slot.segment, slot.tail_len + end - slot.synced))
            first = running[0].seq
            stamp_base = cache.access_clock + 1 - first
            grown = cache.grow_span(
                grows, delta, delta * busy, running[-1].seq + 1 - first, clock.now
            )
            if grown == len(grows):
                self._offset, self._stamp_base = end, stamp_base
            else:
                self._shortfall(running, waiting, heads, stats, crossed[grown][1], delta)

            # Retire the slots that finish at the span's end: a standard
            # beam records its finish time, a speculative one its head start.
            now, stamp_base = clock.now, self._stamp_base
            while finishes and finishes[0][0] == end:
                _, seq, slot = heappop(finishes)
                if slot.seq != seq:
                    continue
                slot.seq = -1
                running.remove(slot)
                del crossings[(slot.synced + 1 - slot.tail_len) % block_tokens][seq]
                cache.release_tail(slot.segment, end - slot.synced, stamp_base + seq)
                progress = end - slot.joined
                self._context -= slot.context_len - slot.joined
                if slot.is_spec:
                    stats.speculative_tokens += progress
                    heads[slot.spec_lineage] = (progress, slot.segment)
                    continue
                self._standard -= 1
                self._standard_context -= slot.context_len - slot.joined
                stats.decoded_tokens += progress
                job = slot.job
                finished_at[job.lineage] = now
                if selector is not None and has_child(job.lineage):
                    selector.offer(job.lineage, job.prev_score)

            if waiting:
                self._admit_standard(waiting, running, finished_at, stats, selector)
            if (
                speculation_enabled and not waiting
                and len(running) < capacity and selector.heap
            ):
                self._fill_with_speculation(running, selector, capacity)
            if not waiting and running and not self._standard:
                # All standard beams done: strict speculative termination.
                self._kill_spec_slots(running, heads, stats)

        stats.round_time = clock.now - start_time
        return GenerationRoundResult(finished_at, heads, stats)

    # -- admission and slot lifecycle --------------------------------------

    def _admit_standard(
        self,
        waiting: deque[_Slot],
        running: list[_Slot],
        finished_at: dict[tuple[int, ...], float],
        stats: RoundStats,
        selector: SelectSpec | None,
    ) -> None:
        """Admit waiting beams into free slots, batching the prefill charge.

        The burst's candidates are the longest prefix of ``waiting`` whose
        slot-taking members fit the free slots; one cache call pins them,
        stopping at the first whose blocks and planned growth do not fit
        (the wave then waits for running beams to drain). All beams
        admitted in one burst share a single batched prefill launch for
        their missing KV (recompute after eviction, prompt prefill on
        round 0) — as vLLM's chunked prefill would. Each admitted beam
        joins ``running`` at the current offset, filed in the finish heap
        and its crossing bucket; one admitted already finished (a full
        head start, or a preempted beam whose decode had finished) is
        released and its finish time recorded at once. Raises if the round
        is stuck: work waiting but nothing running or admitted.
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
            tail_len = slot.tail_len = job.head_start if tail is None else tail.token_len
            cache.register_chain(
                job.path_segments + (job.new_segment,),
                job.path_segment_tokens + (tail_len,),
            )
            leaves.append(slot.segment)
            grow.append(slot.remaining)
            if slot.remaining > 0:
                free -= 1
        splits = cache.pin_paths(leaves, self._clock.now, grow) if leaves else []
        offset, admitted = self._offset, self._admitted
        finishes, crossings, block_tokens = self._finishes, self._crossings, self._block_tokens
        context = 0
        recomputed, hits, done = [], [], []
        for hit_tokens, recomputed_tokens, _ in splits:
            slot = waiting.popleft()
            stats.recomputed_tokens += recomputed_tokens
            recomputed.append(recomputed_tokens)
            hits.append(hit_tokens)
            if slot.remaining == 0:
                done.append(slot)
                continue
            # the whole path: every token is a hit or a recompute
            slot.context_len = hit_tokens + recomputed_tokens
            context += slot.context_len - offset
            slot.seq, slot.joined = admitted, offset
            slot.synced, slot.finish = offset, offset + slot.remaining
            heappush(finishes, (slot.finish, admitted, slot))
            crossings[(offset + 1 - slot.tail_len) % block_tokens][admitted] = (admitted, slot)
            running.append(slot)
            admitted += 1
        if splits:
            self._standard += admitted - self._admitted
            self._admitted = admitted
            self._context += context
            self._standard_context += context
            self._worker.prefill_batch(
                recomputed, hits, phase=Phase.GENERATION, capacity_slots=self._slot_budget
            )
        for slot in done:
            job = slot.job
            cache.release_tail(job.new_segment)
            finished_at[job.lineage] = self._clock.now
            if selector is not None and self._has_child(job.lineage):
                selector.offer(job.lineage, job.prev_score)
        if waiting and not running:
            raise SchedulingError(
                "generation round stalled: the generator KV budget cannot "
                "host even one waiting beam"
            )

    def _fill_with_speculation(
        self, running: list[_Slot], selector: SelectSpec, capacity: int
    ) -> None:
        """Fill freed slots up to the round's batch width (never beyond:
        the paper's policy maintains a constant batch size) and within the
        marginal-bandwidth cap."""
        planner = self._child_planner
        assert planner is not None
        cache = self._cache
        offset, standard = self._offset, self._standard
        # Bound speculation by its marginal memory-bandwidth cost. Straggler
        # steps read the weights regardless; a speculative slot only adds
        # its KV traffic. Once the combined speculative KV reads per step
        # approach the weight traffic, speculation starts slowing the
        # straggler it is meant to hide, so slots are capped at
        # ``spec_bandwidth_fraction`` of the weight bytes. At n = 64 the cap
        # binds: 177 of the 3 114 fills of a seed-0 ``edge_single`` perf
        # drain find no room under it.
        avg_ctx = (
            max(1.0, (self._standard_context + standard * offset) / standard)
            if standard else 512.0
        )
        spec_step_bytes = avg_ctx * self._kv_bytes_per_token
        spec_cap = max(1, int(self._spec_budget_bytes / spec_step_bytes))
        spec_slots = len(running) - standard
        admitted, context, now = self._admitted, 0, self._clock.now
        finishes, crossings = self._finishes, self._crossings
        # One burst per pass; only a refused branch leaves room for another.
        room = min(capacity - len(running), spec_cap - spec_slots)
        while room > 0 and selector.heap:
            plans = []
            for claim in selector.claim(room):
                plan = planner(*claim)
                if plan is not None:
                    plans.append(plan)
            for plan, split in zip(plans, cache.pin_paths(plans, now, heads=True)):
                if split is None:
                    continue  # never evict standard work for speculation
                child_lineage, segment_id, _, n_tokens = plan
                slot = _Slot(
                    segment_id, n_tokens, split[0] + split[1], spec_lineage=child_lineage,
                    is_spec=True, seq=admitted, joined=offset, finish=offset + n_tokens,
                    synced=offset,
                )
                context += slot.context_len - offset
                heappush(finishes, (slot.finish, admitted, slot))
                # An empty tail: its first token takes a block.
                crossings[(offset + 1) % self._block_tokens][admitted] = (admitted, slot)
                running.append(slot)
                admitted += 1
                room -= 1
        self._admitted = admitted
        self._context += context

    def _finish_spec(
        self,
        slot: _Slot,
        heads: dict[tuple[int, ...], tuple[int, int]],
        stats: RoundStats,
    ) -> None:
        """Release a speculative shortfall victim (its tail is settled),
        keeping its progress as a head start."""
        assert slot.spec_lineage is not None
        self._cache.release_tail(slot.segment)
        self._leave(slot)
        stats.speculative_tokens += slot.progress
        if slot.progress > 0:
            heads[slot.spec_lineage] = (slot.progress, slot.segment)

    def _leave(self, slot: _Slot) -> None:
        """Take a shortfall victim out of its crossing bucket; its finish
        heap entry is skipped from now on."""
        residue = (slot.synced + 1 - slot.tail_len) % self._block_tokens
        del self._crossings[residue][slot.seq]
        slot.seq = -1

    def _kill_spec_slots(
        self,
        running: list[_Slot],
        heads: dict[tuple[int, ...], tuple[int, int]],
        stats: RoundStats,
    ) -> None:
        """Terminate speculative slots, keeping partial progress as heads.

        Each one's tail settles what it decoded since its length was last
        written, stamped as of the last span, in batch order.
        """
        offset, stamp_base = self._offset, self._stamp_base
        release, crossings = self._cache.release_tail, self._crossings
        block_tokens = self._block_tokens
        for slot in running:
            if not slot.is_spec:
                continue
            seq = slot.seq
            release(slot.segment, offset - slot.synced, stamp_base + seq)
            del crossings[(slot.synced + 1 - slot.tail_len) % block_tokens][seq]
            slot.seq = -1
            progress = offset - slot.joined
            stats.speculative_tokens += progress
            if progress > 0:
                heads[slot.spec_lineage] = (progress, slot.segment)
        running[:] = [slot for slot in running if not slot.is_spec]
        self._context = self._standard_context

    # -- decode-time KV growth ---------------------------------------------

    def _shortfall(
        self,
        running: list[_Slot],
        waiting: deque[_Slot],
        heads: dict[tuple[int, ...], tuple[int, int]],
        stats: RoundStats,
        failing: _Slot,
        delta: int,
    ) -> None:
        """Finish a span whose crossing tail ``failing`` found no blocks
        even by evicting (the crossings before it took theirs).

        Every running tail is brought to where a per-segment loop would
        have stopped: its length and stamp as of the last span, then the
        slots ahead of ``failing`` grown through the span. The one
        shortfall loop (:meth:`_grow_slots`) then picks victims and grows
        the rest. The victims left their buckets and heap entries as they
        went; the slots left running are settled at the span's end, and
        the context sums and standard count are recounted from them.
        """
        cache, offset = self._cache, self._offset
        stamp_base, end = self._stamp_base, offset + delta
        cache.settle_tails([
            (slot.segment, offset - slot.synced, stamp_base + slot.seq)
            for slot in running
            if slot.synced < offset
        ])
        grown = running.index(failing)
        cache.extend_segments(
            [slot.segment for slot in running[:grown]], delta, self._clock.now
        )
        for slot in running:
            slot.tail_len += offset - slot.synced
            slot.synced = offset
            slot.progress = offset - slot.joined
            slot.remaining = slot.finish - offset
        self._grow_slots(running, waiting, heads, delta, grown, stats)

        context = standard_context = standard = 0
        for slot in running:
            slot.tail_len += delta
            slot.synced = end
            context += slot.context_len - slot.joined
            if not slot.is_spec:
                standard += 1
                standard_context += slot.context_len - slot.joined
        self._offset = end
        self._context, self._standard_context = context, standard_context
        self._standard = standard

    def _grow_slots(
        self,
        running: list[_Slot],
        waiting: deque[_Slot],
        heads: dict[tuple[int, ...], tuple[int, int]],
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
        KV via prefill rather than re-decoding. :meth:`_shortfall` enters
        this with every tail settled; each shortfall frees one victim and
        resumes from the slot that could not grow.
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
        self._cache.release_tail(slot.segment)
        self._cache.evict_path(slot.segment, now=self._clock.now)
        self._leave(slot)
        stats.decoded_tokens += slot.progress  # text exists; KV recomputes
        waiting.appendleft(slot)
