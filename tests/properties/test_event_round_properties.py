"""The event-driven decode round against an eager reference loop.

:class:`EagerRound` below is the decode loop that touches every slot on
every span: one pass for the span's length, speculative count, context
sum and segments, one :meth:`PagedKVCache.extend_segments` call growing
the whole batch (each tail's length, LRU stamp and change mark written
per span), one pass advancing every slot and one retiring the finished.
:class:`GenerationRound` keeps an offset, finish and block-crossing
heaps, and writes a tail's length, stamp and mark when it leaves. Run on
twin caches, the two must agree on everything observable: finish times,
head starts, round statistics, the clock, every segment's length, blocks,
residency and pins, the cache totals and statistics (its trace holds
every allocation and every eviction victim, in order), the set of
changed segments, and the LRU order of every segment, which a final
flush of both caches replays victim by victim.

The eager loop fills speculation one branch at a time: it claims one,
registers its head (:meth:`PagedKVCache.register_segment`) and pins its
path with its planned growth in a one-path
:meth:`PagedKVCache.pin_paths`. :class:`GenerationRound` claims a burst
and registers and pins every head in one ``pin_paths(..., heads=True)``
call, which the strategy below drives through fills where one branch is
refused and another admitted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import Phase as HypothesisPhase
from hypothesis import find, given, settings

from repro.core.generation_round import ChildStepPlan, GenerationRound
from repro.core.spec_select import SelectSpec
from repro.engine.clock import SimClock
from repro.engine.jobs import GenJob, RoundStats
from repro.engine.telemetry import Phase, PhaseTimer
from repro.engine.worker import GeneratorWorker
from repro.errors import SchedulingError
from repro.hardware.device import get_device
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import PagedKVCache
from repro.models.zoo import QWEN25_MATH_1P5B as MODEL

PROMPT = 77
PROMPT_TOKENS = 40


@dataclass(slots=True, eq=False)
class _EagerSlot:
    segment: int
    remaining: int
    context_len: int = 0
    progress: int = 0
    job: GenJob | None = None
    spec_lineage: tuple[int, ...] | None = None
    is_spec: bool = False


class EagerRound(GenerationRound):
    """The per-slot decode loop: every span visits the whole batch."""

    def run(self, jobs):
        stats = RoundStats()
        finished_at, heads = {}, {}
        if not jobs:
            return finished_at, heads, stats
        clock, cache = self._clock, self._cache
        start_time = clock.now
        waiting = deque(
            _EagerSlot(segment=j.new_segment, remaining=j.remaining_tokens, job=j)
            for j in jobs
        )
        selector = SelectSpec(self._branching) if self._speculation else None
        running = []
        capacity = min(self._slot_budget, max(1, len(jobs)))
        speculation_enabled = self._speculation
        self._eager_admit(waiting, running, finished_at, stats, selector)
        while running:
            if clock.now >= self._preempt_at:  # every span, speculating or not
                speculation_enabled = False
                self._eager_kill(running, heads, stats)
                if not running and not waiting:
                    break
                if not running:
                    self._eager_admit(waiting, running, finished_at, stats, selector)
                    continue
            delta = min(slot.remaining for slot in running)
            busy = len(running)
            spec_slots = sum(slot.is_spec for slot in running)
            context = sum(slot.context_len + slot.progress for slot in running)
            span_start = clock.now
            span_dt = self._worker.decode_span(
                n_steps=delta, busy_slots=busy, capacity_slots=capacity,
                avg_cache_len=context / busy + delta / 2.0,
                speculative_slots=spec_slots,
            )
            if stats.first_token_time is None:
                stats.first_token_time = span_start + span_dt / delta
            grown = cache.extend_segments([s.segment for s in running], delta, clock.now)
            self._eager_grow(running, waiting, heads, delta, grown, stats)
            still_running = []
            for slot in running:
                if slot.remaining > 0:
                    still_running.append(slot)
                elif slot.is_spec:
                    self._eager_finish_spec(slot, heads, stats)
                else:
                    stats.decoded_tokens += slot.progress
                    self._eager_finish(slot.job, finished_at, selector)
            running = still_running
            self._eager_admit(waiting, running, finished_at, stats, selector)
            if speculation_enabled and not waiting:
                self._eager_fill(running, selector, capacity)
            if not waiting and running and not any(not s.is_spec for s in running):
                self._eager_kill(running, heads, stats)
        stats.round_time = clock.now - start_time
        return finished_at, heads, stats

    def _eager_admit(self, waiting, running, finished_at, stats, selector):
        cache = self._cache
        free = self._slot_budget - len(running)
        leaves, grow = [], []
        for slot in waiting:
            if free <= 0:
                break
            job = slot.job
            tail = cache.segments.get(job.new_segment)
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
        recomputed, hits, done = [], [], []
        for hit_tokens, recomputed_tokens, _ in splits:
            slot = waiting.popleft()
            stats.recomputed_tokens += recomputed_tokens
            recomputed.append(recomputed_tokens)
            hits.append(hit_tokens)
            if slot.remaining == 0:
                done.append(slot)
            else:
                slot.context_len = hit_tokens + recomputed_tokens
                running.append(slot)
        if splits:
            self._worker.prefill_batch(
                recomputed, hits, phase=Phase.GENERATION, capacity_slots=self._slot_budget
            )
        for slot in done:
            self._eager_finish(slot.job, finished_at, selector)
        if waiting and not running:
            raise SchedulingError("generation round stalled")

    def _eager_finish(self, job, finished_at, selector):
        self._cache.release_tail(job.new_segment)
        finished_at[job.lineage] = self._clock.now
        if selector is not None and self._has_child(job.lineage):
            selector.offer(job.lineage, job.prev_score)

    def _eager_fill(self, running, selector, capacity):
        cache = self._cache
        spec_slots = sum(slot.is_spec for slot in running)
        standard = len(running) - spec_slots
        standard_context = sum(
            slot.context_len + slot.progress for slot in running if not slot.is_spec
        )
        avg_ctx = max(1.0, standard_context / standard) if standard else 512.0
        spec_cap = max(1, int(self._spec_budget_bytes / (avg_ctx * self._kv_bytes_per_token)))
        while len(running) < capacity and spec_slots < spec_cap:
            claims = selector.claim(1)
            if not claims:
                return
            plan = self._child_planner(*claims[0])
            if plan is None:
                continue
            child_lineage, segment_id, parent_segment, n_tokens = plan
            cache.register_segment(segment_id, parent_segment, 0)
            split = cache.pin_paths((segment_id,), self._clock.now, grow=(n_tokens,))
            if not split:
                continue
            hit_tokens, recomputed_tokens, _ = split[0]
            spec_slots += 1
            running.append(_EagerSlot(
                segment=segment_id, remaining=n_tokens,
                context_len=hit_tokens + recomputed_tokens,
                spec_lineage=child_lineage, is_spec=True,
            ))

    def _eager_finish_spec(self, slot, heads, stats):
        self._cache.release_tail(slot.segment)
        stats.speculative_tokens += slot.progress
        if slot.progress > 0:
            heads[slot.spec_lineage] = (slot.progress, slot.segment)

    def _eager_kill(self, running, heads, stats):
        for slot in running:
            if slot.is_spec:
                self._eager_finish_spec(slot, heads, stats)
        running[:] = [slot for slot in running if not slot.is_spec]

    def _eager_grow(self, running, waiting, heads, delta, grown, stats):
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
                raise SchedulingError("decode batch cannot grow")
            if victim.is_spec:
                self._eager_finish_spec(victim, heads, stats)
            else:
                cache.release_tail(victim.segment)
                cache.evict_path(victim.segment, now=now)
                stats.decoded_tokens += victim.progress
                victim.progress = 0
                waiting.appendleft(victim)
            running.remove(victim)
            if victim in pending:
                pending.remove(victim)
            grown = cache.extend_segments([slot.segment for slot in pending], delta, now)


def make_worker(capacity_tokens, shared_prefix):
    cache = PagedKVCache(
        capacity_tokens * MODEL.kv_bytes_per_token, MODEL.kv_bytes_per_token,
        trace_capacity=100_000,
    )
    cache.register_segment(PROMPT, None, PROMPT_TOKENS)
    # A resident, unpinned prefix older than the round: LRU victims.
    for i, tokens in enumerate(shared_prefix):
        cache.register_segment(500 + i, PROMPT, tokens)
        cache.pin_paths((500 + i,))
        cache.release_tail(500 + i)
    cache.take_changes()  # start recording changes
    return GeneratorWorker(
        MODEL, Roofline(get_device("rtx4090")), cache, SimClock(), PhaseTimer(), [],
    )


def build_jobs(worker, specs):
    jobs = []
    for i, (tokens, head_fraction, score) in enumerate(specs):
        head = int(tokens * head_fraction)
        segment = 9000 + i
        if head > 0:
            worker.cache.register_segment(segment, PROMPT, head)
        jobs.append(GenJob(
            lineage=(i,), path_segments=(PROMPT,), path_segment_tokens=(PROMPT_TOKENS,),
            new_segment=segment, step_tokens=tokens, head_start=head, prev_score=score,
        ))
    return jobs


def make_planner(child_tokens, plain):
    def planner(parent, child):
        fields = (parent + (child,), 50_000 + 100 * parent[0] + child, 9000 + parent[0],
                  child_tokens[(parent[0] + child) % len(child_tokens)])
        return fields if plain else ChildStepPlan(*fields)
    return planner


def build_round(round_cls, worker, slot_budget, speculate, child_tokens, plain,
                preempt_at=math.inf):
    return round_cls(
        worker, slot_budget=slot_budget, speculation=speculate, branching_factor=4,
        child_planner=make_planner(child_tokens, plain) if speculate else None,
        has_child=(lambda parent: True) if speculate else None,
        preempt_at=preempt_at,
    )


def deadline_times(specs, slot_budget, speculate, capacity, prefix, child_tokens, plain):
    """Times before, at and between the span starts of the round run with no
    deadline, and after the last one."""
    worker = make_worker(capacity, prefix)
    try:
        build_round(GenerationRound, worker, slot_budget, speculate, child_tokens,
                    plain).run(build_jobs(worker, specs))
    except SchedulingError:
        pass
    starts = sorted({span.t_start for span in worker._spans}) or [0.0]
    times = [starts[0] - 1.0]
    for start, after in zip(starts, starts[1:] + [starts[-1] + 1.0]):
        times += [start, (start + after) / 2]
    return times


def snapshot(worker):
    cache = worker.cache
    segments = sorted(cache.segments.values(), key=lambda s: s.node_id)
    return {
        "clock": worker.clock.now,
        "segments": [
            (s.node_id, s.token_len, s.blocks_held, s.resident, s.pin_count, s.resident_children)
            for s in segments
        ],
        "totals": (
            cache.resident_tokens, cache.evictable_blocks,
            cache.resident_segment_count, cache.pool.allocated_blocks,
        ),
        "stats": cache.stats,
        "changed": sorted(s.node_id for s in cache.take_changes()),
        "lru": [s.node_id for s in sorted(segments, key=lambda s: (s.last_access, s.node_id))],
    }


def run_round(round_cls, specs, slot_budget, speculate, preempt_at, capacity, prefix,
              child_tokens, plain):
    worker = make_worker(capacity, prefix)
    round_ = build_round(
        round_cls, worker, slot_budget, speculate, child_tokens, plain, preempt_at
    )
    try:
        result = round_.run(build_jobs(worker, specs))
    except SchedulingError:
        return "stalled", snapshot(worker)
    if round_cls is GenerationRound:
        result = (result.finished_at, result.head_starts, result.stats)
    state = snapshot(worker)
    worker.cache.evict_all(now=worker.clock.now)  # replay the LRU order
    state["flush"] = worker.cache.stats.trace[len(state["stats"].trace):]
    return result, state


job_specs = st.lists(
    st.tuples(
        st.integers(1, 120),  # step tokens
        st.sampled_from([0.0, 0.0, 0.3, 1.0]),  # head-start fraction
        st.one_of(st.none(), st.floats(0.0, 1.0)),  # prev score
    ),
    min_size=1,
    max_size=10,
)


round_args = st.fixed_dictionaries({
    "specs": job_specs,
    "slot_budget": st.integers(1, 8),
    "speculate": st.booleans(),
    "deadline": st.one_of(st.none(), st.integers(0, 30)),
    "capacity": st.sampled_from([200, 260, 360, 600, 5_000]),
    "prefix": st.lists(st.integers(1, 40), max_size=3),
    "child_tokens": st.lists(st.integers(1, 90), min_size=1, max_size=3),
    "plain": st.booleans(),
})


def mixed_fill(args) -> bool:
    """Whether the event round's speculation makes a fill in which one
    branch is refused and another admitted."""
    worker = make_worker(args["capacity"], args["prefix"])
    cache, real_pin = worker.cache, worker.cache.pin_paths
    mixed = []

    def spying_pin(leaves, now=0.0, grow=None, heads=False):
        splits = real_pin(leaves, now, grow, heads)
        if heads and None in splits and splits.count(None) < len(splits):
            mixed.append(splits)
        return splits

    cache.pin_paths = spying_pin
    round_ = build_round(
        GenerationRound, worker, args["slot_budget"], args["speculate"],
        args["child_tokens"], args["plain"],
    )
    try:
        round_.run(build_jobs(worker, args["specs"]))
    except SchedulingError:
        pass
    return bool(mixed)


class TestEventRoundMatchesEagerLoop:
    @given(args=round_args)
    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    def test_same_outcomes_books_and_lru_order(self, args):
        specs, slot_budget, speculate = args["specs"], args["slot_budget"], args["speculate"]
        capacity, prefix = args["capacity"], args["prefix"]
        child_tokens, plain = args["child_tokens"], args["plain"]
        preempt_at = math.inf
        if args["deadline"] is not None:
            times = deadline_times(
                specs, slot_budget, speculate, capacity, prefix, child_tokens, plain
            )
            preempt_at = times[args["deadline"] % len(times)]
        run_args = (
            specs, slot_budget, speculate, preempt_at, capacity, prefix, child_tokens, plain
        )
        event = run_round(GenerationRound, *run_args)
        eager = run_round(EagerRound, *run_args)
        assert event == eager

    def test_the_strategy_reaches_a_fill_with_a_refused_and_an_admitted_branch(self):
        """The property above compares a speculation burst whose one cache
        call refuses a branch and admits the next with the eager loop's
        two calls per branch; no gated digest run refuses a speculative
        pin at all."""
        find(
            round_args, mixed_fill,
            settings=settings(
                max_examples=3 * settings.default.max_examples, database=None,
                deadline=None, derandomize=True, phases=[HypothesisPhase.generate],
            ),
        )

    def test_a_tight_budget_exercises_the_shortfall_path(self, monkeypatch):
        """The property's budgets reach the shortfall loop, with speculative
        and standard victims."""
        victims = []
        real = GenerationRound._pick_victim

        def recording(round_, running, protected):
            victim = real(round_, running, protected)
            victims.append(victim.is_spec)
            return victim

        monkeypatch.setattr(GenerationRound, "_pick_victim", recording)
        specs = [(97, 0.0, None), (80, 0.0, None), (120, 0.0, 0.9), (8, 0.0, None)]
        event = run_round(GenerationRound, specs, 4, True, math.inf, 200, [], [89], False)
        monkeypatch.setattr(GenerationRound, "_pick_victim", real)
        eager = run_round(EagerRound, specs, 4, True, math.inf, 200, [], [89], False)
        assert event == eager
        assert True in victims and False in victims
