"""Property-based tests on the generation round executor.

Random job mixes (lengths, head starts, scores) drive the round under
plain and speculative configurations; conservation invariants must hold
regardless: every job finishes with exactly its planned tokens, finish times
are consistent with the straggler, and speculation never perturbs any of
it.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.generation_round import ChildStepPlan, GenerationRound
from repro.engine.clock import SimClock
from repro.engine.jobs import GenJob
from repro.engine.telemetry import PhaseTimer
from repro.engine.worker import GeneratorWorker
from repro.hardware.device import get_device
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import PagedKVCache
from repro.models.zoo import QWEN25_MATH_1P5B as MODEL

PROMPT = 77


def make_worker(capacity_tokens=200_000):
    cache = PagedKVCache(capacity_tokens * MODEL.kv_bytes_per_token,
                         MODEL.kv_bytes_per_token)
    cache.register_segment(PROMPT, None, 48)
    return GeneratorWorker(
        MODEL, Roofline(get_device("rtx4090")), cache, SimClock(),
        PhaseTimer(), [],
    )


job_specs = st.lists(
    st.tuples(
        st.integers(1, 300),                      # step tokens
        st.floats(0.0, 1.0),                      # head-start fraction
        st.one_of(st.none(), st.floats(0.0, 1.0)),  # prev score
    ),
    min_size=1,
    max_size=12,
)


def build_jobs(worker, specs):
    jobs = []
    for i, (tokens, head_fraction, score) in enumerate(specs):
        head = int(tokens * head_fraction)
        segment = 9000 + i
        if head > 0:
            worker.cache.register_segment(segment, PROMPT, head)
        jobs.append(
            GenJob(
                lineage=(i,), path_segments=(PROMPT,), path_segment_tokens=(48,),
                new_segment=segment, step_tokens=tokens, head_start=head,
                prev_score=score,
            )
        )
    return jobs


def planner(parent_lineage, child_index):
    return ChildStepPlan(
        child_lineage=parent_lineage + (child_index,),
        segment_id=50_000 + 100 * parent_lineage[0] + child_index,
        parent_leaf_segment=9000 + parent_lineage[0],
        n_tokens=64,
    )


def has_child(parent_lineage):
    return True


class TestGenerationRoundProperties:
    @given(job_specs, st.integers(1, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, specs, slot_budget, speculate):
        worker = make_worker()
        round_ = GenerationRound(
            worker,
            slot_budget=slot_budget,
            speculation=speculate,
            branching_factor=4,
            child_planner=planner if speculate else None,
            has_child=has_child if speculate else None,
        )
        jobs = build_jobs(worker, specs)
        result = round_.run(list(jobs))

        # every job finished with its whole step in its KV tail, and the
        # round decoded exactly the jobs' remaining tokens
        assert set(result.finished_at) == {j.lineage for j in jobs}
        for job in jobs:
            assert worker.cache.segment(job.new_segment).token_len == job.step_tokens
        assert result.stats.decoded_tokens == sum(
            j.remaining_tokens for j in jobs
        )
        # finish times never exceed the round end
        end = worker.clock.now
        for finish_time in result.finished_at.values():
            assert finish_time <= end + 1e-9
        # head starts only exist under speculation and are positive
        for head in result.head_starts.values():
            assert speculate
            assert head[0] > 0

    @given(job_specs, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_speculation_is_timing_only(self, specs, slot_budget):
        plain_worker = make_worker()
        jobs = build_jobs(plain_worker, specs)
        plain = GenerationRound(plain_worker, slot_budget=slot_budget).run(jobs)
        spec_worker = make_worker()
        spec = GenerationRound(
            spec_worker, slot_budget=slot_budget, speculation=True,
            branching_factor=4, child_planner=planner, has_child=has_child,
        ).run(build_jobs(spec_worker, specs))
        assert set(spec.finished_at) == set(plain.finished_at)
        assert spec.stats.decoded_tokens == plain.stats.decoded_tokens
        for job in jobs:
            assert (
                spec_worker.cache.segment(job.new_segment).token_len
                == plain_worker.cache.segment(job.new_segment).token_len
                == job.step_tokens
            )

    @given(job_specs)
    @settings(max_examples=30, deadline=None)
    def test_slot_budget_one_serializes(self, specs):
        """With one slot, round time ~ sum of all remaining tokens' cost."""
        worker = make_worker()
        jobs = build_jobs(worker, specs)
        result = GenerationRound(worker, slot_budget=1).run(list(jobs))
        ordered = [result.finished_at[j.lineage] for j in jobs
                   if j.remaining_tokens > 0]
        assert ordered == sorted(ordered)  # strict FCFS completion order
