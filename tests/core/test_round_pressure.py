"""Failure-injection tests: rounds under severe memory pressure.

The preemption and retry paths only trigger when the KV pool is nearly
full; these tests construct exactly those conditions and check that the
system degrades by *spending time*, never by corrupting results.
"""

import pytest

from repro.core.generation_round import ChildStepPlan, GenerationRound
from repro.core.verification_round import VerificationRound
from repro.engine.clock import SimClock
from repro.engine.jobs import GenJob, VerifyJob
from repro.engine.telemetry import PhaseTimer
from repro.engine.worker import GeneratorWorker, VerifierWorker
from repro.hardware.device import get_device
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import PagedKVCache
from repro.llm.oracle import QualityOracle
from repro.llm.verifier import SimulatedPRM
from repro.models.zoo import QWEN25_MATH_1P5B, SKYWORK_PRM_1P5B
from repro.utils.rng import KeyedRng
from repro.workloads.datasets import build_dataset

PROMPT = 900


def gen_worker(capacity_tokens):
    cache = PagedKVCache(capacity_tokens * QWEN25_MATH_1P5B.kv_bytes_per_token,
                         QWEN25_MATH_1P5B.kv_bytes_per_token, block_tokens=16)
    cache.register_segment(PROMPT, None, 64)
    return GeneratorWorker(
        QWEN25_MATH_1P5B, Roofline(get_device("rtx4090")), cache, SimClock(),
        PhaseTimer(), [],
    )


def job(i, tokens):
    return GenJob(
        lineage=(i,), path_segments=(PROMPT,), path_segment_tokens=(64,),
        new_segment=1000 + i, step_tokens=tokens,
    )


def assert_whole_steps(result, worker, jobs):
    """Every beam finished, and its KV tail holds its whole step."""
    assert set(result.finished_at) == {job.lineage for job in jobs}
    for job in jobs:
        assert worker.cache.segment(job.new_segment).token_len == job.step_tokens


class TestGenerationUnderPressure:
    def test_waves_form_when_memory_binds(self):
        # capacity: prompt (64) + ~2 concurrent steps of 128 and headroom
        worker = gen_worker(capacity_tokens=400)
        round_ = GenerationRound(worker, slot_budget=8)
        jobs = [job(i, 128) for i in range(6)]
        result = round_.run(jobs)
        assert_whole_steps(result, worker, jobs)
        # memory admitted only a subset concurrently -> multiple waves
        peak_busy = max(s.busy_slots for s in worker._spans)
        assert peak_busy < 6

    def test_mid_decode_preemption_recovers(self):
        """Concurrent growth overruns the pool: a victim is preempted,
        re-admitted, and still completes with full token counts."""
        worker = gen_worker(capacity_tokens=330)
        round_ = GenerationRound(worker, slot_budget=8)
        # can_fit at admission passes (steps claim little at first), but
        # combined growth exceeds the pool mid-decode.
        jobs = [job(0, 120), job(1, 120), job(2, 120)]
        result = round_.run(jobs)
        assert_whole_steps(result, worker, jobs)
        assert result.stats.decoded_tokens == 360

    def test_all_work_conserved_under_pressure(self):
        jobs = [job(i, 100 + i) for i in range(5)]
        relaxed_worker, tight_worker = gen_worker(100_000), gen_worker(420)
        relaxed = GenerationRound(relaxed_worker, slot_budget=8).run(jobs)
        tight = GenerationRound(tight_worker, slot_budget=8).run(jobs)
        assert_whole_steps(relaxed, relaxed_worker, jobs)
        assert_whole_steps(tight, tight_worker, jobs)
        assert tight.stats.decoded_tokens == relaxed.stats.decoded_tokens == 510
        # pressure costs time, not correctness
        assert tight.stats.round_time >= relaxed.stats.round_time

    @staticmethod
    def spec_round(capacity_tokens, spec_tokens, slot_budget=2, **kwargs):
        """Speculation on, every child ``spec_tokens`` long."""

        def planner(parent, child):
            return ChildStepPlan(
                child_lineage=parent + (child,),
                segment_id=5000 + 10 * parent[0] + child,
                parent_leaf_segment=1000 + parent[0],
                n_tokens=spec_tokens,
            )

        return GenerationRound(
            gen_worker(capacity_tokens), slot_budget=slot_budget, speculation=True,
            branching_factor=4, child_planner=planner,
            has_child=lambda parent: True, **kwargs,
        )

    def test_a_speculative_slot_is_the_first_growth_victim(self, monkeypatch):
        """Beams 1 and 2 finish early and two children of beam 1 speculate
        beside beam 0. When one child's growth runs out of blocks, the
        other child - not the standard beam 0 - is given up, its progress
        kept as a head start."""
        victims = []
        real_pick = GenerationRound._pick_victim

        def recording_pick(round_, running, protected):
            victim = real_pick(round_, running, protected)
            victims.append((victim.spec_lineage, victim.progress, protected.is_spec))
            return victim

        monkeypatch.setattr(GenerationRound, "_pick_victim", recording_pick)
        round_ = self.spec_round(320, 163, slot_budget=3)
        jobs = [job(0, 103), job(1, 17), job(2, 17)]
        result = round_.run(jobs)
        assert victims == [((1, 0), 86, True)]
        assert_whole_steps(result, round_._worker, jobs)
        assert result.stats.decoded_tokens == 137
        heads = {lineage: tokens for lineage, (tokens, _) in result.head_starts.items()}
        assert heads == {(1, 0): 86, (1, 1): 86}

    def test_a_preemption_that_empties_the_batch_refills_it(self, monkeypatch):
        """Beam 1 is pushed back to wait while a speculative slot holds its
        memory; an arrival then kills the speculation, leaving nothing
        running, and the round re-admits beam 1 rather than stalling."""
        states = []
        free = self.spec_round(200, 100)
        free.run([job(0, 10), job(1, 60)])
        # The arrival lands when the third decode span would start (the
        # first span is the prefill).
        arrival = free._worker._spans[3].t_start

        real_kill = GenerationRound._kill_spec_slots

        def recording_kill(round_, running, heads, stats):
            before = [slot.is_spec for slot in running]
            real_kill(round_, running, heads, stats)
            states.append((before, len(running)))

        monkeypatch.setattr(GenerationRound, "_kill_spec_slots", recording_kill)
        round_ = self.spec_round(200, 100, preempt_at=arrival)
        jobs = [job(0, 10), job(1, 60)]
        result = round_.run(jobs)
        assert ([True], 0) in states  # the kill left the batch empty
        assert_whole_steps(result, round_._worker, jobs)
        assert result.stats.decoded_tokens == 70
        # the head start is what the slot decoded before the arrival; its
        # key is the child lineage, whose parent is beam 0
        assert [
            (lineage[:-1], tokens) for lineage, (tokens, _) in result.head_starts.items()
        ] == [((0,), 60)]

    def test_speculation_never_steals_standard_memory(self):
        worker = gen_worker(capacity_tokens=360)

        def planner(parent, child):
            return ChildStepPlan(
                child_lineage=parent + (child,),
                segment_id=5000 + 10 * parent[0] + child,
                parent_leaf_segment=1000 + parent[0],
                n_tokens=400,
            )

        round_ = GenerationRound(
            worker, slot_budget=4, speculation=True, branching_factor=4,
            child_planner=planner, has_child=lambda parent: True,
        )
        jobs = [job(0, 20), job(1, 150)]
        result = round_.run(jobs)
        # both standard jobs complete in full despite greedy spec demand
        assert_whole_steps(result, worker, jobs)
        assert result.stats.decoded_tokens == 170


class TestVerificationUnderPressure:
    def test_batch_flush_and_retry(self):
        """When a batch member cannot fit, the open batch flushes and the
        job retries alone — all scores still produced."""
        problem = list(build_dataset("amc23", seed=1, size=1))[0]
        cache = PagedKVCache(
            1400 * SKYWORK_PRM_1P5B.kv_bytes_per_token,
            SKYWORK_PRM_1P5B.kv_bytes_per_token,
        )
        cache.register_segment(PROMPT, None, 64)
        clock = SimClock()
        worker = VerifierWorker(
            SKYWORK_PRM_1P5B, Roofline(get_device("rtx4090")), cache, clock,
            PhaseTimer(), [],
        )
        rng = KeyedRng(1)
        prm = SimulatedPRM(SKYWORK_PRM_1P5B, QualityOracle(rng=rng.fork("o")), rng)
        jobs = [
            VerifyJob(
                lineage=(i,), step_idx=0, path_segments=(PROMPT,),
                path_segment_tokens=(64,), new_segment=2000 + i,
                new_tokens=600, mean_soundness=0.0,
            )
            for i in range(4)
        ]
        result = VerificationRound(worker, prm, batch_size=4).run(problem, jobs)
        assert set(result.scores) == {(i,) for i in range(4)}
