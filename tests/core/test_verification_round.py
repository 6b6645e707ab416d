"""Tests for the verification round and LookAhead Verification."""

import pytest

from repro.core.verification_round import VerificationRound
from repro.engine.clock import SimClock
from repro.engine.jobs import VerifyJob
from repro.engine.telemetry import PhaseTimer
from repro.engine.worker import VerifierWorker
from repro.hardware.device import get_device
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import PagedKVCache
from repro.llm.oracle import QualityOracle
from repro.llm.verifier import SimulatedPRM
from repro.models.zoo import SKYWORK_PRM_1P5B
from repro.utils.rng import KeyedRng
from repro.workloads.datasets import build_dataset

PROMPT_SEG = 500


@pytest.fixture
def problem():
    return list(build_dataset("amc23", seed=2, size=1))[0]


def make_setup(capacity_tokens=50_000):
    cache = PagedKVCache(
        capacity_tokens * SKYWORK_PRM_1P5B.kv_bytes_per_token,
        SKYWORK_PRM_1P5B.kv_bytes_per_token,
    )
    cache.register_segment(PROMPT_SEG, None, 64)
    clock = SimClock()
    worker = VerifierWorker(
        SKYWORK_PRM_1P5B, Roofline(get_device("rtx4090")), cache, clock,
        PhaseTimer(), [],
    )
    rng = KeyedRng(2)
    prm = SimulatedPRM(SKYWORK_PRM_1P5B, QualityOracle(rng=rng.fork("oracle")), rng)
    return worker, prm


def make_job(i, step_idx=0, new_tokens=40, soundness=0.0, **lookahead):
    return VerifyJob(
        lineage=(i,),
        step_idx=step_idx,
        path_segments=(PROMPT_SEG,),
        path_segment_tokens=(64,),
        new_segment=600 + i,
        new_tokens=new_tokens,
        mean_soundness=soundness,
        **lookahead,
    )


class TestScoring:
    def test_all_jobs_scored(self, problem):
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=2)
        result = round_.run(problem, [make_job(i) for i in range(5)])
        assert set(result.scores) == {(i,) for i in range(5)}
        for score in result.scores.values():
            assert 0.0 <= score <= 1.0

    def test_scores_match_direct_prm(self, problem):
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=4)
        result = round_.run(problem, [make_job(0, soundness=0.3)])
        assert result.scores[(0,)] == prm.score_step(problem, (0,), 0, 0.3)

    def test_time_charged(self, problem):
        worker, prm = make_setup()
        VerificationRound(worker, prm, batch_size=2).run(
            problem, [make_job(i) for i in range(4)]
        )
        assert worker.clock.now > 0

    def test_batching_cheaper_than_serial(self, problem):
        worker_batched, prm = make_setup()
        VerificationRound(worker_batched, prm, batch_size=8).run(
            problem, [make_job(i) for i in range(8)]
        )
        worker_serial, prm2 = make_setup()
        VerificationRound(worker_serial, prm2, batch_size=1).run(
            problem, [make_job(i) for i in range(8)]
        )
        assert worker_batched.clock.now < worker_serial.clock.now

    def test_cache_retention_reduces_cost(self, problem):
        """Second round over grown paths prefillsonly the new step."""
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=4)
        round_.run(problem, [make_job(i) for i in range(4)])
        t_first = worker.clock.now
        jobs2 = [
            VerifyJob(
                lineage=(i,), step_idx=1,
                path_segments=(PROMPT_SEG, 600 + i),
                path_segment_tokens=(64, 40),
                new_segment=700 + i, new_tokens=40, mean_soundness=0.0,
            )
            for i in range(4)
        ]
        round_.run(problem, jobs2)
        t_second = worker.clock.now - t_first
        assert t_second < t_first  # prefix was resident

    def test_score_cache_skips_compute(self, problem):
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=4)
        cached_score = 0.42
        result = round_.run(
            problem, [make_job(0)], score_cache={((0,), 0): cached_score}
        )
        assert result.scores[(0,)] == cached_score
        assert worker.clock.now == 0.0

    def test_single_oversized_job_raises(self, problem):
        from repro.errors import CapacityError

        worker, prm = make_setup(capacity_tokens=100)
        round_ = VerificationRound(worker, prm, batch_size=2)
        with pytest.raises(CapacityError):
            round_.run(problem, [make_job(0, new_tokens=5000)])


class TestLookAhead:
    def lookahead_job(self, i=0):
        return make_job(
            i,
            lookahead_child=(i, 0),
            lookahead_segment=900 + i,
            lookahead_tokens=30,
            lookahead_soundness=0.1,
        )

    def test_lookahead_prescore_cached(self, problem):
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=4, lookahead=True)
        result = round_.run(problem, [self.lookahead_job()])
        assert ((0, 0), 1) in result.lookahead_scores

    def test_lookahead_score_matches_future(self, problem):
        """Pre-verified score equals the one a later round would compute."""
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=4, lookahead=True)
        result = round_.run(problem, [self.lookahead_job()])
        assert result.lookahead_scores[((0, 0), 1)] == prm.score_step(
            problem, (0, 0), 1, 0.1
        )

    def test_lookahead_disabled_ignores_fields(self, problem):
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=4, lookahead=False)
        result = round_.run(problem, [self.lookahead_job()])
        assert result.lookahead_scores == {}

    def test_lookahead_saves_next_round_time(self, problem):
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=4, lookahead=True)
        result = round_.run(problem, [self.lookahead_job()])
        t_after_first = worker.clock.now
        # next round: child (0, 0) at step 1 hits the score cache
        child_job = VerifyJob(
            lineage=(0, 0), step_idx=1,
            path_segments=(PROMPT_SEG, 600),
            path_segment_tokens=(64, 40),
            new_segment=900, new_tokens=30, mean_soundness=0.1,
        )
        round_.run(problem, [child_job], score_cache=dict(result.lookahead_scores))
        assert worker.clock.now == t_after_first

    def test_no_pins_leak(self, problem):
        worker, prm = make_setup()
        round_ = VerificationRound(worker, prm, batch_size=2, lookahead=True)
        round_.run(problem, [self.lookahead_job(i) for i in range(4)])
        cache = worker.cache
        for seg_id in (PROMPT_SEG, 600, 601, 900, 901):
            assert cache.segment(seg_id).pin_count == 0
