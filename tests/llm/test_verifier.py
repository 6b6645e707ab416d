"""Tests for the simulated discriminative PRM."""

import numpy as np
import pytest

from repro.llm.oracle import QualityOracle
from repro.llm.verifier import SimulatedPRM
from repro.models.zoo import (
    MATH_SHEPHERD_7B,
    QWEN25_MATH_1P5B,
    SKYWORK_PRM_1P5B,
)
from repro.utils.rng import KeyedRng
from repro.workloads.datasets import build_dataset


@pytest.fixture
def problem():
    return list(build_dataset("amc23", seed=5, size=1))[0]


@pytest.fixture
def prm(problem):
    rng = KeyedRng(5)
    return SimulatedPRM(SKYWORK_PRM_1P5B, QualityOracle(rng=rng.fork("oracle")), rng)


class TestScoring:
    def test_scores_in_unit_interval(self, prm, problem):
        for i in range(100):
            score = prm.score_step(problem, (i,), 0, mean_soundness=0.0)
            assert 0.0 <= score <= 1.0

    def test_deterministic(self, prm, problem):
        assert prm.score_step(problem, (0,), 1, 0.2) == prm.score_step(
            problem, (0,), 1, 0.2
        )

    def test_tracks_soundness(self, prm, problem):
        low = [prm.score_step(problem, (i,), 0, -1.5) for i in range(200)]
        high = [prm.score_step(problem, (i,), 0, 1.5) for i in range(200)]
        assert np.mean(high) > np.mean(low) + 0.3

    def test_consecutive_scores_correlate(self, prm, problem):
        """The zero-overhead proxy SelectSPEC relies on (Sec. 4.1.1)."""
        score_t, score_t1 = [], []
        for i in range(300):
            score_t.append(prm.score_step(problem, (i, 0), 0, 0.0))
            score_t1.append(prm.score_step(problem, (i, 0), 1, 0.0))
        corr = np.corrcoef(score_t, score_t1)[0, 1]
        assert corr > 0.25

    def test_larger_verifier_less_noise(self, problem):
        rng = KeyedRng(5)
        oracle = QualityOracle(rng=rng.fork("oracle"))
        small = SimulatedPRM(SKYWORK_PRM_1P5B, oracle, rng)
        large = SimulatedPRM(MATH_SHEPHERD_7B, oracle, rng)
        # The same paths at the same soundness: only the noise spreads them.
        def spread(prm):
            return np.std([prm.score_step(problem, (i,), 0, 0.0) for i in range(200)])

        assert spread(large) < spread(small)

    def test_generator_model_rejected(self, problem):
        rng = KeyedRng(0)
        with pytest.raises(ValueError):
            SimulatedPRM(QWEN25_MATH_1P5B, QualityOracle(rng=rng), rng)

    def test_negative_step_raises(self, prm, problem):
        with pytest.raises(ValueError):
            prm.score_step(problem, (0,), -1, 0.0)
