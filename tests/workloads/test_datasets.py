"""Tests for synthetic datasets and step-length traces."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.utils.rng import KeyedRng
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.problem import Dataset, Problem
from repro.workloads.traces import StepLengthModel


class TestStepLengthModel:
    def test_bounds(self):
        model = StepLengthModel(median_tokens=100, sigma=0.8, min_tokens=8, max_tokens=500)
        rng = KeyedRng(0)
        for i in range(200):
            n = model.sample(rng, "k", i)
            assert 8 <= n <= 500

    def test_cap_tightens(self):
        model = StepLengthModel(median_tokens=100, sigma=0.8)
        rng = KeyedRng(0)
        assert all(model.sample(rng, i, cap=32) <= 32 for i in range(50))

    def test_cap_below_min(self):
        model = StepLengthModel(median_tokens=100, sigma=0.8, min_tokens=8)
        assert model.sample(KeyedRng(0), 1, cap=4) == 4

    def test_mean_above_median(self):
        model = StepLengthModel(median_tokens=100, sigma=0.8)
        assert model.mean_tokens > 100

    def test_deterministic(self):
        model = StepLengthModel(median_tokens=100, sigma=0.5)
        rng = KeyedRng(1)
        assert model.sample(rng, "a", 1) == model.sample(rng, "a", 1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StepLengthModel(median_tokens=0, sigma=0.5)
        with pytest.raises(ValueError):
            StepLengthModel(median_tokens=10, sigma=-1)
        with pytest.raises(ValueError):
            StepLengthModel(median_tokens=10, sigma=0.5, min_tokens=20, max_tokens=10)


class TestBuildDataset:
    def test_reproducible(self):
        a = build_dataset("aime24", seed=7, size=5)
        b = build_dataset("aime24", seed=7, size=5)
        assert a.problems == b.problems

    def test_seed_changes_problems(self):
        a = build_dataset("aime24", seed=1, size=5)
        b = build_dataset("aime24", seed=2, size=5)
        assert a.problems != b.problems

    def test_default_sizes(self):
        assert len(build_dataset("aime24")) == 30
        assert len(build_dataset("humaneval")) == 164

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            build_dataset("gsm8k")

    def test_bad_size(self):
        with pytest.raises(ConfigError):
            build_dataset("aime24", size=0)

    def test_all_profiles_buildable(self):
        for name in DATASETS.names():
            dataset = build_dataset(name, seed=0, size=3)
            assert len(dataset) == 3
            for problem in dataset:
                assert 0 <= problem.answer <= 999
                assert problem.prompt_tokens >= 24

    def test_aime_harder_than_amc(self):
        aime = build_dataset("aime24", seed=0, size=30)
        amc = build_dataset("amc23", seed=0, size=30)
        assert np.mean([p.difficulty for p in aime]) > np.mean(
            [p.difficulty for p in amc]
        )

    def test_aime_steps_longer_than_humaneval(self):
        assert (
            DATASETS["aime24"].step_model.mean_tokens
            > DATASETS["humaneval"].step_model.mean_tokens
        )


class TestContainers:
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            Problem("x", "d", 1.0, answer=1000, prompt_tokens=10)
        with pytest.raises(ValueError):
            Problem("x", "d", 1.0, answer=5, prompt_tokens=0)

    def test_dataset_validation(self):
        problem = Problem("x", "d", 1.0, answer=5, prompt_tokens=10)
        model = StepLengthModel(median_tokens=10, sigma=0.1)
        with pytest.raises(ValueError):
            Dataset(name="d", problems=(), step_model=model)
        with pytest.raises(ValueError):
            Dataset(name="d", problems=(problem,), step_model=model,
                    min_steps=5, max_steps=2)
        with pytest.raises(ValueError):
            Dataset(name="d", problems=(problem,), step_model=model,
                    termination_rate=0.0)

    def test_dataset_iterates(self):
        dataset = build_dataset("amc23", seed=0, size=4)
        assert len(list(dataset)) == 4
