"""Tests for the experiment runner and reference search."""

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.reference import pure_search
from repro.experiments.runner import (
    MEMORY_FRACTIONS,
    ExperimentSpec,
    PairResult,
    run_metrics,
    run_pair,
    sweep_n,
)
from repro.metrics.latency import LatencyBreakdown
from repro.metrics.report import RunMetrics
from repro.search.registry import build_algorithm
from repro.workloads.datasets import build_dataset


class TestExperimentSpec:
    def test_paper_memory_fractions(self):
        assert MEMORY_FRACTIONS["1.5B+1.5B"] == 0.40
        assert MEMORY_FRACTIONS["1.5B+7B"] == 0.90
        spec = ExperimentSpec(model_config="1.5B+1.5B")
        assert spec.resolve_memory_fraction() == 0.40

    def test_memory_override(self):
        spec = ExperimentSpec(memory_fraction=0.7)
        assert spec.resolve_memory_fraction() == 0.7

    def test_config_builders(self):
        spec = ExperimentSpec(model_config="1.5B+1.5B", seed=4)
        base = spec.build_config(fast=False)
        fast = spec.build_config(fast=True)
        assert not base.speculation and fast.speculation
        assert base.seed == fast.seed == 4

    def test_dataset_reproducible(self):
        spec = ExperimentSpec(dataset_name="amc23", dataset_size=3, seed=2)
        assert spec.build_dataset().problems == spec.build_dataset().problems


class TestRunners:
    @pytest.fixture(scope="class")
    def pair(self):
        spec = ExperimentSpec(
            dataset_name="amc23", dataset_size=1, model_config="1.5B+1.5B",
            algorithm="beam_search", n=8, seed=0,
        )
        return run_pair(spec)

    def test_run_metrics_shape(self):
        spec = ExperimentSpec(dataset_name="amc23", dataset_size=2, n=8)
        metrics, results = run_metrics(spec, spec.build_config(fast=False))
        assert metrics.problem_count == 2
        assert len(results) == 2

    def test_pair_gains(self, pair):
        assert pair.goodput_gain > 1.0
        assert 0.0 < pair.latency_reduction < 1.0
        assert pair.verifier_latency_reduction > 0.0

    def test_pair_summary_row(self, pair):
        row = pair.summary_row()
        assert row[0] == "1.5B+1.5B"
        assert row[3] == 8

    def test_sweep_n(self):
        spec = ExperimentSpec(dataset_name="amc23", dataset_size=1, n=8)
        pairs = sweep_n(spec, [4, 8])
        assert [p.spec.n for p in pairs] == [4, 8]

    def test_sweep_builds_dataset_once(self, monkeypatch):
        calls = []
        real = runner_mod.build_dataset

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "build_dataset", counting)
        spec = ExperimentSpec(dataset_name="amc23", dataset_size=1, n=4)
        sweep_n(spec, [4, 8])
        assert len(calls) == 1  # one dataset per sweep, not per run_pair call


def _metrics_with_goodput(goodput: float) -> RunMetrics:
    return RunMetrics(
        algorithm="beam_search",
        n=4,
        problem_count=1,
        goodput=goodput,
        latency=LatencyBreakdown(total=1.0, generation=0.5, verification=0.5),
        top1_accuracy=0.0,
    )


class TestZeroBaselineGain:
    def test_both_zero_is_a_wash(self):
        pair = PairResult(
            spec=ExperimentSpec(),
            baseline=_metrics_with_goodput(0.0),
            fasttts=_metrics_with_goodput(0.0),
        )
        assert pair.goodput_gain == 1.0
        assert pair.summary_row()[6] == 1.0

    def test_baseline_only_zero_renders_inf(self):
        pair = PairResult(
            spec=ExperimentSpec(),
            baseline=_metrics_with_goodput(0.0),
            fasttts=_metrics_with_goodput(42.0),
        )
        assert pair.goodput_gain == float("inf")
        assert pair.summary_row()[6] == "inf"  # never round(inf) into tables


class TestPureSearch:
    def test_trace_structure(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        problem = list(dataset)[0]
        trace = pure_search(problem, dataset, build_algorithm("beam_search", 8))
        assert trace.n_rounds >= 1
        assert trace.collected
        assert len(trace.rounds[0]) == 8
        for path in trace.collected:
            assert path.terminal
            assert path.answer is not None
            assert len(path.scores) == path.steps_done

    def test_best_of_n_scored_once(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        problem = list(dataset)[0]
        trace = pure_search(problem, dataset, build_algorithm("best_of_n", 4))
        for path in trace.collected:
            assert len(path.scores) == 1

    def test_deterministic(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        problem = list(dataset)[0]
        a = pure_search(problem, dataset, build_algorithm("dvts", 8), seed=3)
        b = pure_search(problem, dataset, build_algorithm("dvts", 8), seed=3)
        assert [(p.lineage, p.answer) for p in a.collected] == [
            (p.lineage, p.answer) for p in b.collected
        ]
