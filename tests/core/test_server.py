"""Tests for the TTSServer serving loop."""

import pytest

from repro.core.config import OffloadMode, baseline_config, fasttts_config
from repro.core.server import TTSServer
from repro.errors import CapacityError
from repro.hardware.device import DEVICES, get_device
from repro.models import MODEL_CONFIGS, model_pair
from repro.search.beam_search import BeamSearch
from repro.search.best_of_n import BestOfN
from repro.workloads.datasets import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("amc23", seed=1, size=2)


@pytest.fixture(scope="module")
def problem(dataset):
    return list(dataset)[0]


class TestConstruction:
    def test_weights_must_fit(self, dataset):
        with pytest.raises(CapacityError):
            TTSServer(
                baseline_config(model_config="7B+1.5B", memory_fraction=0.6,
                                device_name="rtx3070ti"),
                dataset,
            )

    @pytest.mark.parametrize("device_name", DEVICES.names())
    @pytest.mark.parametrize("model_config", MODEL_CONFIGS.names())
    def test_weights_come_off_the_budget_first(self, dataset, model_config, device_name):
        """Both models' weights are resident before any KV: the pair must
        fit inside the budget, and what is left of it is the KV budget."""
        budget = int(get_device(device_name).usable_bytes * 0.4)
        weights = sum(spec.weight_bytes for spec in model_pair(model_config))
        config = baseline_config(model_config=model_config, memory_fraction=0.4,
                                 device_name=device_name)
        if weights >= budget:
            with pytest.raises(CapacityError):
                TTSServer(config, dataset)
        else:
            assert TTSServer(config, dataset).kv_budget_bytes == budget - weights

    def test_kv_budget_positive(self, dataset):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        assert server.kv_budget_bytes > 0

    @pytest.mark.parametrize("fraction", [0.3, 0.4])
    @pytest.mark.parametrize(
        "config",
        [baseline_config, fasttts_config,
         lambda **kw: fasttts_config(offload=OffloadMode.FORCE, **kw)],
        ids=["baseline", "fasttts", "fasttts-force"],
    )
    def test_each_beam_budget_is_planned_once(self, dataset, config, fraction):
        """The server keeps one plan per ``n``; each equals a fresh plan."""
        server = TTSServer(config(memory_fraction=fraction), dataset)
        budgets = (1, 8, 64)
        plans = {n: server.plan_allocation(n) for n in budgets}
        for n in budgets:
            assert server.plan_allocation(n) is plans[n]
            fresh = TTSServer(config(memory_fraction=fraction), dataset)
            assert plans[n] == fresh.plan_allocation(n)

    def test_the_memo_covers_an_offloading_plan(self, dataset):
        server = TTSServer(fasttts_config(memory_fraction=0.3), dataset)
        assert server.plan_allocation(64).offload
        assert not server.plan_allocation(8).offload

    @pytest.mark.parametrize("config", [baseline_config, fasttts_config])
    def test_an_infeasible_budget_raises_on_every_call(self, dataset, config):
        server = TTSServer(config(memory_fraction=0.26), dataset)
        for _ in range(3):
            with pytest.raises(CapacityError, match="worst-case path"):
                server.plan_allocation(8)

    def test_plan_allocation_static_vs_asymmetric(self, dataset):
        static = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        asym = TTSServer(
            fasttts_config(memory_fraction=0.4, offload=OffloadMode.OFF), dataset
        )
        assert static.plan_allocation(32).kv_pre_bytes != asym.plan_allocation(
            32
        ).kv_pre_bytes


class TestSolve:
    def test_produces_beams(self, dataset, problem):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        result = server.solve(problem, BeamSearch(n=8))
        assert len(result.beams) >= 1
        assert result.goodput > 0
        assert result.latency.total > 0

    def test_latency_components_accounted(self, dataset, problem):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        result = server.solve(problem, BeamSearch(n=8))
        assert result.latency.accounted == pytest.approx(result.latency.total)
        assert result.latency.generation > result.latency.verification

    def test_beam_tokens_match_paths(self, dataset, problem):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        outcome = server.solve_detailed(problem, BeamSearch(n=8))
        for path, beam in zip(outcome.collected, outcome.result.beams):
            assert beam.tokens == path.total_tokens
            assert beam.lineage == path.lineage

    def test_completion_times_within_total(self, dataset, problem):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        result = server.solve(problem, BeamSearch(n=8))
        for beam in result.beams:
            assert 0 < beam.completion_time <= result.latency.total

    def test_run_many_problems(self, dataset):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        results = server.run(list(dataset), BeamSearch(n=8))
        assert len(results) == 2
        assert results[0].problem_id != results[1].problem_id

    def test_solve_is_reproducible(self, dataset, problem):
        a = TTSServer(fasttts_config(memory_fraction=0.4), dataset).solve(
            problem, BeamSearch(n=8)
        )
        b = TTSServer(fasttts_config(memory_fraction=0.4), dataset).solve(
            problem, BeamSearch(n=8)
        )
        assert a.latency.total == b.latency.total
        assert [x.answer for x in a.beams] == [x.answer for x in b.beams]

    def test_best_of_n_final_scoring(self, dataset, problem):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        result = server.solve(problem, BestOfN(n=8))
        assert len(result.beams) == 8  # chains never pruned
        assert all(b.score > 0 for b in result.beams)

    def test_every_collected_beam_scored(self, dataset, problem):
        server = TTSServer(fasttts_config(memory_fraction=0.4), dataset)
        outcome = server.solve_detailed(problem, BeamSearch(n=8))
        for path in outcome.collected:
            assert len(path.scores) == path.steps_done


class TestSpeculationAccounting:
    def test_spec_tokens_partition(self, dataset, problem):
        """used + wasted == all speculative tokens generated."""
        server = TTSServer(fasttts_config(memory_fraction=0.4), dataset)
        result = server.solve(problem, BeamSearch(n=16))
        total_spec = result.tokens.speculative_used + result.tokens.speculative_wasted
        assert total_spec > 0  # speculation actually ran
        assert result.tokens.speculative_used >= 0

    def test_truncation_ratio_zero_wastes_more(self, dataset, problem):
        low = TTSServer(
            fasttts_config(memory_fraction=0.4, spec_truncation_ratio=0.0), dataset
        ).solve(problem, BeamSearch(n=16))
        high = TTSServer(
            fasttts_config(memory_fraction=0.4, spec_truncation_ratio=0.85), dataset
        ).solve(problem, BeamSearch(n=16))
        assert high.tokens.speculation_efficiency >= low.tokens.speculation_efficiency


class TestOffloadPath:
    def test_forced_offload_charges_swap(self, dataset, problem):
        server = TTSServer(
            fasttts_config(
                memory_fraction=0.4, offload=OffloadMode.FORCE,
            ),
            dataset,
        )
        result = server.solve(problem, BeamSearch(n=8))
        assert result.latency.swap > 0

    def test_auto_offload_on_tiny_gpu(self, dataset, problem):
        server = TTSServer(
            fasttts_config(
                device_name="rtx3070ti", memory_fraction=0.95,
            ),
            dataset,
        )
        plan = server.plan_allocation(64)
        result = server.solve(problem, BeamSearch(n=8))
        assert result.goodput > 0
        if plan.offload:
            assert result.latency.swap > 0


class TestPerformanceOrdering:
    def test_fasttts_beats_baseline(self, dataset, problem):
        base = TTSServer(baseline_config(memory_fraction=0.4), dataset).solve(
            problem, BeamSearch(n=32)
        )
        fast = TTSServer(fasttts_config(memory_fraction=0.4), dataset).solve(
            problem, BeamSearch(n=32)
        )
        assert fast.goodput > base.goodput
        assert fast.latency.total < base.latency.total
        assert fast.latency.verification < base.latency.verification

    def test_generation_utilization_improves(self, dataset, problem):
        from repro.engine.telemetry import Phase
        from repro.metrics.utilization import mean_phase_utilization

        base = TTSServer(baseline_config(memory_fraction=0.4), dataset).solve(
            problem, BeamSearch(n=32)
        )
        fast = TTSServer(fasttts_config(memory_fraction=0.4), dataset).solve(
            problem, BeamSearch(n=32)
        )
        assert mean_phase_utilization(
            fast.util_spans, Phase.GENERATION
        ) > mean_phase_utilization(base.util_spans, Phase.GENERATION)
