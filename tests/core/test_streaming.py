"""Tests for request-arrival preemption and stream serving."""

import pytest

from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.server import TTSServer
from repro.search.beam_search import BeamSearch
from repro.workloads.datasets import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("amc23", seed=4, size=3)


@pytest.fixture(scope="module")
def problem(dataset):
    return list(dataset)[0]


ALGO = BeamSearch(n=16)


def solve_with_arrival(server, problem, arrival_s):
    """Solve ``problem`` with another request arriving at ``arrival_s`` on
    the solve's own clock."""
    session = server.session(problem, ALGO)
    session.set_arrival_offsets(arrival_s)
    return session.run().result


class TestArrivalPreemption:
    def test_early_arrival_suppresses_speculation(self, dataset, problem):
        free = TTSServer(fasttts_config(memory_fraction=0.4), dataset).solve(
            problem, ALGO
        )
        preempted = solve_with_arrival(
            TTSServer(fasttts_config(memory_fraction=0.4), dataset), problem, 0.0
        )
        spec_free = free.tokens.speculative_used + free.tokens.speculative_wasted
        spec_pre = (
            preempted.tokens.speculative_used + preempted.tokens.speculative_wasted
        )
        assert spec_free > 0
        assert spec_pre < spec_free * 0.2

    def test_preemption_preserves_results(self, dataset, problem):
        """Paper: preemption stops speculation, never the algorithm."""
        free = TTSServer(fasttts_config(memory_fraction=0.4), dataset).solve(
            problem, ALGO
        )
        preempted = solve_with_arrival(
            TTSServer(fasttts_config(memory_fraction=0.4), dataset), problem, 1.0
        )
        assert sorted((b.lineage, b.answer) for b in free.beams) == sorted(
            (b.lineage, b.answer) for b in preempted.beams
        )

    def test_late_arrival_changes_nothing(self, dataset, problem):
        free = TTSServer(fasttts_config(memory_fraction=0.4), dataset).solve(
            problem, ALGO
        )
        late = solve_with_arrival(
            TTSServer(fasttts_config(memory_fraction=0.4), dataset),
            problem, free.latency.total * 10,
        )
        assert late.latency.total == free.latency.total

    def test_baseline_unaffected_by_arrivals(self, dataset, problem):
        base = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        a = base.solve(problem, ALGO)
        b = solve_with_arrival(base, problem, 0.0)
        assert a.latency.total == b.latency.total


def serve_stream(dataset, inter_arrival_s, config=fasttts_config):
    """A one-lane FIFO fleet serving request *i* at ``i * inter_arrival_s``;
    results in arrival order, with the fleet's records."""
    fleet = TTSFleet(config(memory_fraction=0.4), dataset)
    for index, problem in enumerate(dataset):
        fleet.submit(problem, ALGO, arrival_s=index * inter_arrival_s)
    report = fleet.drain()
    assert all(record.accepted for record in report.records)
    return [report.results[r.request_id] for r in report.records], report.records


class TestServeStream:
    def test_stream_returns_all(self, dataset):
        results, _ = serve_stream(dataset, 5.0)
        assert len(results) == 3
        assert len({r.problem_id for r in results}) == 3

    def test_dense_stream_suppresses_more_speculation_than_sparse(self, dataset):
        dense, _ = serve_stream(dataset, 0.5)
        sparse, _ = serve_stream(dataset, 1e6)
        spec = lambda results: sum(  # noqa: E731
            r.tokens.speculative_used + r.tokens.speculative_wasted for r in results
        )
        assert spec(dense) < spec(sparse)

    def test_stream_results_match_isolated_runs_algorithmically(self, dataset):
        stream, _ = serve_stream(dataset, 1.0)
        isolated = TTSServer(fasttts_config(memory_fraction=0.4), dataset).run(
            list(dataset), ALGO
        )
        for s, i in zip(stream, isolated):
            assert [b.answer for b in s.beams] == [b.answer for b in i.beams]

    @pytest.mark.parametrize("config", [fasttts_config, baseline_config])
    @pytest.mark.parametrize("inter_arrival_s", [0.0, 1.0, 1e6])
    def test_fleet_stream_is_back_to_back_solves(
        self, dataset, config, inter_arrival_s
    ):
        """One FIFO lane serves a stream exactly as solving each request in
        turn, with the next arrival (on the solve's own clock) preempting
        its speculation."""
        results, records = serve_stream(dataset, inter_arrival_s, config)
        server = TTSServer(config(memory_fraction=0.4), dataset)
        problems = list(dataset)
        finished_at = 0.0
        for index, problem in enumerate(problems):
            start = max(finished_at, index * inter_arrival_s)
            if index + 1 < len(problems):
                solo = solve_with_arrival(
                    server, problem, (index + 1) * inter_arrival_s - start
                )
            else:
                solo = server.solve(problem, ALGO)
            finished_at = start + solo.latency.total
            assert results[index].to_json_dict() == solo.to_json_dict()
            assert records[index].finish_s == finished_at


class TestQuantizedServing:
    def test_int8_faster_same_results(self, dataset, problem):
        fp16 = TTSServer(fasttts_config(memory_fraction=0.4), dataset).solve(
            problem, ALGO
        )
        int8 = TTSServer(
            fasttts_config(memory_fraction=0.4, quantization="int8"), dataset
        ).solve(problem, ALGO)
        assert int8.goodput > fp16.goodput
        assert sorted((b.lineage, b.answer) for b in int8.beams) == sorted(
            (b.lineage, b.answer) for b in fp16.beams
        )

    def test_quantization_enables_tight_fits(self, dataset, problem):
        """int8 lets the 7B pair fit where fp16 cannot."""
        from repro.errors import CapacityError

        cfg_fp16 = fasttts_config(
            device_name="rtx4070ti", model_config="7B+1.5B", memory_fraction=0.95
        )
        with pytest.raises(CapacityError):
            TTSServer(cfg_fp16, dataset)
        cfg_int8 = cfg_fp16.with_overrides(quantization="int8")
        server = TTSServer(cfg_int8, dataset)
        assert server.kv_budget_bytes > 0
