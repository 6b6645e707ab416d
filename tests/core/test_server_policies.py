"""Tests for the session's scheduling, segment-naming and lookahead policies."""

import pytest

from repro.core.config import baseline_config, fasttts_config
from repro.core.server import TTSServer
from repro.core.session import lookahead_worthy, path_segments, schedule_jobs
from repro.llm.generator import StepPlan
from repro.search.beam_search import BeamSearch
from repro.search.tree import prompt_segment_id, step_segment_id
from repro.utils.rng import stream_counts
from repro.workloads.datasets import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("amc23", seed=6, size=1)


@pytest.fixture(scope="module")
def problem(dataset):
    return list(dataset)[0]


class TestSegmentNaming:
    def test_shared_mode_uses_prefix_ids(self, problem):
        config = fasttts_config(memory_fraction=0.4)
        segments = path_segments(config, problem, (3, 1), 2)
        assert segments[0] == prompt_segment_id(problem)
        assert segments[1] == step_segment_id(problem, (3, 1), 0)
        # siblings share the ancestor segment
        sibling = path_segments(config, problem, (3, 2), 2)
        assert segments[1] == sibling[1]

    def test_private_mode_isolates_paths(self, problem):
        config = baseline_config(memory_fraction=0.4)
        a = path_segments(config, problem, (3, 1), 2)
        b = path_segments(config, problem, (3, 2), 2)
        # no sharing at all: even the prompt copy is per-path
        assert set(a).isdisjoint(set(b))

    def test_private_ids_stable(self, problem):
        config = baseline_config(memory_fraction=0.4)
        assert path_segments(config, problem, (0,), 1) == path_segments(
            config, problem, (0,), 1
        )


class TestSchedulingPolicy:
    class _FakeJob:
        def __init__(self, lineage):
            self.lineage = lineage

    def jobs(self):
        return [self._FakeJob((i % 3, i)) for i in range(9)]

    def schedule(self, server, problem, round_idx):
        """The server's job order for one generation round."""
        return schedule_jobs(
            server.config, server.rng, problem, self.jobs(), round_idx, "gen"
        )

    def test_prefix_aware_orders_by_lineage(self, dataset, problem):
        server = TTSServer(fasttts_config(memory_fraction=0.4), dataset)
        ordered = self.schedule(server, problem, 0)
        lineages = [j.lineage for j in ordered]
        assert lineages == sorted(lineages)

    def test_naive_order_is_shuffled_but_deterministic(self, dataset, problem):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        first = [j.lineage for j in self.schedule(server, problem, 0)]
        second = [j.lineage for j in self.schedule(server, problem, 0)]
        assert first == second  # keyed: reproducible
        assert first != sorted(first)  # but not tree-grouped

    def test_naive_order_varies_by_round(self, dataset, problem):
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        round0 = [j.lineage for j in self.schedule(server, problem, 0)]
        round1 = [j.lineage for j in self.schedule(server, problem, 1)]
        assert round0 != round1


class TestLookaheadGate:
    def test_top_bin_required(self):
        from repro.search.tree import ReasoningPath

        algo = BeamSearch(n=8, branching_factor=4)
        strong = ReasoningPath(lineage=(0,))
        strong.record_step(10, 0.0)
        strong.record_score(0.9)
        weak = ReasoningPath(lineage=(1,))
        weak.record_step(10, 0.0)
        weak.record_score(0.2)
        assert lookahead_worthy(strong, algo)
        assert not lookahead_worthy(weak, algo)


class TestPlanTable:
    def test_plans_are_derived_once_for_every_session(self, dataset, problem):
        server = TTSServer(fasttts_config(memory_fraction=0.4), dataset)
        session = server.session(problem, BeamSearch(n=8))
        table = server.generator.tables[problem.problem_id]
        assert table == {}
        session.run()
        # after a solve the problem's table holds the steps that were planned
        steps = [step for key, step in table.items() if key[0] == "plan"]
        plans = [step for step in steps if isinstance(step, StepPlan)]
        assert plans and all(plan.n_tokens > 0 for plan in plans)
        # and a later session plans from it: no stream built, no entry added
        entries, built = dict(table), stream_counts.built
        server.session(problem, BeamSearch(n=8)).run()
        assert table == entries and stream_counts.built == built
