"""Tests for the five TTS search algorithm variants."""

import pytest

from repro.errors import UnknownNameError
from repro.search.base import SearchAlgorithm
from repro.search.beam_search import BeamSearch
from repro.search.best_of_n import BestOfN
from repro.search.dvts import DVTS
from repro.search.dynamic_branching import DynamicBranching, proportional_allocation
from repro.search.registry import ALGORITHMS, build_algorithm
from repro.search.tree import ReasoningPath
from repro.search.varying_granularity import VaryingGranularity
from repro.utils.rng import KeyedRng


def make_paths(scores):
    paths = []
    for i, score in enumerate(scores):
        path = ReasoningPath(lineage=(i,))
        path.record_step(10, 0.0)
        path.record_score(score)
        paths.append(path)
    return paths


RNG = KeyedRng(0)


class TestBestOfN:
    def test_never_prunes(self):
        algo = BestOfN(n=8)
        decision = algo.select(make_paths([0.1] * 8), 0, RNG)
        assert len(decision.expansions) == 8
        assert decision.total_children == 8

    def test_no_step_verification(self):
        assert not BestOfN(n=4).verifies_steps

    @pytest.mark.parametrize("name", ALGORITHMS.names())
    def test_only_best_of_n_skips_step_verification(self, name):
        assert build_algorithm(name, 16).verifies_steps == (name != "best_of_n")

    def test_branching_factor_one(self):
        assert BestOfN(n=4).branching_factor == 1


class TestBeamSearch:
    def test_keeps_global_top_k(self):
        algo = BeamSearch(n=8, branching_factor=4)
        paths = make_paths([0.1, 0.9, 0.5, 0.8, 0.2, 0.3, 0.7, 0.4])
        decision = algo.select(paths, 0, RNG)
        kept_scores = {e.path.last_score for e in decision.expansions}
        assert kept_scores == {0.9, 0.8}

    def test_restores_full_width(self):
        algo = BeamSearch(n=8, branching_factor=4)
        decision = algo.select(make_paths([0.5] * 8), 0, RNG)
        assert decision.total_children == 8

    def test_few_survivors_branch_within_cap(self):
        algo = BeamSearch(n=16, branching_factor=4)
        decision = algo.select(make_paths([0.5]), 0, RNG)
        # One survivor still branches at most M ways.
        assert decision.total_children == 4

    def test_empty_active(self):
        assert BeamSearch(n=8).select([], 0, RNG).expansions == ()

    def test_deterministic_tie_break(self):
        algo = BeamSearch(n=4, branching_factor=4)
        paths = make_paths([0.5, 0.5, 0.5, 0.5])
        first = algo.select(paths, 0, RNG)
        second = algo.select(paths, 0, RNG)
        assert [e.path.lineage for e in first.expansions] == [
            e.path.lineage for e in second.expansions
        ]


class TestDVTS:
    def test_requires_divisible_budget(self):
        with pytest.raises(ValueError):
            DVTS(n=10, branching_factor=4)

    def test_one_survivor_per_subtree(self):
        algo = DVTS(n=8, branching_factor=4)  # 2 subtrees
        paths = make_paths([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])
        decision = algo.select(paths, 0, RNG)
        subtrees = {algo.subtree_of(e.path) for e in decision.expansions}
        assert subtrees == {0, 1}
        assert decision.total_children == 8

    def test_diversity_vs_beam(self):
        """DVTS survivors span subtrees even when one subtree dominates."""
        algo = DVTS(n=8, branching_factor=4)
        # Subtree 0 (paths 0, 2, 4, 6) has all the best scores.
        paths = make_paths([0.9, 0.1, 0.8, 0.15, 0.85, 0.12, 0.7, 0.05])
        decision = algo.select(paths, 0, RNG)
        assert len(decision.expansions) == 2  # one per subtree regardless

    def test_dead_subtree_not_revived(self):
        algo = DVTS(n=8, branching_factor=4)
        paths = [p for p in make_paths([0.5] * 8) if p.lineage[0] % 2 == 0]
        decision = algo.select(paths, 0, RNG)
        assert len(decision.expansions) == 1


class TestDynamicBranching:
    def test_proportional_allocation_sums(self):
        shares = proportional_allocation([0.5, 0.3, 0.2], 10)
        assert sum(shares) == 10
        assert all(s >= 1 for s in shares)
        assert shares[0] >= shares[1] >= shares[2]

    def test_allocation_zero_weights(self):
        assert proportional_allocation([0.0, 0.0], 4) == [2, 2]

    def test_allocation_total_too_small(self):
        with pytest.raises(ValueError):
            proportional_allocation([1.0, 1.0], 1)

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError):
            proportional_allocation([-1.0], 2)

    def test_high_scores_branch_more(self):
        algo = DynamicBranching(n=16, branching_factor=4)
        paths = make_paths([0.9, 0.8, 0.1, 0.05])
        decision = algo.select(paths, 0, RNG)
        by_score = {e.path.last_score: e.n_children for e in decision.expansions}
        assert by_score[0.9] >= by_score[0.1]
        assert decision.total_children == 16


class TestVaryingGranularity:
    def test_step_caps_schedule(self):
        algo = VaryingGranularity(n=8, fine_cap=64, coarse_cap=2048, fine_rounds=3)
        assert algo.step_cap(0) == 64
        assert algo.step_cap(2) == 64
        assert algo.step_cap(3) == 2048

    def test_invalid_caps(self):
        with pytest.raises(ValueError):
            VaryingGranularity(n=8, fine_cap=100, coarse_cap=50)


class TestRegistry:
    def test_all_variants_listed(self):
        assert set(ALGORITHMS.names()) == {
            "best_of_n", "beam_search", "dvts", "dynamic_branching",
            "varying_granularity",
        }

    def test_build_by_name(self):
        algo = build_algorithm("beam_search", 16, branching_factor=2)
        assert isinstance(algo, BeamSearch)
        assert algo.branching_factor == 2

    def test_unknown_raises(self):
        with pytest.raises(UnknownNameError):
            build_algorithm("mcts", 8)


class TestBaseValidation:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            BeamSearch(n=0)

    def test_keep_count_floor(self):
        assert BeamSearch(n=4, branching_factor=8).keep_count(10) == 1

    def test_abstract_cannot_instantiate(self):
        with pytest.raises(TypeError):
            SearchAlgorithm(n=4)  # type: ignore[abstract]
