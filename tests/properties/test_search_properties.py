"""Property-based tests on search algorithms and the generation model."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.llm.generator import SimulatedGenerator
from repro.models.zoo import QWEN25_MATH_1P5B
from repro.search.registry import build_algorithm
from repro.search.tree import ReasoningPath
from repro.utils.rng import KeyedRng, stream_counts
from repro.workloads.datasets import build_dataset

DATASET = build_dataset("amc23", seed=9, size=2)
PROBLEM = list(DATASET)[0]
GENERATOR = SimulatedGenerator(QWEN25_MATH_1P5B, DATASET, KeyedRng(9))


def scored_paths(scores):
    paths = []
    for i, score in enumerate(scores):
        path = ReasoningPath(lineage=(i,))
        path.record_step(5, 0.0)
        path.record_score(score)
        paths.append(path)
    return paths


class TestSelectionProperties:
    @given(
        st.sampled_from(["beam_search", "dvts", "dynamic_branching",
                         "varying_granularity"]),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32),
    )
    @settings(max_examples=80, deadline=None)
    def test_selection_within_budget(self, name, scores):
        n = 16
        if name == "dvts" and len(scores) > n:
            scores = scores[:n]
        algo = build_algorithm(name, n)
        decision = algo.select(scored_paths(scores), 0, KeyedRng(0))
        assert decision.total_children <= max(n, len(scores))
        for expansion in decision.expansions:
            assert expansion.n_children >= 1
            assert not expansion.path.terminal

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_beam_keeps_best(self, scores):
        algo = build_algorithm("beam_search", 8)
        paths = scored_paths(scores)
        decision = algo.select(paths, 0, KeyedRng(0))
        kept = {e.path.last_score for e in decision.expansions}
        cutoff = sorted(scores, reverse=True)[len(kept) - 1]
        assert all(s >= cutoff or s in kept for s in kept)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32),
           st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_selection_deterministic(self, scores, round_idx):
        algo = build_algorithm("dynamic_branching", 16)
        a = algo.select(scored_paths(scores), round_idx, KeyedRng(1))
        b = algo.select(scored_paths(scores), round_idx, KeyedRng(1))
        assert [(e.path.lineage, e.n_children) for e in a.expansions] == [
            (e.path.lineage, e.n_children) for e in b.expansions
        ]


class TestGenerationProperties:
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple),
        st.integers(0, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_plan_pure(self, lineage, step_idx):
        if step_idx + 1 > len(lineage):
            lineage = lineage + (0,) * (step_idx + 1 - len(lineage))
        a = GENERATOR.plan_step(PROBLEM, lineage, step_idx)
        b = GENERATOR.plan_step(PROBLEM, lineage, step_idx)
        assert a == b

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple),
        st.integers(1, 2048),
    )
    @settings(max_examples=100, deadline=None)
    def test_cap_respected_and_orthogonal(self, lineage, cap):
        capped = GENERATOR.plan_step(PROBLEM, lineage, 0, max_step_tokens=cap)
        free = GENERATOR.plan_step(PROBLEM, lineage, 0)
        assert capped.n_tokens <= max(cap, 1)
        assert capped.soundness == free.soundness
        assert capped.is_terminal == free.is_terminal
        assert capped.n_tokens <= free.n_tokens

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple),
        st.integers(0, 7),
        st.one_of(st.none(), st.integers(1, 2048)),  # 1..7 sit below min_tokens
    )
    @settings(max_examples=150, deadline=None)
    def test_step_tokens_is_the_plans_length_and_can_be_handed_back(
        self, lineage, step_idx, cap
    ):
        def tabled():
            generator = SimulatedGenerator(QWEN25_MATH_1P5B, DATASET, KeyedRng(9))
            generator.tables.acquire(PROBLEM.problem_id)
            return generator

        def streams(derive):
            before = stream_counts.built
            value = derive()
            return value, stream_counts.built - before

        untabled = GENERATOR.plan_step(PROBLEM, lineage, step_idx, cap)
        full, planned = streams(lambda: tabled().plan_step(PROBLEM, lineage, step_idx, cap))
        generator = tabled()
        length, drawn = streams(
            lambda: generator.step_tokens(PROBLEM, lineage, step_idx, cap)
        )
        plan, rest = streams(lambda: generator.plan_step(PROBLEM, lineage, step_idx, cap))
        assert length == full.n_tokens and plan == full == untabled
        # A cap below the floor fixes the length; otherwise it is one draw,
        # which the plan reads back instead of drawing it again ...
        floor = DATASET.step_model.min_tokens
        assert drawn == (0 if cap is not None and cap < floor else 1)
        assert rest == planned - drawn
        # ... and a repeat builds nothing.
        again = streams(lambda: (
            generator.step_tokens(PROBLEM, lineage, step_idx, cap),
            generator.plan_step(PROBLEM, lineage, step_idx, cap),
        ))
        assert again == ((length, plan), 0)
