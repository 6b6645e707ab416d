"""Pure-algorithm reference search (no serving system).

Executes the abstract generation-verification loop directly against the
simulated generator and PRM, with no clock, memory, batching or
speculation. Because every stochastic quantity is keyed, a serving system
is *algorithmically equivalent* to this reference iff it selects the same
lineages and collects the same terminal answers — the property the
equivalence test suite asserts for every server configuration.

It is also the cheapest way to grow realistic reasoning trees for the
memory-behaviour figures (Fig. 5, Fig. 18).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.generator import SimulatedGenerator
from repro.llm.verifier import SimulatedPRM
from repro.models.zoo import model_pair
from repro.search.base import SearchAlgorithm
from repro.search.tree import ReasoningPath
from repro.utils.rng import KeyedRng
from repro.workloads.problem import Dataset, Problem

__all__ = ["ReferenceTrace", "pure_search"]


@dataclass(frozen=True, slots=True)
class ReferenceTrace:
    """Everything a reference search produced."""

    rounds: tuple[tuple[tuple[int, ...], ...], ...]  # active lineages per round
    collected: tuple[ReasoningPath, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def pure_search(
    problem: Problem,
    dataset: Dataset,
    algorithm: SearchAlgorithm,
    model_config: str = "1.5B+1.5B",
    seed: int = 0,
) -> ReferenceTrace:
    """Run the search loop with zero serving machinery."""
    generator_model, verifier_model = model_pair(model_config)
    rng = KeyedRng(seed)
    generator = SimulatedGenerator(generator_model, dataset, rng)
    prm = SimulatedPRM(verifier_model, generator.oracle, rng)
    select_rng = generator.select_rng

    active = [ReasoningPath(lineage=(i,)) for i in range(algorithm.initial_width())]
    collected: list[ReasoningPath] = []
    rounds: list[tuple[tuple[int, ...], ...]] = []

    round_idx = 0
    while active and round_idx < dataset.max_steps:
        rounds.append(tuple(p.lineage for p in active))
        plans = {
            p.lineage: generator.plan_step(
                problem, p.lineage, round_idx, algorithm.step_cap(round_idx)
            )
            for p in active
        }
        for path in active:
            step = plans[path.lineage]
            path.record_step(step.n_tokens, step.soundness)
        if algorithm.verifies_steps:
            for path in active:
                path.record_score(
                    prm.score_step(problem, path.lineage, round_idx, path.mean_soundness)
                )
        survivors = []
        for path in active:
            if plans[path.lineage].is_terminal:
                path.terminal = True
                correct, answer = generator.final_answer(
                    problem, path.lineage, path.mean_soundness
                )
                path.answer = answer
                path.answer_correct = correct
                path.completion_time = float(round_idx + 1)  # rounds, not seconds
                collected.append(path)
            else:
                survivors.append(path)
        if not survivors:
            break
        decision = algorithm.select(survivors, round_idx, select_rng)
        active = [
            expansion.path.make_child(j)
            for expansion in decision.expansions
            for j in range(expansion.n_children)
        ]
        round_idx += 1

    if not algorithm.verifies_steps:
        for path in collected:
            path.record_score(
                prm.score_step(
                    problem, path.lineage, path.steps_done - 1, path.mean_soundness
                )
            )
    return ReferenceTrace(rounds=tuple(rounds), collected=tuple(collected))
