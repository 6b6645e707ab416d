"""Step-structured reasoning generator simulator.

The generator's observable behaviour — the only thing the serving system
reacts to — is: *how many tokens does this beam's next thinking step have,
does the path terminate after it, and how sound was the reasoning*. All
three are pure functions of ``(problem, lineage, step)`` via keyed RNG,
making generation order-independent: a speculative execution of step ``k+1``
produces exactly the tokens a non-speculative execution would have.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.oracle import QualityOracle, generator_skill, sigmoid
from repro.models.spec import ModelRole, ModelSpec
from repro.utils.rng import KeyedRng, StepTables
from repro.workloads.problem import Dataset, Problem

__all__ = ["StepPlan", "SimulatedGenerator"]


@dataclass(frozen=True, slots=True)
class StepPlan:
    """Everything knowable about one thinking step once it is generated."""

    n_tokens: int
    is_terminal: bool
    soundness: float


class SimulatedGenerator:
    """Deterministic synthetic generator for one model + dataset pair.

    It derives each step value once: :attr:`tables` keeps, per problem a
    session has acquired, every step length, plan and answer it drew (and
    the segment chains and truncation cuts its sessions derive), so every
    canonical session on this generator reads what the first one derived.
    """

    def __init__(self, model: ModelSpec, dataset: Dataset, rng: KeyedRng) -> None:
        if model.role is not ModelRole.GENERATOR:
            raise ValueError(f"{model.name} is not a generator model")
        self._model = model
        self._dataset = dataset
        self._rng = rng
        self._oracle = QualityOracle(rng=rng.fork("oracle"))
        self._skill = generator_skill(model)
        self.tables = StepTables()
        #: Handed to every search's ``select``: a fork is a pure function
        #: of (seed, key), so it is derived once per generator.
        self.select_rng = rng.fork("select")

    @property
    def model(self) -> ModelSpec:
        return self._model

    @property
    def skill(self) -> float:
        return self._skill

    @property
    def oracle(self) -> QualityOracle:
        return self._oracle

    def step_tokens(
        self,
        problem: Problem,
        lineage: tuple[int, ...],
        step_idx: int,
        max_step_tokens: int | None = None,
    ) -> int:
        """Token count of the addressed step: the length draw alone.

        All a speculative head start, a cost predictor or a length profile
        reads; soundness and termination are drawn by :meth:`plan_step`
        only for steps the search actually takes. A step's table entry is
        its length until the step is planned, then its :class:`StepPlan`.
        """
        if step_idx < 0:
            raise ValueError("step_idx must be non-negative")
        table = self.tables.get(problem.problem_id, {})
        key = ("plan", lineage, step_idx, max_step_tokens)
        step = table.get(key)
        if step is None:
            step = table[key] = self._dataset.step_model.sample(
                self._rng, problem.problem_id, lineage, step_idx, cap=max_step_tokens
            )
        return step if type(step) is int else step.n_tokens

    def plan_step(
        self,
        problem: Problem,
        lineage: tuple[int, ...],
        step_idx: int,
        max_step_tokens: int | None = None,
    ) -> StepPlan:
        """Resolve one thinking step for the addressed beam.

        ``max_step_tokens`` lets search variants impose per-step budgets
        (Varying Granularity). A tighter budget truncates the step but does
        not change the termination or soundness draws, mirroring how real
        systems cap ``max_tokens`` without altering the sampling recipe.
        """
        table = self.tables.get(problem.problem_id, {})
        key = ("plan", lineage, step_idx, max_step_tokens)
        plan = table.get(key)
        if type(plan) is StepPlan:
            return plan
        n_tokens = self.step_tokens(problem, lineage, step_idx, max_step_tokens)
        soundness = self._oracle.step_soundness(problem, lineage, step_idx, self._skill)
        plan = table[key] = StepPlan(
            n_tokens=n_tokens,
            is_terminal=self._is_terminal(problem, lineage, step_idx, soundness),
            soundness=soundness,
        )
        return plan

    def _is_terminal(
        self,
        problem: Problem,
        lineage: tuple[int, ...],
        step_idx: int,
        soundness: float,
    ) -> bool:
        """Does the path emit its final answer at the end of this step?

        Sounder reasoning converges sooner: the per-step termination rate is
        scaled by a logistic function of the step's soundness (range 0.5x to
        1.5x the dataset rate). This is why verifier-guided searches that
        keep the strongest beams (beam search) finish earlier than searches
        that deliberately retain diversity (DVTS) — the latency ordering of
        the paper's Fig. 3 (left). Both inputs are keyed draws, so
        termination remains schedule-invariant.
        """
        steps_done = step_idx + 1
        if steps_done >= self._dataset.max_steps:
            return True
        if steps_done < self._dataset.min_steps:
            return False
        rate = self._dataset.termination_rate * (0.4 + 1.2 * sigmoid(soundness))
        draw = self._rng.uniform("terminal", problem.problem_id, lineage, step_idx)
        return draw < rate

    def final_answer(
        self, problem: Problem, lineage: tuple[int, ...], mean_soundness: float
    ) -> tuple[bool, int]:
        """Emit the terminated path's answer via the oracle."""
        table = self.tables.get(problem.problem_id, {})
        key = ("answer", lineage, mean_soundness)
        answer = table.get(key)
        if answer is None:
            answer = table[key] = self._oracle.emit_answer(
                problem, lineage, mean_soundness
            )
        return answer
