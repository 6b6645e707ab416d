"""Discriminative Process Reward Model simulator.

The paper targets discriminative PRMs (Sec. 2.2): one prefill pass over the
reasoning path yields a score per intermediate step. This simulator scores
a path's step as a noisy logistic observation of the path's latent mean
soundness, with two structured error terms:

* a persistent *subtree bias* inherited from the first branch point, which
  correlates consecutive-step scores (exploited by SelectSPEC) and makes
  pure top-K selection herd into over-rated subtrees (why DVTS helps);
* fresh per-step noise whose scale shrinks with verifier parameter count
  (a 7B Shepherd is a sharper judge than a 1.5B Skywork).

Scores land in (0, 1) like real PRM probabilities.
"""

from __future__ import annotations

from repro.llm.oracle import QualityOracle, sigmoid, verifier_noise_scale
from repro.models.spec import ModelRole, ModelSpec
from repro.utils.rng import KeyedRng, StepTables
from repro.workloads.problem import Problem

__all__ = ["SimulatedPRM"]

_SCORE_GAIN = 1.2
_SCORE_OFFSET = 0.35  # mild optimism, as observed in public PRMs


class SimulatedPRM:
    """Deterministic synthetic PRM for one verifier model.

    :attr:`tables` keeps every score it derived for an acquired problem,
    so each canonical session on this PRM reads the first one's scores.
    """

    def __init__(self, model: ModelSpec, oracle: QualityOracle, rng: KeyedRng) -> None:
        if model.role is not ModelRole.VERIFIER:
            raise ValueError(f"{model.name} is not a verifier model")
        self._model = model
        self._oracle = oracle
        self._rng = rng
        self._noise_scale = verifier_noise_scale(model)
        self.tables = StepTables()

    @property
    def model(self) -> ModelSpec:
        return self._model

    def score_step(
        self,
        problem: Problem,
        lineage: tuple[int, ...],
        step_idx: int,
        mean_soundness: float,
    ) -> float:
        """Score the path after ``step_idx`` given its latent mean soundness.

        Keyed by the path and step only — the same step scored during
        LookAhead Verification and scored conventionally one iteration
        later yields the identical number, which is what makes lookahead
        algorithm-preserving.
        """
        if step_idx < 0:
            raise ValueError("step_idx must be non-negative")
        table = self.tables.get(problem.problem_id, {})
        key = ("score", lineage, step_idx, mean_soundness)
        score = table.get(key)
        if score is None:
            bias = self._oracle.subtree_bias(problem, lineage)
            noise = self._rng.normal(
                "prm-noise",
                problem.problem_id,
                lineage,
                step_idx,
                loc=0.0,
                scale=self._noise_scale,
            )
            score = table[key] = sigmoid(
                _SCORE_GAIN * mean_soundness + _SCORE_OFFSET + bias + noise
            )
        return score
