"""Latent quality model: the ground truth behind generation and verification.

Real reasoning LLMs produce steps of varying *soundness*; a PRM observes
that soundness noisily; final-answer correctness correlates with it. This
module encodes that causal chain with three knobs per model:

* **generator skill** — mean step soundness, scaling logarithmically with
  parameter count (a 7B generator is meaningfully but not magically better
  than a 1.5B one);
* **verifier noise** — how blurry the PRM's view of soundness is, shrinking
  with verifier size;
* **subtree bias** — a persistent per-branch score offset. PRM errors are
  not i.i.d.: once a verifier over-rates a line of reasoning it keeps
  over-rating its descendants. This is what makes diverse selection (DVTS)
  beat plain beam search on accuracy (paper Fig. 3 left), because global
  top-K selection herds every beam into over-rated subtrees.

Every draw is keyed by ``(problem, lineage, step)`` so results are
schedule-invariant (see :mod:`repro.utils.rng`). The per-subtree and
per-problem constants (approach quality, subtree bias, a subtree's shared
answer vote, distractor pool) are asked for at every step or by every
beam but keyed by ``(problem, root branch)`` or the problem alone; an
oracle draws each once and remembers it — same keyed stream, same bits,
one draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.models.spec import ModelSpec
from repro.utils.rng import KeyedRng
from repro.workloads.problem import Problem

__all__ = [
    "generator_skill",
    "verifier_noise_scale",
    "QualityOracle",
    "sigmoid",
]

_REFERENCE_PARAMS = 1.54e9  # Qwen2.5-Math-1.5B, the paper's anchor model
_SKILL_AT_REFERENCE = 0.90
_SKILL_PER_DECADE = 0.93
_NOISE_AT_REFERENCE = 0.45
_NOISE_SHRINK_EXPONENT = 0.35
_SOUNDNESS_STD = 0.65
_APPROACH_STD = 0.70
_SUBTREE_BIAS_STD = 0.55
_CORRECTNESS_GAIN = 1.6
# Wrong answers are not uniform noise: most flawed derivations land on a
# handful of problem-specific "attractor" values (sign slips, off-by-one
# counts), which is what keeps majority voting honest. A Zipf-weighted
# distractor pool models that clustering; a scatter fraction covers truly
# idiosyncratic mistakes.
_N_DISTRACTORS = 4
_DISTRACTOR_WEIGHTS = tuple(1.0 / (j + 1) for j in range(_N_DISTRACTORS))
_SCATTER_FRACTION = 0.25
# Beams duplicated within one subtree produce near-identical conclusions:
# their answer draws share the subtree's uniform with this probability
# (comonotonic coupling). Herded searches therefore cast what is
# effectively a single vote per subtree, while diverse searches cast
# independent ones — the accuracy mechanism behind DVTS.
_VOTE_CORRELATION = 0.6


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def generator_skill(model: ModelSpec) -> float:
    """Mean step soundness of a generator, by parameter count."""
    decades = math.log10(model.param_count / _REFERENCE_PARAMS)
    return _SKILL_AT_REFERENCE + _SKILL_PER_DECADE * decades


def verifier_noise_scale(model: ModelSpec) -> float:
    """Std of the PRM's per-step observation noise, by parameter count."""
    scale = (model.param_count / _REFERENCE_PARAMS) ** _NOISE_SHRINK_EXPONENT
    return _NOISE_AT_REFERENCE / scale


@dataclass(frozen=True)
class QualityOracle:
    """Deterministic access to the latent quality process.

    One oracle is shared by generator and verifier simulators so that both
    observe the *same* latent soundness values for a path. The memo of
    per-subtree constants and votes belongs to the instance: a replica on
    a forked rng builds its own oracle and never sees another's values,
    and its size is bounded by problems x initial width.
    """

    rng: KeyedRng
    _subtree_draws: dict[tuple, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _distractors: dict[tuple[str, int], tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _subtree_normal(self, label: str, problem: Problem, root: int, scale: float) -> float:
        """The subtree's ``N(0, scale)`` constant for ``label``, drawn once."""
        key = (label, problem.problem_id, root)
        value = self._subtree_draws.get(key)
        if value is None:
            value = self._subtree_draws[key] = self.rng.normal(
                *key, loc=0.0, scale=scale
            )
        return value

    def approach_quality(self, problem: Problem, lineage: tuple[int, ...]) -> float:
        """Persistent quality of the solution *approach* a root beam chose.

        The first thinking step commits a path to an approach (induction vs
        coordinates vs casework...); its quality persists down the whole
        subtree and cannot be rescued later. This is why answer votes
        correlate within a subtree and why forced subtree diversity (DVTS)
        buys accuracy that global top-K selection cannot.
        """
        if not lineage:
            return 0.0
        draw = self._subtree_draws.get(("approach", problem.problem_id, lineage[0]))
        if draw is None:  # the memo is read first: a hit costs no call
            draw = self._subtree_normal("approach", problem, lineage[0], _APPROACH_STD)
        return draw

    def step_soundness(
        self, problem: Problem, lineage: tuple[int, ...], step_idx: int, skill: float
    ) -> float:
        """Latent soundness of one thinking step.

        Centered on ``skill - difficulty`` plus the subtree's persistent
        approach quality: stronger models on easier problems with a good
        approach reason more soundly.
        """
        return self.rng.normal(
            "soundness",
            problem.problem_id,
            lineage,
            step_idx,
            loc=skill - problem.difficulty + self.approach_quality(problem, lineage),
            scale=_SOUNDNESS_STD,
        )

    def subtree_bias(self, problem: Problem, lineage: tuple[int, ...]) -> float:
        """Persistent verifier bias inherited from the first branch point.

        Paths in the same first-level subtree share one bias draw, so PRM
        scores are correlated along a reasoning line (the property the
        speculative-candidate heuristic exploits, paper Sec. 4.1.1).
        """
        if not lineage:
            return 0.0
        root = lineage[0]
        draw = self._subtree_draws.get(("subtree-bias", problem.problem_id, root))
        if draw is None:
            draw = self._subtree_normal("subtree-bias", problem, root, _SUBTREE_BIAS_STD)
        return draw

    def correctness_probability(self, mean_soundness: float) -> float:
        """P(final answer correct | mean step soundness of the path)."""
        return sigmoid(_CORRECTNESS_GAIN * mean_soundness)

    def distractors(self, problem: Problem) -> tuple[int, ...]:
        """The problem's attractor wrong answers (stable per problem)."""
        key = (problem.problem_id, problem.answer)
        values = self._distractors.get(key)
        if values is None:
            draws = (
                self.rng.randint(
                    "distractor-value", problem.problem_id, j, low=0, high=999
                )
                for j in range(_N_DISTRACTORS)
            )
            # never collide with the truth
            values = self._distractors[key] = tuple(
                wrong + 1 if wrong >= problem.answer else wrong for wrong in draws
            )
        return values

    def emit_answer(
        self, problem: Problem, lineage: tuple[int, ...], mean_soundness: float
    ) -> tuple[bool, int]:
        """Sample the final answer for a terminated path.

        Correct answers coincide on the ground truth; wrong answers mostly
        cluster on the problem's Zipf-weighted distractors, with a scatter
        fraction of per-path idiosyncratic values. Majority voting must
        therefore beat the heaviest distractor, not just any noise.
        """
        pid = problem.problem_id
        shared_vote = (
            self.rng.uniform("vote-coupling", pid, lineage) < _VOTE_CORRELATION
        )
        vote_key: tuple = lineage[:1] if shared_vote and lineage else lineage
        # A subtree's vote is cast by many beams: draw it once, like the
        # subtree constants; the wrong answer it casts, once it is needed.
        # Deeper vote keys are one path's own.
        draws = self._subtree_draws if len(vote_key) == 1 else {}
        key = ("vote", pid, vote_key, problem.answer)
        vote = draws.get(key)
        if vote is None:
            vote = draws[key] = [self.rng.uniform("answer-correct", pid, vote_key), None]
        if vote[0] < self.correctness_probability(mean_soundness):
            return True, problem.answer
        if vote[1] is None:
            vote[1] = self._wrong_answer(problem, vote_key)
        return False, vote[1]

    def _wrong_answer(self, problem: Problem, vote_key: tuple) -> int:
        """The wrong answer a vote casts: scattered, or a distractor."""
        pid = problem.problem_id
        if self.rng.uniform("answer-scatter", pid, vote_key) < _SCATTER_FRACTION:
            wrong = self.rng.randint("answer-wrong", pid, vote_key, low=0, high=999)
            return wrong + 1 if wrong >= problem.answer else wrong
        pick = self.rng.choice_index(
            "distractor-pick", pid, vote_key, weights=_DISTRACTOR_WEIGHTS
        )
        return self.distractors(problem)[pick]
