"""Synthetic stand-ins for the paper's evaluation datasets.

The paper evaluates on AIME 2024 and AMC 2023 (math), MATH-500 for the
motivation study, and HumanEval (code) for generality. Real problem text is
irrelevant to serving behaviour; what matters is each dataset's difficulty
distribution (drives accuracy) and step-length regime (drives the straggler
and memory dynamics). Those parameters are encoded per dataset in the
:data:`DATASETS` registry and every draw is keyed off the dataset seed,
so a dataset is a pure function of ``(name, seed, size)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.registry import Registry
from repro.utils.rng import KeyedRng
from repro.workloads.problem import Dataset, Problem
from repro.workloads.traces import StepLengthModel

__all__ = ["build_dataset", "DATASETS", "DatasetProfile"]


@dataclass(frozen=True, slots=True)
class DatasetProfile:
    """Static recipe for synthesizing one dataset."""

    name: str
    default_size: int
    difficulty_mean: float
    difficulty_std: float
    prompt_tokens_mean: int
    step_model: StepLengthModel
    min_steps: int
    max_steps: int
    termination_rate: float


DATASETS: Registry[DatasetProfile] = Registry("dataset", {
    # AIME 2024: 30 hard competition problems, long meandering steps.
    "aime24": DatasetProfile(
        name="aime24",
        default_size=30,
        difficulty_mean=3.00,
        difficulty_std=0.55,
        prompt_tokens_mean=140,
        step_model=StepLengthModel(median_tokens=150.0, sigma=0.85, max_tokens=1280),
        min_steps=3,
        max_steps=10,
        termination_rate=0.22,
    ),
    # AMC 2023: broader difficulty range, shorter reasoning.
    "amc23": DatasetProfile(
        name="amc23",
        default_size=40,
        difficulty_mean=1.45,
        difficulty_std=0.65,
        prompt_tokens_mean=110,
        step_model=StepLengthModel(median_tokens=110.0, sigma=0.75, max_tokens=1024),
        min_steps=2,
        max_steps=8,
        termination_rate=0.30,
    ),
    # MATH-500: the motivation-study dataset (Fig. 3 left).
    "math500": DatasetProfile(
        name="math500",
        default_size=500,
        difficulty_mean=1.85,
        difficulty_std=0.70,
        prompt_tokens_mean=95,
        step_model=StepLengthModel(median_tokens=100.0, sigma=0.70, max_tokens=1024),
        min_steps=2,
        max_steps=8,
        termination_rate=0.32,
    ),
    # HumanEval: code generation; tighter, more uniform steps (Fig. 15).
    "humaneval": DatasetProfile(
        name="humaneval",
        default_size=164,
        difficulty_mean=1.10,
        difficulty_std=0.60,
        prompt_tokens_mean=160,
        step_model=StepLengthModel(median_tokens=80.0, sigma=0.55, max_tokens=512),
        min_steps=2,
        max_steps=6,
        termination_rate=0.38,
    ),
})


def build_dataset(name: str, seed: int = 0, size: int | None = None) -> Dataset:
    """Synthesize a dataset deterministically from ``(name, seed, size)``."""
    profile = DATASETS[name]
    count = profile.default_size if size is None else size
    if count <= 0:
        raise ConfigError("dataset size must be positive")

    rng = KeyedRng(seed).fork("dataset", name)
    problems = []
    for index in range(count):
        problem_id = f"{name}-{seed}-{index:03d}"
        difficulty = rng.normal(
            "difficulty", index, loc=profile.difficulty_mean, scale=profile.difficulty_std
        )
        answer = rng.randint("answer", index, low=0, high=1000)
        prompt_tokens = max(
            24,
            int(rng.normal("prompt-len", index, loc=profile.prompt_tokens_mean,
                           scale=profile.prompt_tokens_mean * 0.25)),
        )
        problems.append(
            Problem(
                problem_id=problem_id,
                dataset=name,
                difficulty=float(difficulty),
                answer=answer,
                prompt_tokens=prompt_tokens,
            )
        )
    return Dataset(
        name=name,
        problems=tuple(problems),
        step_model=profile.step_model,
        min_steps=profile.min_steps,
        max_steps=profile.max_steps,
        termination_rate=profile.termination_rate,
    )
