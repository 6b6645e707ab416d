"""Simulated LLM layer: oracle, generator, PRM verifier, tokenizer."""

from repro.llm.generator import SimulatedGenerator, StepPlan
from repro.llm.oracle import (
    QualityOracle,
    generator_skill,
    sigmoid,
    verifier_noise_scale,
)
from repro.llm.tokenizer import SyntheticTokenizer
from repro.llm.verifier import SimulatedPRM

__all__ = [
    "SimulatedGenerator",
    "StepPlan",
    "SimulatedPRM",
    "QualityOracle",
    "generator_skill",
    "verifier_noise_scale",
    "sigmoid",
    "SyntheticTokenizer",
]
