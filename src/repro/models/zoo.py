"""Model zoo: the generator and verifier models from the paper's artifact.

Sec. 6.1 / Appendix B.3.5 list four models:

* generators — ``Qwen/Qwen2.5-Math-1.5B-Instruct``,
  ``Qwen/Qwen2.5-Math-7B-Instruct``;
* verifiers  — ``peiyi9979/math-shepherd-mistral-7b-prm`` (Mistral-7B base),
  ``Skywork/Skywork-o1-Open-PRM-Qwen-2.5-1.5B`` (Qwen2.5-1.5B base).

Architecture geometry below is taken from the public HuggingFace configs of
those checkpoints; it fully determines per-token FLOPs and KV bytes. The
specs are registered by name in :data:`MODELS`, and the paper's three
generator+verifier pairings in :data:`MODEL_CONFIGS` (both
:class:`~repro.utils.registry.Registry` tables).
"""

from __future__ import annotations

from repro.models.spec import ModelRole, ModelSpec
from repro.utils.registry import Registry

__all__ = [
    "QWEN25_MATH_1P5B",
    "QWEN25_MATH_7B",
    "MATH_SHEPHERD_7B",
    "SKYWORK_PRM_1P5B",
    "MODELS",
    "MODEL_CONFIGS",
    "get_model",
    "model_pair",
]

MODELS: Registry[ModelSpec] = Registry("model")


def get_model(name: str) -> ModelSpec:
    """Look up a model by registry key."""
    return MODELS[name]


QWEN25_MATH_1P5B = ModelSpec(
    name="qwen2.5-math-1.5b",
    role=ModelRole.GENERATOR,
    param_count=1_540_000_000,
    n_layers=28,
    hidden_size=1536,
    n_heads=12,
    n_kv_heads=2,
    head_dim=128,
    intermediate_size=8960,
    vocab_size=151_936,
)

QWEN25_MATH_7B = ModelSpec(
    name="qwen2.5-math-7b",
    role=ModelRole.GENERATOR,
    param_count=7_620_000_000,
    n_layers=28,
    hidden_size=3584,
    n_heads=28,
    n_kv_heads=4,
    head_dim=128,
    intermediate_size=18_944,
    vocab_size=152_064,
)

MATH_SHEPHERD_7B = ModelSpec(
    name="math-shepherd-mistral-7b",
    role=ModelRole.VERIFIER,
    param_count=7_240_000_000,
    n_layers=32,
    hidden_size=4096,
    n_heads=32,
    n_kv_heads=8,
    head_dim=128,
    intermediate_size=14_336,
    vocab_size=32_000,
)

SKYWORK_PRM_1P5B = ModelSpec(
    name="skywork-o1-prm-1.5b",
    role=ModelRole.VERIFIER,
    param_count=1_540_000_000,
    n_layers=28,
    hidden_size=1536,
    n_heads=12,
    n_kv_heads=2,
    head_dim=128,
    intermediate_size=8960,
    vocab_size=151_936,
)

for _spec in (QWEN25_MATH_1P5B, QWEN25_MATH_7B, MATH_SHEPHERD_7B, SKYWORK_PRM_1P5B):
    MODELS.register(_spec.name, _spec)

# The paper's three generator+verifier configurations (Sec. 6.1):
#   "1.5B+1.5B" memory-constrained, "1.5B+7B" verifier-heavy,
#   "7B+1.5B" generator-heavy.
MODEL_CONFIGS: Registry[tuple[str, str]] = Registry("model config", {
    "1.5B+1.5B": ("qwen2.5-math-1.5b", "skywork-o1-prm-1.5b"),
    "1.5B+7B": ("qwen2.5-math-1.5b", "math-shepherd-mistral-7b"),
    "7B+1.5B": ("qwen2.5-math-7b", "skywork-o1-prm-1.5b"),
})


def model_pair(config: str) -> tuple[ModelSpec, ModelSpec]:
    """Return ``(generator, verifier)`` for a paper configuration name."""
    generator_name, verifier_name = MODEL_CONFIGS[config]
    return MODELS[generator_name], MODELS[verifier_name]
