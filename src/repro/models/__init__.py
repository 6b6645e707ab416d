"""Model substrate: architecture specs, registry, and cost functions."""

from repro.models.costs import StageCost, decode_step_cost, prefill_cost
from repro.models.quantize import DTYPES, quantized
from repro.models.spec import ModelRole, ModelSpec
from repro.models.zoo import (
    MATH_SHEPHERD_7B,
    MODEL_CONFIGS,
    MODELS,
    QWEN25_MATH_1P5B,
    QWEN25_MATH_7B,
    SKYWORK_PRM_1P5B,
    get_model,
    model_pair,
)

__all__ = [
    "ModelSpec",
    "ModelRole",
    "StageCost",
    "prefill_cost",
    "decode_step_cost",
    "MODELS",
    "MODEL_CONFIGS",
    "get_model",
    "model_pair",
    "QWEN25_MATH_1P5B",
    "QWEN25_MATH_7B",
    "MATH_SHEPHERD_7B",
    "SKYWORK_PRM_1P5B",
    "quantized",
    "DTYPES",
]
