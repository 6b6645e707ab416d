"""Weight/KV quantization as a cost-model transform.

The paper notes FastTTS "is orthogonal to quantization and offloading
techniques, which can be incorporated for additional efficiency gains"
(Sec. 6.4). In this reproduction quantization is a pure cost transform:
narrower dtypes shrink weight traffic (faster memory-bound decode) and the
KV footprint (more resident beams). Accuracy effects of quantization are
*not* modeled — the latent quality model keys off parameter count only —
which matches how the paper treats it (a deployment knob, not part of the
contribution). :data:`DTYPES` registers each deployment dtype's byte width.
"""

from __future__ import annotations

from dataclasses import replace

from repro.models.spec import ModelSpec
from repro.utils.registry import Registry

__all__ = ["quantized", "DTYPES"]

DTYPES: Registry[int] = Registry("dtype", {
    "fp16": 2,
    "bf16": 2,
    "int8": 1,
    "fp8": 1,
})


def quantized(model: ModelSpec, dtype: str) -> ModelSpec:
    """Return a copy of ``model`` deployed at the given dtype.

    >>> from repro.models import QWEN25_MATH_1P5B
    >>> q = quantized(QWEN25_MATH_1P5B, "int8")
    >>> q.weight_bytes == QWEN25_MATH_1P5B.weight_bytes // 2
    True
    """
    dtype_bytes = DTYPES[dtype]
    if dtype == model.dtype:
        return model
    # Equal byte widths (fp16 -> bf16) still deserve a truthful name: lane
    # labels and metrics keys are derived from spec names. Strip any previous
    # quantization suffix so chained requantization does not stack suffixes.
    base = model.name
    suffix = f"-{model.dtype}"
    if base.endswith(suffix):
        base = base[: -len(suffix)]
    return replace(model, name=f"{base}-{dtype}", dtype=dtype, dtype_bytes=dtype_bytes)
