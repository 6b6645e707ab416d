"""Transformer architecture specifications.

System behaviour in this reproduction depends only on a model's *cost
parameters* — parameter count, layer geometry, grouped-query-attention KV
width and dtype — never on weight values. :class:`ModelSpec` captures
exactly those parameters for the generator and verifier models the paper
evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["ModelRole", "ModelSpec"]


class ModelRole(str, Enum):
    """What a model does inside a verifier-guided TTS system."""

    GENERATOR = "generator"
    VERIFIER = "verifier"


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """Static architecture description of one dense decoder-only LLM.

    Attributes mirror a HuggingFace config: ``n_kv_heads < n_heads`` encodes
    grouped-query attention, which is what makes Qwen models' KV footprint
    per token so much smaller than Mistral's (28 KiB vs 128 KiB at FP16) —
    an asymmetry the memory allocator exploits.
    """

    name: str
    role: ModelRole
    param_count: int
    n_layers: int
    hidden_size: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    intermediate_size: int
    vocab_size: int
    dtype_bytes: int = 2  # FP16/BF16 deployment, as in the paper
    dtype: str = "fp16"  # deployment dtype name; must agree with dtype_bytes
    # Derived once in __post_init__ (``dataclasses.replace`` re-derives
    # them); outside ``==``, ``hash`` and ``repr``, which stay the fields'.
    #: Bytes of VRAM occupied by the weights at deployment dtype.
    weight_bytes: int = field(init=False, repr=False, compare=False)
    #: Bytes of KV cache one token occupies across all layers: K and V,
    #: per layer, per KV head, per head dimension, at dtype width.
    kv_bytes_per_token: int = field(init=False, repr=False, compare=False)
    #: Matmul FLOPs per token through all dense layers (~2 per parameter).
    linear_flops_per_token: float = field(init=False, repr=False, compare=False)
    #: Score+value FLOPs one query token spends per cached key position
    #: (QK^T plus AV, across all layers and heads).
    attention_flops_per_position: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.param_count <= 0:
            raise ValueError("param_count must be positive")
        if not self.dtype:
            raise ValueError("dtype must be a non-empty name")
        if self.n_kv_heads > self.n_heads:
            raise ValueError("n_kv_heads cannot exceed n_heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be a multiple of n_kv_heads (GQA groups)")
        for field_name in ("n_layers", "hidden_size", "n_heads", "n_kv_heads",
                           "head_dim", "intermediate_size", "vocab_size", "dtype_bytes"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        object.__setattr__(self, "weight_bytes", self.param_count * self.dtype_bytes)
        object.__setattr__(
            self,
            "kv_bytes_per_token",
            2 * self.n_layers * self.n_kv_heads * self.head_dim * self.dtype_bytes,
        )
        object.__setattr__(self, "linear_flops_per_token", 2.0 * self.param_count)
        object.__setattr__(
            self,
            "attention_flops_per_position",
            4.0 * self.n_layers * self.n_heads * self.head_dim,
        )

    def kv_bytes(self, batch_size: int, seq_len: float) -> float:
        """KV bytes for ``batch_size`` sequences of ``seq_len`` tokens each.

        ``seq_len`` may be fractional: the allocator costs decoding with the
        *average* cache length (paper uses S_dec / 2).
        """
        if batch_size < 0 or seq_len < 0:
            raise ValueError("batch_size and seq_len must be non-negative")
        return batch_size * seq_len * self.kv_bytes_per_token

    def __str__(self) -> str:
        billions = self.param_count / 1e9
        return f"{self.name} ({billions:.1f}B, {self.role.value})"
