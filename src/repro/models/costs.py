"""FLOPs and byte-traffic cost functions for prefill and decode.

These are the quantities the roofline model consumes. The approximations
are the standard ones used in serving-system papers (and in the paper's own
Sec. 4.3.1 formulation):

* linear layers move ~2 FLOPs per parameter per token;
* attention adds ``4 * n_layers * n_heads * head_dim`` FLOPs per token per
  cached position (QK^T plus AV);
* a decode step reads the full weights once plus every resident KV byte in
  the batch — which is why decode is memory-bandwidth-bound and why idle
  batch slots (stragglers) waste nearly the full step cost;
* prefill reads the weights once for the whole chunk, so its arithmetic
  intensity grows with tokens-per-batch and it saturates compute quickly
  (Fig. 6 of the paper).

The two per-token FLOP coefficients are derived once per spec
(:attr:`ModelSpec.linear_flops_per_token`,
:attr:`ModelSpec.attention_flops_per_position`).

These are the analysis API. :class:`~repro.engine.worker.ModelWorker`'s
launches hold an inline copy with the same grouping, pinned bit-equal to
these by a property test (``tests/engine/test_worker.py``): edit both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.spec import ModelSpec

__all__ = ["StageCost", "prefill_cost", "decode_step_cost"]


@dataclass(frozen=True, slots=True)
class StageCost:
    """FLOPs and bytes of one engine step."""

    flops: float
    bytes: float

    def __add__(self, other: "StageCost") -> "StageCost":
        return StageCost(self.flops + other.flops, self.bytes + other.bytes)


def prefill_cost(
    model: ModelSpec,
    batch_size: int,
    seq_len: int,
    cached_prefix_len: int = 0,
) -> StageCost:
    """Cost of prefilling ``batch_size`` sequences of ``seq_len`` new tokens.

    ``cached_prefix_len`` models prefix-cache hits: those tokens are not
    recomputed, but their KV must still be read by attention.

    Returns the cost of the whole batch as one kernel launch (vLLM fuses
    prefill across a batch the same way).
    """
    if not batch_size > 0:
        raise ValueError("batch_size must be positive")
    if not seq_len > 0:
        raise ValueError("seq_len must be positive")
    if not cached_prefix_len >= 0:
        raise ValueError("cached_prefix_len must be non-negative")

    new_tokens = batch_size * seq_len
    linear = new_tokens * model.linear_flops_per_token
    # Each new token attends to the cached prefix plus, on average, half the
    # new chunk (causal mask): sum_{i=1..S} (C + i) ~= S*C + S^2/2.
    avg_context = cached_prefix_len + seq_len / 2.0
    attention = new_tokens * (model.attention_flops_per_position * avg_context)

    weight_traffic = model.weight_bytes
    kv_write = new_tokens * model.kv_bytes_per_token
    kv_read = batch_size * cached_prefix_len * model.kv_bytes_per_token
    return StageCost(flops=linear + attention, bytes=weight_traffic + kv_write + kv_read)


def decode_step_cost(
    model: ModelSpec,
    batch_size: int,
    avg_cache_len: float,
) -> StageCost:
    """Cost of one decode step generating one token per sequence.

    ``avg_cache_len`` is the mean resident context length across the batch.
    """
    if not batch_size > 0:
        raise ValueError("batch_size must be positive")
    if not avg_cache_len >= 0:
        raise ValueError("avg_cache_len must be non-negative")

    linear = batch_size * model.linear_flops_per_token
    attention = batch_size * (model.attention_flops_per_position * avg_cache_len)

    weight_traffic = model.weight_bytes
    kv_read = batch_size * avg_cache_len * model.kv_bytes_per_token
    kv_write = batch_size * model.kv_bytes_per_token
    return StageCost(flops=linear + attention, bytes=weight_traffic + kv_read + kv_write)
