"""Tests for the FLOPs/bytes cost functions and the phase asymmetry."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.hardware.device import get_device
from repro.hardware.roofline import Roofline
from repro.models.costs import StageCost, decode_step_cost, prefill_cost
from repro.models.quantize import DTYPES, quantized
from repro.models.zoo import QWEN25_MATH_1P5B as MODEL
from repro.models.zoo import MODELS, get_model


class TestPrefillCost:
    def test_scales_with_tokens(self):
        small = prefill_cost(MODEL, 1, 100)
        large = prefill_cost(MODEL, 1, 200)
        assert large.flops > small.flops
        assert large.bytes > small.bytes

    def test_batch_shares_weight_traffic(self):
        single = prefill_cost(MODEL, 1, 100)
        batched = prefill_cost(MODEL, 4, 100)
        # 4x the tokens but only one weight read: bytes grow sub-linearly.
        assert batched.bytes < 4 * single.bytes
        assert batched.flops == pytest.approx(4 * single.flops)

    def test_cached_prefix_reduces_nothing_but_adds_reads(self):
        plain = prefill_cost(MODEL, 1, 100)
        cached = prefill_cost(MODEL, 1, 100, cached_prefix_len=400)
        # Cached prefix is read by attention, so bytes and flops grow.
        assert cached.bytes > plain.bytes
        assert cached.flops > plain.flops

    def test_rejects_zero_seq(self):
        with pytest.raises(ValueError):
            prefill_cost(MODEL, 1, 0)

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            prefill_cost(MODEL, 0, 10)

    @pytest.mark.parametrize("batch, seq, cached", [
        (math.nan, 10, 0), (1, math.nan, 0), (1, 10, math.nan), (1, 10, -1),
    ])
    def test_rejects_nan_and_out_of_range_lengths(self, batch, seq, cached):
        with pytest.raises(ValueError):
            prefill_cost(MODEL, batch, seq, cached_prefix_len=cached)


class TestDecodeCost:
    def test_weight_traffic_dominates_small_batch(self):
        cost = decode_step_cost(MODEL, 1, 100)
        assert cost.bytes >= MODEL.weight_bytes

    def test_flops_scale_with_batch(self):
        one = decode_step_cost(MODEL, 1, 100)
        eight = decode_step_cost(MODEL, 8, 100)
        assert eight.flops == pytest.approx(8 * one.flops)

    def test_rejects_negative_cache(self):
        with pytest.raises(ValueError):
            decode_step_cost(MODEL, 1, -1.0)

    @pytest.mark.parametrize("batch, cache", [(math.nan, 10.0), (1, math.nan), (0, 10.0)])
    def test_rejects_nan_and_out_of_range_lengths(self, batch, cache):
        with pytest.raises(ValueError):
            decode_step_cost(MODEL, batch, cache)


def reference_prefill_cost(model, batch_size, seq_len, cached_prefix_len=0):
    """``prefill_cost`` as it stood while every call re-derived the
    per-token FLOP coefficients from the spec's fields."""
    new_tokens = batch_size * seq_len
    linear = new_tokens * (2.0 * model.param_count)
    avg_context = cached_prefix_len + seq_len / 2.0
    attention = new_tokens * (
        4.0 * model.n_layers * model.n_heads * model.head_dim * avg_context
    )
    weight_traffic = model.weight_bytes
    kv_write = new_tokens * model.kv_bytes_per_token
    kv_read = batch_size * cached_prefix_len * model.kv_bytes_per_token
    return StageCost(flops=linear + attention, bytes=weight_traffic + kv_write + kv_read)


def reference_decode_step_cost(model, batch_size, avg_cache_len):
    """``decode_step_cost`` as it stood, the same way."""
    linear = batch_size * (2.0 * model.param_count)
    attention = batch_size * (
        4.0 * model.n_layers * model.n_heads * model.head_dim * avg_cache_len
    )
    weight_traffic = model.weight_bytes
    kv_read = batch_size * avg_cache_len * model.kv_bytes_per_token
    kv_write = batch_size * model.kv_bytes_per_token
    return StageCost(flops=linear + attention, bytes=weight_traffic + kv_read + kv_write)


#: Every registered spec, and each one deployed at every known dtype.
ALL_SPECS = st.builds(
    quantized,
    st.sampled_from(MODELS.names()).map(get_model),
    st.sampled_from(DTYPES.names()),
)


class TestDerivedCoefficientsAreBitIdentical:
    """Reading the coefficients a spec derived once moves no float."""

    @given(
        ALL_SPECS,
        st.integers(1, 256),
        st.integers(1, 8192),
        st.integers(0, 32768),
    )
    def test_prefill_cost_matches_the_reference(self, model, batch, seq, cached):
        got = prefill_cost(model, batch, seq, cached_prefix_len=cached)
        assert got == reference_prefill_cost(model, batch, seq, cached)

    @given(
        ALL_SPECS,
        st.integers(1, 256),
        st.one_of(st.integers(0, 32768), st.floats(0.0, 32768.0)),
    )
    # ``(149 * coefficient) * 30359.76...`` rounds differently: the
    # coefficient must multiply the context first, as it always did.
    @example(get_model("skywork-o1-prm-1.5b"), 149, 30359.769048215257)
    def test_decode_step_cost_matches_the_reference(self, model, batch, cache):
        got = decode_step_cost(model, batch, cache)
        assert got == reference_decode_step_cost(model, batch, cache)


class TestPhaseAsymmetry:
    """The physics behind the whole paper (Fig. 6, Sec. 3.2.3)."""

    def test_decode_memory_bound_prefill_compute_bound(self):
        roofline = Roofline(get_device("rtx4090"))
        decode = decode_step_cost(MODEL, 32, 1000)
        prefill = prefill_cost(MODEL, 8, 512)
        assert not roofline.point(decode.flops, decode.bytes).compute_bound
        assert roofline.point(prefill.flops, prefill.bytes).compute_bound

    def test_straggler_waste(self):
        """A near-empty decode batch costs almost as much per step as a full
        one — the reason idle slots are pure waste (Sec. 3.2.1)."""
        roofline = Roofline(get_device("rtx4090"))
        lone = decode_step_cost(MODEL, 1, 1000)
        full = decode_step_cost(MODEL, 64, 1000)
        lone_t = roofline.latency(lone.flops, lone.bytes)
        full_t = roofline.latency(full.flops, full.bytes)
        assert lone_t > 0.5 * full_t

    @given(st.integers(1, 256), st.integers(1, 4096))
    def test_costs_always_positive(self, batch, cache):
        cost = decode_step_cost(MODEL, batch, float(cache))
        assert cost.flops > 0 and cost.bytes > 0

    def test_stage_cost_addition(self):
        a = decode_step_cost(MODEL, 1, 10)
        total = a + a
        assert total.flops == 2 * a.flops
        assert total.bytes == 2 * a.bytes
