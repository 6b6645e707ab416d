"""Tests for model specs and the zoo."""

from dataclasses import fields, replace

import pytest

from repro.errors import UnknownNameError
from repro.models.spec import ModelRole, ModelSpec
from repro.models.zoo import (
    MATH_SHEPHERD_7B,
    QWEN25_MATH_1P5B,
    QWEN25_MATH_7B,
    SKYWORK_PRM_1P5B,
    get_model,
    MODELS,
    model_pair,
)


class TestModelSpec:
    def test_weight_bytes_fp16(self):
        assert QWEN25_MATH_1P5B.weight_bytes == 1_540_000_000 * 2

    def test_kv_bytes_per_token_qwen_1p5b(self):
        # 2 (K+V) * 28 layers * 2 KV heads * 128 head dim * 2 bytes
        assert QWEN25_MATH_1P5B.kv_bytes_per_token == 28_672

    def test_kv_bytes_per_token_mistral(self):
        # 2 * 32 * 8 * 128 * 2
        assert MATH_SHEPHERD_7B.kv_bytes_per_token == 131_072

    def test_gqa_shrinks_kv(self):
        """Qwen's 2 KV heads give a far smaller footprint than Mistral's 8."""
        assert (
            QWEN25_MATH_1P5B.kv_bytes_per_token
            < MATH_SHEPHERD_7B.kv_bytes_per_token
        )

    def test_kv_bytes_batch(self):
        assert QWEN25_MATH_1P5B.kv_bytes(2, 10) == 20 * 28_672

    def test_invalid_gqa_raises(self):
        with pytest.raises(ValueError):
            ModelSpec(
                name="bad", role=ModelRole.GENERATOR, param_count=10,
                n_layers=1, hidden_size=8, n_heads=3, n_kv_heads=2,
                head_dim=4, intermediate_size=8, vocab_size=10,
            )

    def test_kv_heads_cannot_exceed_heads(self):
        with pytest.raises(ValueError):
            ModelSpec(
                name="bad", role=ModelRole.GENERATOR, param_count=10,
                n_layers=1, hidden_size=8, n_heads=2, n_kv_heads=4,
                head_dim=4, intermediate_size=8, vocab_size=10,
            )

    def test_str_shows_params(self):
        assert "1.5B" in str(QWEN25_MATH_1P5B)

    def test_derived_sizes_stay_outside_eq_hash_and_repr(self):
        """The sizes and FLOP coefficients are derived once per spec, but a
        spec still compares, hashes and prints as its declared fields, and
        ``replace`` (how ``quantized`` builds a spec) re-derives them."""
        derived = {f.name for f in fields(ModelSpec) if not f.init}
        assert derived == {
            "weight_bytes", "kv_bytes_per_token",
            "linear_flops_per_token", "attention_flops_per_position",
        }
        declared = [f.name for f in fields(ModelSpec) if f.init]
        spec = QWEN25_MATH_1P5B
        twin = ModelSpec(**{name: getattr(spec, name) for name in declared})
        assert twin == spec and hash(twin) == hash(spec)
        assert {name: getattr(twin, name) for name in derived} == {
            name: getattr(spec, name) for name in derived
        }
        assert repr(spec) == "ModelSpec(" + ", ".join(
            f"{name}={getattr(spec, name)!r}" for name in declared
        ) + ")"
        assert spec.linear_flops_per_token == 2.0 * 1_540_000_000
        # 4 * 28 layers * 12 heads * 128 head dim
        assert spec.attention_flops_per_position == 172_032.0
        int8 = replace(spec, dtype="int8", dtype_bytes=1)
        assert int8.weight_bytes == spec.param_count
        assert int8.kv_bytes_per_token == spec.kv_bytes_per_token // 2
        assert int8.linear_flops_per_token == spec.linear_flops_per_token
        assert int8 != spec
        deeper = replace(spec, n_layers=2 * spec.n_layers, param_count=1000)
        assert deeper.linear_flops_per_token == 2000.0
        assert deeper.attention_flops_per_position == 2 * spec.attention_flops_per_position


class TestZoo:
    def test_four_paper_models_registered(self):
        names = MODELS.names()
        for model in (QWEN25_MATH_1P5B, QWEN25_MATH_7B,
                      MATH_SHEPHERD_7B, SKYWORK_PRM_1P5B):
            assert model.name in names

    def test_roles(self):
        assert QWEN25_MATH_7B.role is ModelRole.GENERATOR
        assert SKYWORK_PRM_1P5B.role is ModelRole.VERIFIER

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownNameError):
            get_model("gpt-5")

    def test_model_pair_configs(self):
        gen, ver = model_pair("1.5B+7B")
        assert gen is QWEN25_MATH_1P5B
        assert ver is MATH_SHEPHERD_7B
        gen, ver = model_pair("7B+1.5B")
        assert gen is QWEN25_MATH_7B
        assert ver is SKYWORK_PRM_1P5B

    def test_unknown_pair_raises(self):
        with pytest.raises(UnknownNameError):
            model_pair("70B+70B")
