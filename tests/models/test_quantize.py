"""Tests for the quantization cost transform."""

import pytest

from repro.errors import UnknownNameError
from repro.models.quantize import DTYPES, quantized
from repro.models.zoo import QWEN25_MATH_1P5B


class TestQuantized:
    def test_int8_halves_weights_and_kv(self):
        q = quantized(QWEN25_MATH_1P5B, "int8")
        assert q.weight_bytes == QWEN25_MATH_1P5B.weight_bytes // 2
        assert q.kv_bytes_per_token == QWEN25_MATH_1P5B.kv_bytes_per_token // 2

    def test_name_tagged(self):
        assert quantized(QWEN25_MATH_1P5B, "fp8").name.endswith("-fp8")

    def test_same_dtype_is_identity(self):
        assert quantized(QWEN25_MATH_1P5B, "fp16") is QWEN25_MATH_1P5B

    def test_unknown_dtype(self):
        with pytest.raises(UnknownNameError):
            quantized(QWEN25_MATH_1P5B, "int4")

    def test_dtype_table(self):
        assert DTYPES["fp16"] == 2
        assert DTYPES["int8"] == 1

    def test_architecture_preserved(self):
        q = quantized(QWEN25_MATH_1P5B, "int8")
        assert q.n_layers == QWEN25_MATH_1P5B.n_layers
        assert q.param_count == QWEN25_MATH_1P5B.param_count

    def test_same_width_different_dtype_still_renames(self):
        # fp16 -> bf16 keeps the byte width but must still produce a new
        # spec: lane classes are keyed on model names, so a dtype change
        # that silently returns the input would lie about the deployment.
        q = quantized(QWEN25_MATH_1P5B, "bf16")
        assert q is not QWEN25_MATH_1P5B
        assert q.name == f"{QWEN25_MATH_1P5B.name}-bf16"
        assert q.dtype == "bf16"
        assert q.dtype_bytes == QWEN25_MATH_1P5B.dtype_bytes

    @pytest.mark.parametrize("dtype,width", [(dtype, DTYPES[dtype]) for dtype in DTYPES.names()])
    def test_dtype_round_trip(self, dtype, width):
        q = quantized(QWEN25_MATH_1P5B, dtype)
        assert q.dtype == dtype
        assert q.dtype_bytes == width
        # Quantizing back to the base dtype restores the cost model and
        # keeps the name rooted at the base (one truthful dtype tag, no
        # stacked suffixes).
        back = quantized(q, QWEN25_MATH_1P5B.dtype)
        assert back.dtype == QWEN25_MATH_1P5B.dtype
        assert back.dtype_bytes == QWEN25_MATH_1P5B.dtype_bytes
        assert back.weight_bytes == QWEN25_MATH_1P5B.weight_bytes
        expected = (
            QWEN25_MATH_1P5B.name
            if back is QWEN25_MATH_1P5B
            else f"{QWEN25_MATH_1P5B.name}-{QWEN25_MATH_1P5B.dtype}"
        )
        assert back.name == expected

    def test_kv_footprint_scales_with_width(self):
        for dtype in DTYPES.names():
            width = DTYPES[dtype]
            q = quantized(QWEN25_MATH_1P5B, dtype)
            expected = (
                QWEN25_MATH_1P5B.kv_bytes_per_token
                * width
                // QWEN25_MATH_1P5B.dtype_bytes
            )
            assert q.kv_bytes_per_token == expected

    def test_unknown_dtype_error_names_known(self):
        with pytest.raises(UnknownNameError) as excinfo:
            quantized(QWEN25_MATH_1P5B, "int4")
        message = str(excinfo.value)
        assert "int4" in message
        for dtype in DTYPES.names():
            assert dtype in message

    def test_requantize_same_dtype_idempotent(self):
        q = quantized(QWEN25_MATH_1P5B, "int8")
        assert quantized(q, "int8") is q

    def test_requantize_strips_old_suffix(self):
        q = quantized(quantized(QWEN25_MATH_1P5B, "bf16"), "int8")
        assert q.name == f"{QWEN25_MATH_1P5B.name}-int8"
        assert "bf16" not in q.name
