"""Trace serialization: JSONL round-trips, validation, problem rebuild."""

import math

import pytest

from repro.errors import ConfigError, UnknownNameError
from repro.workloads.datasets import build_dataset
from repro.workloads.trace import (
    TRACE_SCHEMA,
    TRACE_VERSION,
    Trace,
    TraceRequest,
    materialize_problems,
)


def small_trace() -> Trace:
    return Trace(
        seed=11,
        requests=(
            TraceRequest(
                request_id="chat-0000", tenant="chat", arrival_s=1.5,
                dataset="amc23", dataset_seed=4, problem_index=0,
                deadline_s=120.0, ttft_slo_s=30.0,
            ),
            TraceRequest(
                request_id="batch-0000", tenant="batch", arrival_s=2.25,
                dataset="math500", dataset_seed=9, problem_index=3,
                algorithm="best_of_n", n=8, slo_class="batch",
            ),
        ),
    )


class TestTraceRequest:
    def test_validation(self):
        ok = small_trace().requests[0]
        with pytest.raises(ValueError):
            TraceRequest(**{**ok.to_json_dict(), "request_id": ""})
        with pytest.raises(ValueError):
            TraceRequest(**{**ok.to_json_dict(), "tenant": ""})
        with pytest.raises(ValueError):
            TraceRequest(**{**ok.to_json_dict(), "arrival_s": -0.1})
        with pytest.raises(ValueError):
            TraceRequest(**{**ok.to_json_dict(), "problem_index": -1})
        with pytest.raises(ValueError):
            TraceRequest(**{**ok.to_json_dict(), "n": 0})
        with pytest.raises(ValueError):
            TraceRequest(**{**ok.to_json_dict(), "deadline_s": 0.0})
        with pytest.raises(ValueError):
            TraceRequest(**{**ok.to_json_dict(), "ttft_slo_s": -2.0})

    def test_json_dict_round_trip(self):
        request = small_trace().requests[0]
        assert TraceRequest.from_json_dict(request.to_json_dict()) == request

    def test_unknown_field_rejected(self):
        payload = small_trace().requests[0].to_json_dict()
        payload["priority"] = 3
        with pytest.raises(ConfigError, match="unknown fields: priority"):
            TraceRequest.from_json_dict(payload)

    def test_bad_value_wrapped_as_config_error(self):
        payload = small_trace().requests[0].to_json_dict()
        payload["deadline_s"] = -1.0
        with pytest.raises(ConfigError, match="bad trace request"):
            TraceRequest.from_json_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_s", math.nan),
            ("arrival_s", math.inf),
            ("deadline_s", math.nan),
            ("deadline_s", math.inf),
            ("ttft_slo_s", math.nan),
            ("ttft_slo_s", math.inf),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_non_finite_time_rejected(self, field, value):
        ok = small_trace().requests[0]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TraceRequest(**{**ok.to_json_dict(), field: value})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_arrival_in_a_trace_file_rejected(self, literal):
        # json.loads accepts these literals; the trace reader must not.
        lines = small_trace().to_jsonl().splitlines()
        lines[1] = lines[1].replace('"arrival_s": 1.5', f'"arrival_s": {literal}')
        with pytest.raises(ConfigError, match="arrival_s must be finite"):
            Trace.from_jsonl("\n".join(lines))


class TestTraceValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace(seed=0, requests=())

    def test_unknown_base_dataset_rejected(self):
        with pytest.raises(UnknownNameError):
            Trace(seed=0, requests=small_trace().requests, base_dataset="gsm8k")

    def test_unsorted_rejected(self):
        a, b = small_trace().requests
        with pytest.raises(ValueError, match="sorted by arrival"):
            Trace(seed=0, requests=(b, a))

    def test_duplicate_ids_rejected(self):
        a, _ = small_trace().requests
        with pytest.raises(ValueError, match="duplicate"):
            Trace(seed=0, requests=(a, a))

    def test_properties(self):
        trace = small_trace()
        assert len(trace) == 2
        assert trace.tenants == ("batch", "chat")
        assert trace.horizon_s == 2.25
        assert [r.request_id for r in trace] == ["chat-0000", "batch-0000"]


class TestJsonl:
    def test_round_trip_is_equal(self):
        trace = small_trace()
        assert Trace.from_jsonl(trace.to_jsonl()) == trace

    def test_serialized_form_is_stable(self):
        # Serializing the parsed trace again reproduces the bytes.
        text = small_trace().to_jsonl()
        assert Trace.from_jsonl(text).to_jsonl() == text

    def test_header_first_line(self):
        import json

        header = json.loads(small_trace().to_jsonl().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["version"] == TRACE_VERSION
        assert header["seed"] == 11

    def test_save_load(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        assert Trace.load(path) == trace

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read trace file"):
            Trace.load(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no header"),
            ("not json\n", "header is not JSON"),
            ('{"schema": "other"}\n', "must set schema"),
            ('{"schema": "repro.trace", "version": 99}\n', "unsupported trace version"),
        ],
    )
    def test_bad_header(self, text, message):
        with pytest.raises(ConfigError, match=message):
            Trace.from_jsonl(text)

    def test_bad_body_line_numbered(self):
        text = small_trace().to_jsonl().splitlines()
        text.insert(2, "{broken")
        with pytest.raises(ConfigError, match="line 3 is not JSON"):
            Trace.from_jsonl("\n".join(text))

    def test_unsorted_body_wrapped(self):
        a, b = small_trace().requests
        lines = Trace(seed=0, requests=(a, b)).to_jsonl().splitlines()
        with pytest.raises(ConfigError, match="bad trace"):
            Trace.from_jsonl("\n".join([lines[0], lines[2], lines[1]]))


class TestMaterializeProblems:
    def test_matches_direct_dataset_build(self):
        trace = small_trace()
        problems = materialize_problems(trace)
        assert set(problems) == {"chat-0000", "batch-0000"}
        amc = list(build_dataset("amc23", seed=4, size=1))
        math500 = list(build_dataset("math500", seed=9, size=4))
        assert problems["chat-0000"] == amc[0]
        assert problems["batch-0000"] == math500[3]

    def test_one_pool_per_dataset_seed_pair(self):
        # Two requests into the same (dataset, seed) must address the same
        # pool, so equal indices yield equal problems.
        requests = tuple(
            TraceRequest(
                request_id=f"t-{k}", tenant="t", arrival_s=float(k),
                dataset="amc23", dataset_seed=7, problem_index=2,
            )
            for k in range(2)
        )
        problems = materialize_problems(Trace(seed=0, requests=requests))
        assert problems["t-0"] == problems["t-1"]
