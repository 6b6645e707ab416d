"""Tests for structured serving traces."""

import json

import pytest

from repro.core.config import baseline_config, fasttts_config
from repro.core.server import TTSServer
from repro.engine.tracing import SolveTrace, TraceEvent
from repro.search.beam_search import BeamSearch
from repro.workloads.datasets import build_dataset


def events(trace, kind=None):
    """The trace's events as the dicts its JSONL holds, of one kind if given."""
    rows = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    return [row for row in rows if kind is None or row["kind"] == kind]


class TestSolveTrace:
    def test_record_and_query(self):
        trace = SolveTrace()
        trace.record(0.0, "generation_round", 0, decoded_tokens=10)
        trace.record(1.0, "verification_round", 0, jobs=4)
        trace.record(2.0, "generation_round", 1, decoded_tokens=5)
        assert len(events(trace, "generation_round")) == 2
        assert events(trace, "verification_round") == [
            {"time": 1.0, "kind": "verification_round", "round": 0, "jobs": 4}
        ]

    def test_event_json(self):
        event = TraceEvent(time=1.234567891, kind="swap", round_idx=-1,
                           payload={"to": "verifier"})
        record = json.loads(event.to_json())
        assert record["kind"] == "swap"
        assert record["to"] == "verifier"
        assert record["time"] == pytest.approx(1.234568)

    def test_jsonl_is_one_line_per_event(self):
        trace = SolveTrace()
        assert trace.to_jsonl() == ""
        trace.record(0.0, "selection", 0, kept=2)
        trace.record(0.5, "swap", -1, to="verifier")
        lines = trace.to_jsonl().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["selection", "swap"]


class TestServerTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        dataset = build_dataset("amc23", seed=3, size=1)
        server = TTSServer(fasttts_config(memory_fraction=0.4), dataset)
        return server.solve_detailed(list(dataset)[0], BeamSearch(n=16), trace=True)

    def test_trace_attached(self, traced):
        assert traced.trace is not None
        assert events(traced.trace, "generation_round")

    def test_round_structure(self, traced):
        gen = events(traced.trace, "generation_round")
        ver = events(traced.trace, "verification_round")
        assert len(gen) == len(ver)  # beam search verifies every round
        for event in gen:
            assert event["active_beams"] > 0
            assert event["round_time"] >= 0

    def test_times_monotone(self, traced):
        times = [e["time"] for e in events(traced.trace)]
        assert times == sorted(times)

    def test_lookahead_flows_into_cached_scores(self, traced):
        """Scores pre-computed at round r are consumed at round r+1."""
        ver = events(traced.trace, "verification_round")
        produced = sum(e["lookahead_scores"] for e in ver)
        consumed = sum(e["cached_scores"] for e in ver)
        assert produced > 0
        assert 0 < consumed <= produced

    def test_untraced_by_default(self):
        dataset = build_dataset("amc23", seed=3, size=1)
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        outcome = server.solve_detailed(list(dataset)[0], BeamSearch(n=8))
        assert outcome.trace is None

    def test_offload_swaps_traced(self):
        from repro.core.config import OffloadMode

        dataset = build_dataset("amc23", seed=3, size=1)
        server = TTSServer(
            fasttts_config(memory_fraction=0.4, offload=OffloadMode.FORCE), dataset
        )
        outcome = server.solve_detailed(
            list(dataset)[0], BeamSearch(n=8), trace=True
        )
        swaps = events(outcome.trace, "swap")
        assert swaps
        assert all(s["seconds"] > 0 for s in swaps)
