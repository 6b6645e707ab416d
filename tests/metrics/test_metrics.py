"""Tests for goodput, latency, accuracy and report aggregation."""

import pytest

from repro.engine.telemetry import Phase, TokenCounters, UtilSpan
from repro.metrics.accuracy import majority_answer, pass_at_n, top1_correct
from repro.metrics.goodput import (
    BeamRecord,
    format_gain,
    precise_goodput,
    throughput_gain,
)
from repro.metrics.latency import LatencyBreakdown, mean_breakdown
from repro.metrics.report import ProblemRunResult, RunMetrics
from repro.metrics.utilization import decay_ratio, mean_phase_utilization


def beam(lineage, tokens=100, time=10.0, answer=5, correct=False, score=0.5):
    return BeamRecord(lineage=lineage, tokens=tokens, completion_time=time,
                      answer=answer, correct=correct, score=score)


class TestPreciseGoodput:
    def test_definition(self):
        """avg tokens per beam / avg completion time (Sec. 6.1)."""
        beams = [beam((0,), tokens=100, time=10.0), beam((1,), tokens=300, time=30.0)]
        assert precise_goodput(beams) == pytest.approx(200.0 / 20.0)

    def test_empty(self):
        assert precise_goodput([]) == 0.0

    def test_robust_to_beam_count(self):
        """Duplicating a beam set does not inflate goodput."""
        beams = [beam((0,), tokens=120, time=12.0)]
        assert precise_goodput(beams) == precise_goodput(beams * 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            beam((0,), tokens=0)
        with pytest.raises(ValueError):
            beam((0,), time=0.0)


class TestThroughputGain:
    def test_ordinary_ratio(self):
        assert throughput_gain(150.0, 100.0) == pytest.approx(1.5)

    def test_both_zero_is_a_wash(self):
        assert throughput_gain(0.0, 0.0) == 1.0

    def test_zero_baseline_is_unbounded(self):
        assert throughput_gain(10.0, 0.0) == float("inf")

    def test_format_finite(self):
        assert format_gain(1.2345) == 1.23

    def test_format_infinite_renders_as_string(self):
        assert format_gain(float("inf")) == "inf"
        assert format_gain(float("nan")) == "nan"


class TestJsonRoundTrip:
    def test_latency_round_trip(self):
        breakdown = LatencyBreakdown(
            total=10.125, generation=6.5, verification=3.25, swap=0.375
        )
        assert LatencyBreakdown.from_json_dict(breakdown.to_json_dict()) == breakdown

    def test_run_metrics_round_trip(self):
        metrics = RunMetrics.aggregate([make_result("a"), make_result("b", False)])
        replay = RunMetrics.from_json_dict(metrics.to_json_dict())
        assert replay == metrics
        assert replay.pass_at == metrics.pass_at  # int keys restored

    def test_problem_result_round_trip(self):
        result = make_result()
        assert ProblemRunResult.from_json_dict(result.to_json_dict()) == result


class TestAccuracy:
    def test_majority_simple(self):
        beams = [beam((0,), answer=7), beam((1,), answer=7), beam((2,), answer=3)]
        assert majority_answer(beams) == 7

    def test_majority_tie_breaks_on_score(self):
        beams = [beam((0,), answer=7, score=0.9), beam((1,), answer=3, score=0.1)]
        assert majority_answer(beams) == 7

    def test_top1_correct(self):
        beams = [
            beam((0,), answer=7, correct=True),
            beam((1,), answer=7, correct=True),
            beam((2,), answer=3),
        ]
        assert top1_correct(beams)

    def test_top1_wrong_majority(self):
        beams = [
            beam((0,), answer=3), beam((1,), answer=3),
            beam((2,), answer=7, correct=True),
        ]
        assert not top1_correct(beams)

    def test_top1_empty(self):
        assert not top1_correct([])

    def test_majority_empty_raises(self):
        with pytest.raises(ValueError):
            majority_answer([])

    def test_pass_at_n_ranked_by_score(self):
        beams = [
            beam((0,), score=0.9, correct=False),
            beam((1,), score=0.5, correct=True),
            beam((2,), score=0.1, correct=False),
        ]
        assert not pass_at_n(beams, 1)
        assert pass_at_n(beams, 2)

    def test_pass_at_n_validation(self):
        with pytest.raises(ValueError):
            pass_at_n([], 0)


class TestLatency:
    def test_accounted(self):
        breakdown = LatencyBreakdown(total=10.0, generation=6.0, verification=3.0,
                                     swap=1.0)
        assert breakdown.accounted == 10.0

    def test_mean(self):
        mean = mean_breakdown([
            LatencyBreakdown(10.0, 6.0, 4.0),
            LatencyBreakdown(20.0, 10.0, 10.0),
        ])
        assert mean.total == 15.0
        assert mean.generation == 8.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean_breakdown([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyBreakdown(-1.0, 0.0, 0.0)


class TestUtilizationMetrics:
    def spans(self):
        return [
            UtilSpan(0, 1, 8, 8, Phase.GENERATION),
            UtilSpan(1, 3, 2, 8, Phase.GENERATION),
            UtilSpan(3, 4, 8, 8, Phase.VERIFICATION),
        ]

    def test_mean_phase(self):
        assert mean_phase_utilization(self.spans(), Phase.GENERATION) == pytest.approx(
            (1.0 * 1 + 0.25 * 2) / 3
        )

    def test_decay_ratio(self):
        assert decay_ratio(self.spans(), Phase.GENERATION) == 0.25

    def test_empty_phase(self):
        assert mean_phase_utilization([], Phase.SWAP) == 0.0
        assert decay_ratio([], Phase.SWAP) == 0.0


def make_result(problem_id="p0", correct=True):
    beams = (
        beam((0,), tokens=100, time=10.0, answer=5, correct=correct, score=0.8),
        beam((1,), tokens=200, time=20.0, answer=5, correct=correct, score=0.6),
    )
    return ProblemRunResult(
        problem_id=problem_id,
        algorithm="beam_search",
        n=8,
        beams=beams,
        latency=LatencyBreakdown(30.0, 20.0, 10.0),
        tokens=TokenCounters(committed=300, speculative_used=30, speculative_wasted=10),
    )


class TestRunMetrics:
    def test_aggregate(self):
        metrics = RunMetrics.aggregate([make_result("a"), make_result("b", False)])
        assert metrics.problem_count == 2
        assert metrics.top1_accuracy == 0.5
        assert metrics.goodput == pytest.approx(150.0 / 15.0)
        assert metrics.speculation_efficiency == pytest.approx(0.75)

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            RunMetrics.aggregate([])

    def test_pass_at_points(self):
        metrics = RunMetrics.aggregate([make_result()], pass_ns=(1, 2))
        assert metrics.pass_at[1] == 1.0

    def test_table_renders(self):
        metrics = RunMetrics.aggregate([make_result()])
        table = RunMetrics.table([metrics], title="T")
        assert "beam_search" in table and "T" in table

    def test_result_properties(self):
        result = make_result()
        assert result.goodput > 0
        assert result.top1_correct
