"""Tests for the analysis subpackage (straggler math, reports)."""

import numpy as np
import pytest

from repro.analysis.reports import deployment_report, operating_points
from repro.analysis.straggler import (
    expected_max_step_tokens,
    expected_step_tokens,
    idle_fraction,
    lognormal_cdf,
)
from repro.hardware.device import get_device
from repro.models.zoo import QWEN25_MATH_1P5B
from repro.utils.rng import KeyedRng
from repro.workloads.traces import StepLengthModel

MODEL = StepLengthModel(median_tokens=150.0, sigma=0.85, max_tokens=1280)


def sampled_max_step_tokens(
    model: StepLengthModel, batch_size: int, samples: int = 512, seed: int = 0
) -> float:
    """Monte-Carlo estimate of E[max]: the reference the integral is held to."""
    rng = KeyedRng(seed)
    maxima = []
    for s in range(samples):
        lengths = [model.sample(rng, "straggler", s, i) for i in range(batch_size)]
        maxima.append(max(lengths))
    return float(np.mean(maxima))


class TestLognormalCdf:
    def test_median(self):
        assert lognormal_cdf(150.0, 150.0, 0.85) == pytest.approx(0.5)

    def test_zero_support(self):
        assert lognormal_cdf(0.0, 150.0, 0.85) == 0.0
        assert lognormal_cdf(-5.0, 150.0, 0.85) == 0.0

    def test_monotone(self):
        values = [lognormal_cdf(x, 150.0, 0.85) for x in (50, 150, 500, 2000)]
        assert values == sorted(values)

    def test_degenerate_sigma(self):
        assert lognormal_cdf(149.0, 150.0, 0.0) == 0.0
        assert lognormal_cdf(151.0, 150.0, 0.0) == 1.0


class TestExpectations:
    def test_mean_between_floor_and_cap(self):
        mean = expected_step_tokens(MODEL)
        assert MODEL.min_tokens < mean < MODEL.max_tokens

    def test_max_grows_with_batch(self):
        maxima = [expected_max_step_tokens(MODEL, k) for k in (1, 4, 16, 64)]
        assert maxima == sorted(maxima)
        assert maxima[-1] <= MODEL.max_tokens

    def test_batch_one_max_is_mean(self):
        assert expected_max_step_tokens(MODEL, 1) == pytest.approx(
            expected_step_tokens(MODEL), rel=1e-6
        )

    def test_integral_matches_sampling(self):
        """The tail integral agrees with Monte-Carlo within a few percent."""
        analytic = expected_max_step_tokens(MODEL, 16)
        sampled = sampled_max_step_tokens(MODEL, 16, samples=400)
        assert analytic == pytest.approx(sampled, rel=0.06)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            expected_max_step_tokens(MODEL, 0)


class TestIdleFraction:
    def test_single_beam_no_idle(self):
        assert idle_fraction(MODEL, 1) == 0.0

    def test_grows_with_batch(self):
        fractions = [idle_fraction(MODEL, k) for k in (2, 8, 32, 128)]
        assert fractions == sorted(fractions)
        assert 0.0 < fractions[0] < fractions[-1] < 1.0

    def test_matches_paper_regime(self):
        """At edge batch sizes, most slot-time is idle (Sec. 3.2.1)."""
        assert idle_fraction(MODEL, 64) > 0.5


class TestReports:
    def test_operating_points_structure(self):
        points = operating_points(QWEN25_MATH_1P5B, get_device("rtx4090"))
        stages = {(p.stage, p.batch_size) for p in points}
        assert ("prefill", 1) in stages and ("decode", 64) in stages
        for point in points:
            assert point.latency_s > 0 and point.tokens_per_s > 0

    def test_decode_memory_bound_prefill_compute_bound(self):
        points = operating_points(QWEN25_MATH_1P5B, get_device("rtx4090"))
        for point in points:
            if point.stage == "decode" and point.batch_size <= 8:
                assert not point.compute_bound
            if point.stage == "prefill":
                assert point.compute_bound

    def test_deployment_report_feasible(self):
        text = deployment_report("1.5B+1.5B", "rtx4090", 0.4)
        assert "KV budget" in text
        assert "allocator plan" in text

    def test_deployment_report_infeasible(self):
        text = deployment_report("7B+1.5B", "rtx3070ti", 0.9)
        assert "INFEASIBLE" in text
