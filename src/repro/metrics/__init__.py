"""Evaluation metrics: goodput, latency, accuracy, utilization, fleet load."""

from repro.metrics.accuracy import majority_answer, pass_at_n, top1_correct
from repro.metrics.fleet import FleetMetrics, FleetRequestRecord
from repro.metrics.goodput import (
    BeamRecord,
    format_gain,
    precise_goodput,
    throughput_gain,
)
from repro.metrics.latency import LatencyBreakdown, mean_breakdown
from repro.metrics.report import ProblemRunResult, RunMetrics
from repro.metrics.utilization import decay_ratio, mean_phase_utilization

__all__ = [
    "BeamRecord",
    "precise_goodput",
    "throughput_gain",
    "format_gain",
    "FleetMetrics",
    "FleetRequestRecord",
    "LatencyBreakdown",
    "mean_breakdown",
    "majority_answer",
    "top1_correct",
    "pass_at_n",
    "ProblemRunResult",
    "RunMetrics",
    "mean_phase_utilization",
    "decay_ratio",
]
