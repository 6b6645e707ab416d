"""Serving engine substrate: clock, telemetry, jobs, and model workers."""

from repro.engine.clock import SimClock
from repro.engine.jobs import GenJob, RoundStats, VerifyJob
from repro.engine.telemetry import Phase, PhaseTimer, TokenCounters, UtilSpan
from repro.engine.worker import GeneratorWorker, ModelWorker, VerifierWorker

__all__ = [
    "SimClock",
    "Phase",
    "PhaseTimer",
    "TokenCounters",
    "UtilSpan",
    "GenJob",
    "VerifyJob",
    "RoundStats",
    "ModelWorker",
    "GeneratorWorker",
    "VerifierWorker",
]
