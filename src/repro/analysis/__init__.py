"""Analysis helpers: straggler order statistics and deployment reports."""

from repro.analysis.reports import (
    OperatingPoint,
    deployment_report,
    operating_points,
)
from repro.analysis.straggler import (
    expected_max_step_tokens,
    expected_step_tokens,
    idle_fraction,
    lognormal_cdf,
)

__all__ = [
    "lognormal_cdf",
    "expected_step_tokens",
    "expected_max_step_tokens",
    "idle_fraction",
    "OperatingPoint",
    "operating_points",
    "deployment_report",
]
