"""Analytical straggler model: how much GPU a synchronous batch wastes.

The paper's Challenge-1 (Sec. 3.2.1) is that a generation batch must wait
for its longest member. With per-beam step lengths ~ capped lognormal, the
expected idle fraction of a k-beam batch is computable from order
statistics:

    E[idle] = 1 - E[L] / E[max(L_1..L_k)]

where ``E[max]`` comes from the tail-integral identity
``E[max] = ∫ (1 - F(x)^k) dx`` over the support. This module evaluates
that integral numerically, which gives the serving simulator an
independent cross-check (tested against sampled maxima) and quantifies why
speculation has so much idle capacity to harvest as ``k`` grows.
"""

from __future__ import annotations

import math

import numpy as np

from repro.workloads.traces import StepLengthModel

__all__ = [
    "lognormal_cdf",
    "expected_step_tokens",
    "expected_max_step_tokens",
    "idle_fraction",
]


def lognormal_cdf(x: float, median: float, sigma: float) -> float:
    """CDF of a lognormal parameterized by its median and log-space sigma."""
    if x <= 0:
        return 0.0
    if sigma == 0:
        return 1.0 if x >= median else 0.0
    z = (math.log(x) - math.log(median)) / sigma
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _capped_cdf(x: float, model: StepLengthModel) -> float:
    """CDF of the model's actual (floored and capped) step length."""
    if x < model.min_tokens:
        return 0.0
    if x >= model.max_tokens:
        return 1.0
    return lognormal_cdf(x, model.median_tokens, model.sigma)


def expected_step_tokens(model: StepLengthModel, grid_points: int = 4096) -> float:
    """E[L] under the floor/cap, by numerical tail integration."""
    xs = np.linspace(0.0, float(model.max_tokens), grid_points)
    survival = np.array([1.0 - _capped_cdf(float(x), model) for x in xs])
    return float(np.trapezoid(survival, xs))


def expected_max_step_tokens(
    model: StepLengthModel, batch_size: int, grid_points: int = 4096
) -> float:
    """E[max of ``batch_size`` i.i.d. step lengths], tail-integrated."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    xs = np.linspace(0.0, float(model.max_tokens), grid_points)
    # F(x)^k with F the capped CDF: survival function of the maximum.
    survival = np.array(
        [1.0 - _capped_cdf(float(x), model) ** batch_size for x in xs]
    )
    return float(np.trapezoid(survival, xs))


def idle_fraction(model: StepLengthModel, batch_size: int) -> float:
    """Expected fraction of batch slot-time idle while awaiting stragglers.

    0 for a single beam; grows toward ``1 - E[L]/cap`` as the batch widens.
    This is exactly the capacity Speculative Beam Extension harvests.
    """
    if batch_size == 1:
        return 0.0
    mean = expected_step_tokens(model)
    longest = expected_max_step_tokens(model, batch_size)
    return max(0.0, 1.0 - mean / longest)
