"""Small statistics helpers shared by metrics and benchmark reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Summary", "summarize", "geometric_mean", "percentile", "ratio"]


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} std={self.std:.3f} "
            f"min={self.minimum:.3f} p50={self.p50:.3f} "
            f"p95={self.p95:.3f} max={self.maximum:.3f}"
        )


def summarize(values: Iterable[float]) -> Summary:
    """Summarize a sample; raises ``ValueError`` on an empty sample."""
    import numpy as np

    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        maximum=float(arr.max()),
    )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values."""
    import numpy as np

    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot take the geometric mean of an empty sample")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.log(arr).mean()))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of a non-empty sample.

    Bit-equal to ``np.percentile(values, q)`` (its default linear rule):
    the virtual index ``(n - 1) * (q / 100)``, and numpy's ``lerp``, which
    interpolates back from the upper neighbour once the weight reaches
    one half. A sample holding NaN has a NaN percentile. Only the sign of
    a zero result can differ, when the sample mixes ``0.0`` and ``-0.0``
    (numpy's partition orders those two either way).
    """
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(map(float, values))
    if any(map(math.isnan, ordered)):
        return math.nan
    top = len(ordered) - 1
    index = top * (q / 100)
    if index >= top:  # numpy takes the last value as both neighbours
        below, a, b = -1, ordered[-1], ordered[-1]
    else:
        below = math.floor(index)
        a, b = ordered[below], ordered[below + 1]
    t = index - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio: returns ``inf`` for x/0 with x>0 and ``nan`` for 0/0."""
    if denominator == 0:
        return math.nan if numerator == 0 else math.inf
    return numerator / denominator
