"""Terminal plots for the benchmark harness.

The paper's artifact renders PDF figures; this reproduction renders the
same series as terminal graphics so results are inspectable over SSH and
diffable in CI: multi-series strip plots for trends (Fig. 5/6/17 style).
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["series_plot"]

_TICKS = " .:-=+*#%@"


def series_plot(
    series: Mapping[str, Sequence[float]],
    height: int = 10,
    title: str | None = None,
    x_label: str = "",
) -> str:
    """Strip plot of one or more equal-length series over an index axis.

    Each series gets its own marker (its name's first letter); overlapping
    points show the later series' marker. Values are min-max normalized
    over all series jointly so crossings are visible.
    """
    if not series:
        raise ValueError("nothing to plot")
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError("all series must have equal length")
    (n_points,) = lengths
    if n_points < 2:
        raise ValueError("need at least two points per series")
    if height < 2:
        raise ValueError("height must be at least 2")

    all_values = [v for values in series.values() for v in values]
    lo, hi = min(all_values), max(all_values)
    span = (hi - lo) or 1.0

    grid = [[" "] * n_points for _ in range(height)]
    for name, values in series.items():
        marker = name[0].upper() if name else "?"
        for x, value in enumerate(values):
            y = round((value - lo) / span * (height - 1))
            grid[height - 1 - y][x] = marker

    lines = [title] if title else []
    lines.append(f"{hi:>10.2f} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{lo:>10.2f} +" + "".join(grid[-1]))
    axis = " " * 12 + "^" + " " * (n_points - 2) + "^"
    lines.append(axis)
    legend = "  ".join(f"{name[0].upper()}={name}" for name in series)
    lines.append(" " * 12 + (x_label + "  " if x_label else "") + legend)
    return "\n".join(lines)
