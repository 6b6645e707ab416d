"""ASCII table rendering for the benchmark harness.

The paper's artifact emits PDF figures; this reproduction instead prints
the same rows/series as aligned text tables so results are inspectable in
a terminal and diffable in CI.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table", "format_bytes"]


def format_bytes(num_bytes: float, precision: int = 2) -> str:
    """Format a byte count with binary prefixes, e.g. ``'3.00GiB'``."""
    magnitude = float(num_bytes)
    for prefix in ["B", "KiB", "MiB", "GiB", "TiB"]:
        if abs(magnitude) < 1024.0 or prefix == "TiB":
            return f"{magnitude:.{precision}f}{prefix}"
        magnitude /= 1024.0
    raise AssertionError("unreachable")


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width text table.

    Numeric cells are right-aligned, text cells left-aligned. Floats are
    shown with three decimals unless they are integral.
    """
    if not headers:
        raise ValueError("headers must be non-empty")

    def fmt(cell: object) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return f"{cell:.0f}" if cell.is_integer() and abs(cell) < 1e15 else f"{cell:.3f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")

    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    numeric_cols = [
        all(_is_numeric(row[i]) for row in rows) if rows else False
        for i in range(len(headers))
    ]

    def render_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.rjust(widths[i]) if numeric_cols[i] else cell.ljust(widths[i]))
        return "| " + " | ".join(parts) + " |"

    separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(separator)
    lines.append(render_row(list(headers)))
    lines.append(separator)
    lines.extend(render_row(row) for row in str_rows)
    lines.append(separator)
    return "\n".join(lines)


def _is_numeric(cell: object) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)
