"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables/figures at a
bench-friendly scale, prints the same rows/series the paper reports, and
asserts the figure's qualitative shape. Run with::

    pytest benchmarks/ --benchmark-only -s

(-s shows the rendered tables; each benchmark's docstring states the
shape the paper reports, and README "The paper's three techniques" maps
techniques to figures.)
"""

import pytest


@pytest.fixture
def show():
    """Print a rendered table so it lands in the benchmark log."""

    def _show(*tables: str) -> None:
        for table in tables:
            print("\n" + table)

    return _show
