"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables/figures at a
bench-friendly scale, prints the same rows/series the paper reports, and
asserts the figure's qualitative shape. Run with::

    pytest benchmarks/ --benchmark-only -s

(-s shows the rendered tables; each benchmark's docstring states the
shape the paper reports, and README "The paper's three techniques" maps
techniques to figures.)

Set ``REPRO_BENCH_CACHE=1`` to route every experiment cell through the
parallel orchestrator's on-disk result cache (default location
``benchmarks/benchmark_results/cache/``, override via ``REPRO_CACHE_DIR``):
a second benchmark run then skips completed cells. Off by default so the
timing numbers stay honest.
"""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _result_cache():
    """Opt-in orchestrated caching for the whole benchmark session."""
    if os.environ.get("REPRO_BENCH_CACHE") != "1":
        yield None
        return
    from repro.experiments.parallel import (
        ParallelOrchestrator,
        ResultCache,
        use_orchestrator,
    )

    cache = ResultCache()
    with ParallelOrchestrator(jobs=1, cache=cache) as orchestrator:
        with use_orchestrator(orchestrator):
            yield cache


@pytest.fixture
def show():
    """Print a rendered table so it lands in the benchmark log."""

    def _show(*tables: str) -> None:
        for table in tables:
            print("\n" + table)

    return _show
