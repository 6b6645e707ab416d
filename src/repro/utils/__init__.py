"""Shared utilities: keyed RNG streams, statistics, and table rendering."""

from repro.utils.ascii_plot import series_plot
from repro.utils.rng import KeyedRng, stable_hash64
from repro.utils.stats import percentile, ratio
from repro.utils.tables import format_bytes, render_table

__all__ = [
    "KeyedRng",
    "stable_hash64",
    "percentile",
    "ratio",
    "render_table",
    "format_bytes",
    "series_plot",
]
