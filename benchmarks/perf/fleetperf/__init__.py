"""Layered performance benchmark for the FastTTS fleet simulator.

See ``benchmarks/perf/README.md`` for the metric glossary, the workload
rationale and the measurement protocol.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

#: ``benchmarks/perf`` — everything the benchmark owns lives under here.
BENCH_DIR = Path(__file__).resolve().parent.parent
#: The checkout root (``BENCHMARK.json`` sits here, ``src/`` beside it).
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"


def ensure_repro_importable() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    The benchmark command carries no ``PYTHONPATH`` (the contract names a
    bare ``python3 benchmarks/perf/run.py``), so the harness finds the
    package it measures relative to its own location — ahead of any
    installed copy, which would not be the code under test. Only a
    harness copied away from its checkout falls back to an installed one.
    """
    if (SRC_DIR / "repro").is_dir():
        if str(SRC_DIR) not in sys.path:
            sys.path.insert(0, str(SRC_DIR))
    elif importlib.util.find_spec("repro") is None:
        raise ImportError(
            f"the repro package is neither at {SRC_DIR} nor installed: "
            "run the benchmark from a full checkout"
        )
