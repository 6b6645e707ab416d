"""The on-disk result cache behind :func:`repro.experiments.runner.orchestrate`.

An experiment cell's metrics are a pure function of ``(spec, config)``:
every stochastic quantity in the simulation is hash-keyed
(:mod:`repro.utils.rng`). So a cell is memoized under a SHA-256 over that
content, and re-runs of ``run_all_experiments.py`` or ``python -m repro
sweep`` skip completed cells entirely. Floats survive the JSON round trip
exactly, so a replayed cell is bit-identical to a fresh one.

Cache layout: one JSON file per cell under the cache directory (default
``benchmarks/benchmark_results/cache/``, override with ``--cache-dir`` or
the ``REPRO_CACHE_DIR`` environment variable). Each file records the key's
provenance (spec + config) next to the serialized metrics, so a cache
directory is self-describing and safe to prune file-by-file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from enum import Enum
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.config import ServerConfig
from repro.metrics.report import ProblemRunResult, RunMetrics

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentSpec

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
]

CACHE_SCHEMA_VERSION = 1
DEFAULT_CACHE_DIR = Path("benchmarks/benchmark_results/cache")


def default_cache_dir() -> Path:
    """The result-cache directory: ``$REPRO_CACHE_DIR`` or the in-repo default."""
    override = os.environ.get("REPRO_CACHE_DIR")
    return Path(override) if override else DEFAULT_CACHE_DIR


def _content_dict(spec: ExperimentSpec, config: ServerConfig) -> dict:
    """The exact content a cell's result is a function of."""
    config_dict = {
        key: (value.value if isinstance(value, Enum) else value)
        for key, value in asdict(config).items()
    }
    return {"spec": asdict(spec), "config": config_dict}


def cache_key(
    spec: ExperimentSpec,
    config: ServerConfig,
    kind: str = "run",
    problem_index: int | None = None,
) -> str:
    """Content hash of one experiment cell.

    ``kind`` separates dataset-aggregate cells (``"run"``) from single-problem
    cells (``"problem"``); the schema version invalidates every entry when
    the serialized format changes.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": kind,
        **_content_dict(spec, config),
    }
    if problem_index is not None:
        payload["problem_index"] = problem_index
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk memo of completed experiment cells (one JSON file per cell)."""

    def __init__(self, directory: Path | str | None = None) -> None:
        self._dir = Path(directory) if directory is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> Path:
        return self._dir

    def path_for(self, key: str) -> Path:
        return self._dir / f"{key}.json"

    def _load_payload(self, key: str, kind: str) -> dict | None:
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION or payload.get("kind") != kind:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def load_metrics(self, key: str) -> RunMetrics | None:
        payload = self._load_payload(key, "run")
        if payload is None:
            return None
        return RunMetrics.from_json_dict(payload["metrics"])

    def load_problem(self, key: str) -> ProblemRunResult | None:
        payload = self._load_payload(key, "problem")
        if payload is None:
            return None
        return ProblemRunResult.from_json_dict(payload["result"])

    def _store(self, key: str, payload: dict) -> None:
        self._dir.mkdir(parents=True, exist_ok=True)
        # A temp file per write, then an atomic replace: concurrent writers
        # of one key never share a temp file, and readers never see a
        # partial one.
        fd, tmp = tempfile.mkstemp(dir=self._dir, prefix=f"{key}.", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, self.path_for(key))

    def store_metrics(
        self, key: str, spec: ExperimentSpec, config: ServerConfig, metrics: RunMetrics
    ) -> None:
        self._store(key, {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "run",
            **_content_dict(spec, config),
            "metrics": metrics.to_json_dict(),
        })

    def store_problem(
        self,
        key: str,
        spec: ExperimentSpec,
        config: ServerConfig,
        problem_index: int,
        result: ProblemRunResult,
    ) -> None:
        self._store(key, {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "problem",
            "problem_index": problem_index,
            **_content_dict(spec, config),
            "result": result.to_json_dict(),
        })
