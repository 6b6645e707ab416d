"""Parallel experiment orchestration with a content-keyed result cache.

The figure scripts were written against the sequential runner; this module
is the scaling substrate underneath them. A :class:`ParallelOrchestrator`
installs itself as the runner's *active orchestrator*
(:func:`repro.experiments.runner.set_active_orchestrator`), after which
every ``run_pair`` / ``sweep_n`` / ``run_metrics`` / ``run_problem`` call —
including the ones inside :mod:`repro.experiments.figures` — is

* **sharded** across worker processes (``concurrent.futures.
  ProcessPoolExecutor``) when a call fans out over multiple cells, and
* **memoized** in an on-disk cache keyed by a SHA-256 over the full
  ``(spec, config)`` content, so re-runs of ``run_all_experiments.py`` and
  the ``benchmarks/`` suite skip completed cells entirely.

Cache layout: one JSON file per cell under the cache directory (default
``benchmarks/benchmark_results/cache/``, override with ``--cache-dir`` or
the ``REPRO_CACHE_DIR`` environment variable). Each file records the key's
provenance (spec + config) next to the serialized metrics, so a cache
directory is self-describing and safe to prune file-by-file.

Correctness note: every stochastic quantity in the simulation is hash-keyed
(:mod:`repro.utils.rng`), so a cell's metrics are a pure function of
``(spec, config)``. Process-parallel and cache-replayed results are
therefore *bit-identical* to a sequential run — floats survive the JSON
round trip exactly — which the test suite asserts.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, replace
from enum import Enum
from hashlib import sha256
from pathlib import Path

from repro.core.config import ServerConfig
from repro.experiments import runner as _runner
from repro.experiments.runner import (
    ExperimentSpec,
    PairResult,
    run_metrics_sequential,
    run_pair_sequential,
    run_problem_sequential,
)
from repro.metrics.report import ProblemRunResult, RunMetrics
from repro.workloads.problem import Dataset

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "ParallelOrchestrator",
    "cache_key",
    "default_cache_dir",
    "run_pairs",
    "use_orchestrator",
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
        path = self.path_for(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        tmp.replace(path)  # atomic: concurrent runs never see partial files

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


def _pool_run_metrics(spec: ExperimentSpec, config: ServerConfig) -> RunMetrics:
    """Worker-side execution of one cell (rebuilds the dataset from the spec)."""
    metrics, _ = run_metrics_sequential(spec, config)
    return metrics


def _dataset_matches_spec(dataset: Dataset | None, spec: ExperimentSpec) -> bool:
    """Whether a caller-supplied dataset is the one the spec describes.

    The cache key covers only the spec, so a hand-built dataset that
    diverges from ``spec.build_dataset()`` must bypass the cache instead of
    poisoning it. Datasets are pure functions of ``(name, seed, size)``:
    the dataset itself holds its name and size, and the seed is baked
    into every problem id (``f"{name}-{seed}-{index:03d}"``), so all three
    are checkable without rebuilding anything.
    """
    if dataset is None:
        return True
    return (
        dataset.name == spec.dataset_name
        and len(dataset) == spec.dataset_size
        and dataset.problems[0].problem_id
        == f"{spec.dataset_name}-{spec.seed}-000"
    )


class ParallelOrchestrator:
    """Shards experiment cells over worker processes, memoized on disk.

    ``jobs=1`` runs everything in-process (still cached); ``jobs>1`` fans
    cell lists out over a :class:`ProcessPoolExecutor`. Pass ``cache=None``
    to disable memoization. Use as a context manager, or through
    :func:`use_orchestrator` to also route the module-level runner entry
    points here.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._jobs = jobs
        self._cache = cache
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def cache(self) -> ResultCache | None:
        return self._cache

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelOrchestrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._jobs <= 1:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._jobs)
        return self._pool

    # -- single cells ----------------------------------------------------

    def run_metrics(
        self,
        spec: ExperimentSpec,
        config: ServerConfig,
        dataset: Dataset | None = None,
    ) -> tuple[RunMetrics, list[ProblemRunResult]]:
        """One cell, cache-first. Cache hits return an empty result list."""
        cacheable = self._cache is not None and _dataset_matches_spec(dataset, spec)
        key = cache_key(spec, config)
        if cacheable:
            cached = self._cache.load_metrics(key)
            if cached is not None:
                return cached, []
        metrics, results = run_metrics_sequential(spec, config, dataset)
        if cacheable:
            self._cache.store_metrics(key, spec, config, metrics)
        return metrics, results

    def run_problem(
        self,
        spec: ExperimentSpec,
        config: ServerConfig,
        problem_index: int = 0,
        dataset: Dataset | None = None,
    ) -> ProblemRunResult:
        cacheable = self._cache is not None and _dataset_matches_spec(dataset, spec)
        key = cache_key(spec, config, kind="problem", problem_index=problem_index)
        if cacheable:
            cached = self._cache.load_problem(key)
            if cached is not None:
                return cached
        result = run_problem_sequential(spec, config, problem_index, dataset)
        if cacheable:
            self._cache.store_problem(key, spec, config, problem_index, result)
        return result

    # -- fan-out ---------------------------------------------------------

    def run_pair(
        self,
        spec: ExperimentSpec,
        baseline_overrides: dict | None = None,
        fast_overrides: dict | None = None,
        dataset: Dataset | None = None,
    ) -> PairResult:
        return self.run_pairs(
            [spec], baseline_overrides, fast_overrides, dataset=dataset
        )[0]

    def run_pairs(
        self,
        specs: list[ExperimentSpec],
        baseline_overrides: dict | None = None,
        fast_overrides: dict | None = None,
        dataset: Dataset | None = None,
    ) -> list[PairResult]:
        """Baseline+FastTTS for every spec, sharded across the pool.

        All 2x``len(specs)`` cells are resolved together: cache answers
        first, then every remaining cell is submitted to the worker pool at
        once, so the pool sees the widest possible fan-out. ``dataset`` is
        an in-process reuse hint only — workers rebuild the dataset from the
        spec, which yields the identical problem set by construction. A
        dataset that does *not* match its spec falls back to the sequential
        path (uncached, solved on the given problems), keeping orchestrated
        and direct calls observably identical.
        """
        if dataset is not None and not all(
            _dataset_matches_spec(dataset, spec) for spec in specs
        ):
            return [
                run_pair_sequential(spec, baseline_overrides, fast_overrides, dataset)
                for spec in specs
            ]
        cells: list[tuple[str, ExperimentSpec, ServerConfig]] = []
        pair_keys: list[tuple[str, str]] = []
        for spec in specs:
            keys = []
            for fast, overrides in (
                (False, baseline_overrides), (True, fast_overrides)
            ):
                config = spec.build_config(fast=fast, **(overrides or {}))
                key = cache_key(spec, config)
                cells.append((key, spec, config))
                keys.append(key)
            pair_keys.append((keys[0], keys[1]))

        resolved: dict[str, RunMetrics] = {}
        pending: dict[str, tuple[ExperimentSpec, ServerConfig]] = {}
        for key, spec, config in cells:
            if key in resolved or key in pending:
                continue
            if self._cache is not None:
                cached = self._cache.load_metrics(key)
                if cached is not None:
                    resolved[key] = cached
                    continue
            pending[key] = (spec, config)

        pool = self._ensure_pool() if pending else None
        if pool is not None:
            futures = {
                key: pool.submit(_pool_run_metrics, spec, config)
                for key, (spec, config) in pending.items()
            }
            for key, future in futures.items():
                resolved[key] = future.result()
        else:
            for key, (spec, config) in pending.items():
                reusable = dataset if _dataset_matches_spec(dataset, spec) else None
                metrics, _ = run_metrics_sequential(spec, config, reusable)
                resolved[key] = metrics
        if self._cache is not None:
            for key in pending:
                spec, config = pending[key]
                self._cache.store_metrics(key, spec, config, resolved[key])

        return [
            PairResult(
                spec=spec, baseline=resolved[base_key], fasttts=resolved[fast_key]
            )
            for spec, (base_key, fast_key) in zip(specs, pair_keys)
        ]

    def sweep_n(
        self,
        spec: ExperimentSpec,
        n_values: list[int],
        baseline_overrides: dict | None = None,
        fast_overrides: dict | None = None,
        dataset: Dataset | None = None,
    ) -> list[PairResult]:
        """The beam-count sweep as one sharded grid (dataset shared by design)."""
        specs = [replace(spec, n=n) for n in n_values]
        return self.run_pairs(
            specs, baseline_overrides, fast_overrides, dataset=dataset
        )


@contextmanager
def use_orchestrator(orchestrator: ParallelOrchestrator):
    """Route all runner entry points through ``orchestrator`` for the block."""
    previous = _runner.set_active_orchestrator(orchestrator)
    try:
        yield orchestrator
    finally:
        _runner.set_active_orchestrator(previous)


def run_pairs(
    specs: list[ExperimentSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
    baseline_overrides: dict | None = None,
    fast_overrides: dict | None = None,
) -> list[PairResult]:
    """One-shot convenience: shard a spec list without managing a context."""
    with ParallelOrchestrator(jobs=jobs, cache=cache) as orchestrator:
        return orchestrator.run_pairs(specs, baseline_overrides, fast_overrides)
