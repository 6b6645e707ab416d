"""Experiment cells: the one implementation behind every figure.

One :class:`ExperimentSpec` names everything a run needs; ``run_metrics``
executes it and aggregates; ``run_pairs`` produces the baseline-vs-FastTTS
comparison almost every figure reports (``run_pair`` and ``sweep_n`` are
its one-spec and beam-sweep forms); ``run_problem`` solves a single
problem of the spec's dataset (the per-problem deep dives).

Each entry point reads the result cache and worker pool that
:func:`orchestrate` installs for its block: cells are answered from the
on-disk :class:`~repro.experiments.cache.ResultCache` first, and the rest
of a ``run_pairs`` grid is sharded over worker processes. Outside an
``orchestrate`` block both are ``None`` and every call runs uncached in
this process. Because every stochastic quantity in the simulation is
hash-keyed (:mod:`repro.utils.rng`), a cell's result is a pure function
of ``(spec, config)`` — parallel and cached runs are bit-identical to
in-process ones.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.core.config import ServerConfig, baseline_config, fasttts_config
from repro.core.server import TTSServer
from repro.experiments.cache import ResultCache, cache_key
from repro.metrics.goodput import format_gain, throughput_gain
from repro.metrics.report import ProblemRunResult, RunMetrics
from repro.search.registry import build_algorithm
from repro.workloads.datasets import build_dataset
from repro.workloads.problem import Dataset

__all__ = [
    "ExperimentSpec",
    "orchestrate",
    "run_metrics",
    "run_pair",
    "run_pairs",
    "run_problem",
    "sweep_n",
    "PairResult",
    "MEMORY_FRACTIONS",
]

# The paper's per-configuration memory settings (Sec. 6.1): the two heavy
# pairings get 90% of GPU memory to test throughput limits; the 1.5B+1.5B
# pairing is deliberately restricted to 40% to emulate scarce memory.
MEMORY_FRACTIONS = {
    "1.5B+1.5B": 0.40,
    "1.5B+7B": 0.90,
    "7B+1.5B": 0.90,
}

# The result cache and worker pool ``orchestrate`` installs for its block.
# ``None`` means uncached, in this process.
_cache: ResultCache | None = None
_pool: ProcessPoolExecutor | None = None


@contextmanager
def orchestrate(jobs: int = 1, cache: ResultCache | None = None) -> Iterator[None]:
    """Route every entry point through ``cache`` and ``jobs`` workers.

    ``jobs=1`` runs cells in-process (still cached); ``jobs>1`` shards a
    ``run_pairs`` grid's uncached cells over a process pool. ``cache=None``
    disables memoization. The previous cache and pool come back on exit.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    global _cache, _pool
    previous = _cache, _pool
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    _cache, _pool = cache, pool
    try:
        yield
    finally:
        _cache, _pool = previous
        if pool is not None:
            pool.shutdown(wait=True)


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One serving experiment: workload x algorithm x system."""

    dataset_name: str = "aime24"
    dataset_size: int = 2
    model_config: str = "1.5B+1.5B"
    device_name: str = "rtx4090"
    algorithm: str = "beam_search"
    n: int = 16
    seed: int = 0
    memory_fraction: float | None = None  # None = the paper's per-config value
    algorithm_kwargs: dict = field(default_factory=dict)

    def resolve_memory_fraction(self) -> float:
        if self.memory_fraction is not None:
            return self.memory_fraction
        return MEMORY_FRACTIONS.get(self.model_config, 0.9)

    def build_dataset(self) -> Dataset:
        return build_dataset(self.dataset_name, seed=self.seed, size=self.dataset_size)

    def build_algorithm(self):
        return build_algorithm(self.algorithm, self.n, **self.algorithm_kwargs)

    def build_config(self, fast: bool, **overrides) -> ServerConfig:
        base_kwargs = dict(
            device_name=self.device_name,
            model_config=self.model_config,
            memory_fraction=self.resolve_memory_fraction(),
            seed=self.seed,
        )
        base_kwargs.update(overrides)
        return fasttts_config(**base_kwargs) if fast else baseline_config(**base_kwargs)


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


def _solve(
    spec: ExperimentSpec, config: ServerConfig, dataset: Dataset | None = None
) -> tuple[RunMetrics, list[ProblemRunResult]]:
    """One server over the dataset, in this process, uncached."""
    data = dataset if dataset is not None else spec.build_dataset()
    results = TTSServer(config, data).run(list(data), spec.build_algorithm())
    return RunMetrics.aggregate(results), results


def _solve_metrics(spec: ExperimentSpec, config: ServerConfig) -> RunMetrics:
    """A pool worker's cell: the dataset is rebuilt from the spec."""
    return _solve(spec, config)[0]


def run_metrics(
    spec: ExperimentSpec,
    config: ServerConfig,
    dataset: Dataset | None = None,
) -> tuple[RunMetrics, list[ProblemRunResult]]:
    """Run one server over the spec's dataset and aggregate.

    A cell answered from the result cache comes back with an empty
    per-problem result list (only the aggregate is cached).
    """
    cache = _cache if _dataset_matches_spec(dataset, spec) else None
    if cache is None:
        return _solve(spec, config, dataset)
    key = cache_key(spec, config)
    cached = cache.load_metrics(key)
    if cached is not None:
        return cached, []
    metrics, results = _solve(spec, config, dataset)
    cache.store_metrics(key, spec, config, metrics)
    return metrics, results


def run_problem(
    spec: ExperimentSpec,
    config: ServerConfig,
    problem_index: int = 0,
    dataset: Dataset | None = None,
) -> ProblemRunResult:
    """Solve one problem of the spec's dataset (cached when orchestrated)."""
    cache = _cache if _dataset_matches_spec(dataset, spec) else None
    key = cache_key(spec, config, kind="problem", problem_index=problem_index)
    if cache is not None:
        cached = cache.load_problem(key)
        if cached is not None:
            return cached
    data = dataset if dataset is not None else spec.build_dataset()
    problems = list(data)
    if not 0 <= problem_index < len(problems):
        raise IndexError(
            f"problem_index {problem_index} out of range for a dataset of "
            f"{len(problems)} problems"
        )
    result = TTSServer(config, data).solve(
        problems[problem_index], spec.build_algorithm()
    )
    if cache is not None:
        cache.store_problem(key, spec, config, problem_index, result)
    return result


@dataclass(frozen=True, slots=True)
class PairResult:
    """Baseline vs FastTTS on the same workload."""

    spec: ExperimentSpec
    baseline: RunMetrics
    fasttts: RunMetrics

    @property
    def goodput_gain(self) -> float:
        return throughput_gain(self.fasttts.goodput, self.baseline.goodput)

    @property
    def latency_reduction(self) -> float:
        """Fractional end-to-end latency saved by FastTTS (0..1)."""
        if self.baseline.latency.total == 0:
            return 0.0
        return 1.0 - self.fasttts.latency.total / self.baseline.latency.total

    @property
    def verifier_latency_reduction(self) -> float:
        if self.baseline.latency.verification == 0:
            return 0.0
        return 1.0 - (
            self.fasttts.latency.verification / self.baseline.latency.verification
        )

    @property
    def generator_latency_reduction(self) -> float:
        if self.baseline.latency.generation == 0:
            return 0.0
        return 1.0 - (
            self.fasttts.latency.generation / self.baseline.latency.generation
        )

    def summary_row(self) -> list[object]:
        return [
            self.spec.model_config,
            self.spec.dataset_name,
            self.spec.algorithm,
            self.spec.n,
            round(self.baseline.goodput, 2),
            round(self.fasttts.goodput, 2),
            format_gain(self.goodput_gain),
            round(self.latency_reduction * 100, 1),
        ]


def run_pairs(
    specs: list[ExperimentSpec],
    baseline_overrides: dict | None = None,
    fast_overrides: dict | None = None,
    dataset: Dataset | None = None,
) -> list[PairResult]:
    """Baseline and FastTTS on identical workloads, for every spec.

    All 2x``len(specs)`` cells are resolved together: cache answers first,
    then every remaining cell at once — over the worker pool when one is
    installed, so it sees the widest possible fan-out. ``dataset`` is an
    in-process reuse hint only: workers rebuild the dataset from the spec,
    which yields the identical problem set by construction. A dataset
    that does *not* match its spec is solved as given, in process and
    uncached.
    """
    cells = [
        (spec, spec.build_config(fast=fast, **(overrides or {})))
        for spec in specs
        for fast, overrides in ((False, baseline_overrides), (True, fast_overrides))
    ]
    if all(_dataset_matches_spec(dataset, spec) for spec in specs):
        metrics = _resolve(cells, dataset)
    else:
        metrics = [_solve(spec, config, dataset)[0] for spec, config in cells]
    return [
        PairResult(spec=spec, baseline=metrics[2 * i], fasttts=metrics[2 * i + 1])
        for i, spec in enumerate(specs)
    ]


def _resolve(
    cells: list[tuple[ExperimentSpec, ServerConfig]], dataset: Dataset | None
) -> list[RunMetrics]:
    """Each cell's metrics: cached, else solved once per distinct key."""
    keys = [cache_key(spec, config) for spec, config in cells]
    resolved: dict[str, RunMetrics] = {}
    pending: dict[str, tuple[ExperimentSpec, ServerConfig]] = {}
    for key, cell in zip(keys, cells):
        if key in resolved or key in pending:
            continue
        cached = _cache.load_metrics(key) if _cache is not None else None
        if cached is not None:
            resolved[key] = cached
        else:
            pending[key] = cell
    if _pool is not None:
        futures = {
            key: _pool.submit(_solve_metrics, spec, config)
            for key, (spec, config) in pending.items()
        }
        for key, future in futures.items():
            resolved[key] = future.result()
    else:
        for key, (spec, config) in pending.items():
            resolved[key] = _solve(spec, config, dataset)[0]
    if _cache is not None:
        for key, (spec, config) in pending.items():
            _cache.store_metrics(key, spec, config, resolved[key])
    return [resolved[key] for key in keys]


def run_pair(
    spec: ExperimentSpec,
    baseline_overrides: dict | None = None,
    fast_overrides: dict | None = None,
    dataset: Dataset | None = None,
) -> PairResult:
    """Run the baseline and FastTTS on identical workloads."""
    return run_pairs([spec], baseline_overrides, fast_overrides, dataset)[0]


def sweep_n(
    spec: ExperimentSpec,
    n_values: list[int],
    baseline_overrides: dict | None = None,
    fast_overrides: dict | None = None,
    dataset: Dataset | None = None,
) -> list[PairResult]:
    """The figures' common x-axis: a sweep over the number of beams.

    The dataset is built once per sweep and threaded through every pair:
    ``n`` never changes the problem set, so all points see the identical
    workload by construction, and the sweep skips redundant dataset
    synthesis.
    """
    return run_pairs(
        [replace(spec, n=n) for n in n_values],
        baseline_overrides,
        fast_overrides,
        dataset if dataset is not None else spec.build_dataset(),
    )
