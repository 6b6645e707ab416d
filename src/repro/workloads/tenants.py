"""Multi-tenant open-loop workload streams.

A :class:`TenantSpec` describes one traffic source end to end: its
arrival process (:mod:`~repro.workloads.arrivals`), the dataset profile
its problems are drawn from and how the draw is biased by difficulty,
the search algorithm and budget each request runs, and the per-request
latency contract (deadline, TTFT target, SLO class).
:func:`generate_trace` merges any number of tenants into one sorted
:class:`~repro.workloads.trace.Trace` — every draw keyed off the trace
seed and the tenant name, so adding a tenant never perturbs another
tenant's arrivals or problem picks.

Specs parse from compact CLI strings::

    chat:arrival=poisson,rate=0.05,dataset=amc23,deadline=300,ttft=60
    batch:arrival=bursty,rate=0.01,burst_rate=0.2,difficulty=hard,n=8

Unknown keys and values get exit-2-friendly
:class:`~repro.errors.ConfigError` messages with nearest-match
suggestions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from repro.errors import ConfigError
from repro.search.registry import ALGORITHMS
from repro.utils.registry import did_you_mean
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import ARRIVALS, ArrivalProcess
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.trace import Trace, TraceRequest

__all__ = ["TenantSpec", "generate_trace", "tenant_rng", "DIFFICULTY_MIXES"]

#: How a tenant's problem picks are biased within its dataset profile:
#: ``easy`` and ``hard`` weight the dataset's difficulty ranking with a
#: geometric decay from the respective end; ``mixed`` draws uniformly.
DIFFICULTY_MIXES = ("easy", "mixed", "hard")

#: Geometric decay of the rank weights for the biased difficulty mixes:
#: rank r (from the preferred end) gets weight ``(1 - _MIX_DECAY) ** r``.
_MIX_DECAY = 0.25

#: Problems each tenant draws from (indices cycle through a pool this
#: size, so long traces revisit problems — realistic for prefix sharing).
_PROBLEM_POOL = 24


@dataclass(frozen=True, slots=True)
class TenantSpec:
    """One tenant's traffic recipe.

    ``rate_rps`` is the (trough/background) arrival rate; ``peak_rate_rps``
    / ``period_s`` parameterize ``diurnal`` arrivals and ``burst_rate_rps``
    / ``on_s`` / ``off_s`` parameterize ``bursty`` ones (sensible defaults
    are derived from ``rate_rps`` when omitted; setting one for a process
    that does not take it is an error). ``requests`` overrides the
    trace-level default request count for this tenant.
    """

    name: str
    arrival: str = "poisson"
    rate_rps: float = 0.02
    peak_rate_rps: float | None = None
    period_s: float | None = None
    burst_rate_rps: float | None = None
    on_s: float | None = None
    off_s: float | None = None
    dataset: str = "amc23"
    difficulty: str = "mixed"
    algorithm: str = "beam_search"
    n: int = 4
    deadline_s: float | None = None
    ttft_slo_s: float | None = None
    slo_class: str = "standard"
    requests: int | None = None

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ":,="):
            raise ConfigError(
                f"tenant name must be non-empty and free of ':,=' "
                f"(got {self.name!r})"
            )
        ARRIVALS.check(self.arrival)
        if not (isfinite(self.rate_rps) and self.rate_rps > 0):
            raise ConfigError(
                f"tenant {self.name!r} needs a finite rate > 0, "
                f"got {self.rate_rps}"
            )
        DATASETS.check(self.dataset)
        if self.difficulty not in DIFFICULTY_MIXES:
            raise ConfigError(
                f"difficulty must be one of {', '.join(DIFFICULTY_MIXES)}; "
                f"got {self.difficulty!r}"
                f"{did_you_mean(self.difficulty, DIFFICULTY_MIXES)}"
            )
        ALGORITHMS.check(self.algorithm)
        if self.n < 1:
            raise ConfigError(f"tenant {self.name!r} needs n >= 1, got {self.n}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"tenant {self.name!r} needs deadline > 0, got {self.deadline_s}"
            )
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ConfigError(
                f"tenant {self.name!r} needs ttft > 0, got {self.ttft_slo_s}"
            )
        if self.requests is not None and self.requests < 1:
            raise ConfigError(
                f"tenant {self.name!r} needs requests >= 1, got {self.requests}"
            )
        self.arrival_process()  # the process validates its own parameters

    def arrival_process(self) -> ArrivalProcess:
        """Build this tenant's arrival process, defaulting derived params.

        ``diurnal`` defaults to a 4x peak over a 1-hour period; ``bursty``
        defaults to 10x bursts of mean 60 s separated by mean 240 s of
        background traffic. Any other process takes ``rate_rps`` alone.
        """
        rate = self.rate_rps
        defaults = {
            "diurnal": {"peak_rate_rps": 4.0 * rate, "period_s": 3600.0},
            "bursty": {"burst_rate_rps": 10.0 * rate, "on_s": 60.0, "off_s": 240.0},
        }.get(self.arrival, {})
        params = {"rate_rps": rate}
        for key in ("peak_rate", "period", "burst_rate", "on_s", "off_s"):
            name = self._SPEC_KEYS[key][0]
            value = getattr(self, name)
            if name in defaults:
                params[name] = defaults[name] if value is None else value
            elif value is not None:
                raise ConfigError(
                    f"tenant {self.name!r}: {self.arrival} arrivals take no "
                    f"{key} (got {key}={value})"
                )
        return ARRIVALS.build(self.arrival, **params)

    # -- compact CLI spec strings ---------------------------------------

    _SPEC_KEYS = {
        "arrival": ("arrival", str),
        "rate": ("rate_rps", float),
        "peak_rate": ("peak_rate_rps", float),
        "period": ("period_s", float),
        "burst_rate": ("burst_rate_rps", float),
        "on_s": ("on_s", float),
        "off_s": ("off_s", float),
        "dataset": ("dataset", str),
        "difficulty": ("difficulty", str),
        "algorithm": ("algorithm", str),
        "n": ("n", int),
        "deadline": ("deadline_s", float),
        "ttft": ("ttft_slo_s", float),
        "slo": ("slo_class", str),
        "requests": ("requests", int),
    }

    @classmethod
    def parse(cls, spec: str) -> "TenantSpec":
        """Parse ``name:key=value,key=value,...`` into a spec.

        The leading ``name:`` is optional (defaults to ``tenant``); keys
        are the CLI-facing short names (``rate``, ``deadline``, ``ttft``,
        ...). Unknown keys raise with a did-you-mean suggestion.
        """
        text = spec.strip()
        if not text:
            raise ConfigError("empty tenant spec")
        name = "tenant"
        if ":" in text:
            name, text = text.split(":", 1)
            name = name.strip()
        kwargs: dict[str, object] = {}
        if text.strip():
            for item in text.split(","):
                if "=" not in item:
                    raise ConfigError(
                        f"tenant spec items must be key=value, got {item!r} "
                        f"in {spec!r}"
                    )
                key, value = (part.strip() for part in item.split("=", 1))
                if key not in cls._SPEC_KEYS:
                    raise ConfigError(
                        f"unknown tenant spec key {key!r}"
                        f"{did_you_mean(key, cls._SPEC_KEYS)}; known: "
                        f"{', '.join(sorted(cls._SPEC_KEYS))}"
                    )
                field_name, cast = cls._SPEC_KEYS[key]
                try:
                    kwargs[field_name] = cast(value)
                except ValueError:
                    raise ConfigError(
                        f"tenant spec key {key!r} needs a {cast.__name__}, "
                        f"got {value!r}"
                    ) from None
        return cls(name=name, **kwargs)


def tenant_rng(seed: int, tenant: str) -> KeyedRng:
    """The rng every draw of ``tenant`` forks from in a trace seeded ``seed``.

    A tenant's arrival times are ``process.times(tenant_rng(seed, name),
    count)`` — for ``generate_trace``'s tenants and ``fleet``'s one
    tenant alike — and its problem picks draw from the same rng.
    """
    return KeyedRng(seed).fork("tenant", tenant)


def _problem_indices(
    spec: TenantSpec, count: int, rng: KeyedRng, pool: int, dataset_seed: int
) -> list[int]:
    """Difficulty-biased problem picks from the tenant's dataset pool.

    ``mixed`` draws uniformly over the pool. ``easy``/``hard`` rank the
    pool by difficulty and weight ranks geometrically from the preferred
    end, so the bias is strong but every problem stays reachable. The
    ranking is computed over the same ``(dataset, dataset_seed)`` pool
    the indices address at replay time.
    """
    if spec.difficulty == "mixed":
        return [
            rng.randint("problem", k, low=0, high=pool) for k in range(count)
        ]
    dataset = build_dataset(spec.dataset, seed=dataset_seed, size=pool)
    ranked = sorted(range(pool), key=lambda i: dataset.problems[i].difficulty)
    if spec.difficulty == "hard":
        ranked.reverse()
    weights = [(1.0 - _MIX_DECAY) ** r for r in range(pool)]
    return [
        ranked[rng.choice_index("problem", k, weights=weights)]
        for k in range(count)
    ]


def generate_trace(
    tenants: "list[TenantSpec] | tuple[TenantSpec, ...]",
    seed: int = 0,
    default_requests: int = 12,
    base_dataset: str | None = None,
) -> Trace:
    """Merge the tenants' streams into one sorted, replayable trace.

    Each tenant draws from an rng forked off ``(seed, tenant name)``, so
    traces compose: the same tenant spec under the same seed produces the
    same arrivals and problem picks regardless of which other tenants
    ride along. ``base_dataset`` (default: the first tenant's dataset)
    names the profile whose step-length dynamics the serving fleet uses.
    """
    if not tenants:
        raise ConfigError("generate_trace needs at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate tenant names: {', '.join(sorted(names))}")
    if default_requests < 1:
        raise ConfigError("default_requests must be >= 1")
    root = KeyedRng(seed)
    rows: list[tuple[float, str, int, TraceRequest]] = []
    for spec in tenants:
        rng = tenant_rng(seed, spec.name)
        count = spec.requests if spec.requests is not None else default_requests
        times = spec.arrival_process().times(rng, count)
        # The problem pool is seeded per (trace, tenant) so two tenants
        # on the same dataset still see distinct problem streams.
        dataset_seed = root.fork("tenant-dataset", spec.name).seed % 2**31
        pool = max(_PROBLEM_POOL, min(count, 4 * _PROBLEM_POOL))
        indices = _problem_indices(spec, count, rng, pool, dataset_seed)
        for k, (arrival, index) in enumerate(zip(times, indices)):
            rows.append(
                (
                    arrival,
                    spec.name,
                    k,
                    TraceRequest(
                        request_id=f"{spec.name}-{k:04d}",
                        tenant=spec.name,
                        arrival_s=arrival,
                        dataset=spec.dataset,
                        dataset_seed=dataset_seed,
                        problem_index=index,
                        algorithm=spec.algorithm,
                        n=spec.n,
                        deadline_s=spec.deadline_s,
                        ttft_slo_s=spec.ttft_slo_s,
                        slo_class=spec.slo_class,
                    ),
                )
            )
    rows.sort(key=lambda row: row[:3])
    return Trace(
        seed=seed,
        requests=tuple(row[3] for row in rows),
        base_dataset=base_dataset or tenants[0].dataset,
    )
