"""Keyed-RNG fault processes and the deterministic fleet fault injector.

Availability numbers are only comparable if the failure timeline is a
pure function of the seed — never of scheduler interleaving, of how many
requests arrived first, or of which lane happened to be busy. Every draw
here therefore goes through :class:`~repro.utils.rng.KeyedRng` streams
keyed by the draw's *position* in the process (occurrence index), the
same discipline as :mod:`repro.workloads.arrivals`: two injectors built
from the same spec and seed emit bit-identical timelines, and extending
the horizon never perturbs the prefix.

Four fault types, registered by name in :data:`FAULTS` (a
:class:`~repro.utils.registry.Registry`), cover the failure modes a
multi-lane serving fleet actually sees:

``crash``
    The lane goes DOWN and its resident KV is lost. With ``mttr=`` the
    lane recovers (empty) after the mean-time-to-repair window;
    without, the crash is permanent.
``stall``
    The lane's clock freezes for ``duration`` seconds — a GC pause, a
    thermal throttle, a driver hiccup. No state is lost, but everything
    resident rides out the window.
``link_degrade``
    The lane's PCIe offload bandwidth is scaled by ``factor`` — link
    contention or a renegotiated lane width. KV swap traffic slows
    accordingly; ``duration`` bounds the window (omit for permanent).
``kv_pressure``
    The lane's KV budget is shrunk to ``fraction`` of its capacity for
    ``duration`` seconds — a co-tenant grabbing VRAM. Resident KV above
    the shrunk budget is evicted immediately (an eviction storm) and
    victims pay restores when they next run.

Each fault is scheduled either one-shot (``at=T``) or as a Poisson
process (``rate=R`` occurrences per second); ``lane=`` pins the victim
lane, otherwise each occurrence draws one uniformly. Specs compose with
``;``::

    crash:at=120,lane=1,mttr=60;kv_pressure:rate=0.001,fraction=0.5
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.errors import ConfigError, RetryExhaustedError
from repro.utils.registry import Registry
from repro.utils.rng import KeyedRng

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultProcess",
    "LaneCrash",
    "TransientStall",
    "LinkDegrade",
    "KvPressure",
    "RetryPolicy",
    "FAULTS",
    "check_lane_pins",
    "parse_fault_spec",
]


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One concrete fault occurrence on one lane.

    ``duration_s``/``factor``/``mttr_s`` carry the type-specific payload;
    the consumer (the fleet drain loop) schedules any matching recovery
    from them — the injector only emits onsets, in time order.
    """

    time_s: float
    lane: int
    kind: str
    duration_s: float | None = None
    factor: float | None = None
    mttr_s: float | None = None


class FaultProcess(ABC):
    """One fault clause: a schedule (one-shot or Poisson) plus a payload.

    Subclasses draw exclusively through keyed streams of the ``rng``
    handed to :meth:`events`, so the timeline depends only on the rng's
    root seed and the clause parameters.
    """

    name: str = "abstract"
    description: str = ""

    # Subclasses declare these dataclass fields.
    at: float | None
    rate: float | None
    lane: int | None

    @abstractmethod
    def events(self, rng: KeyedRng, num_lanes: int) -> Iterator[FaultEvent]:
        """Yield this clause's occurrences in strictly increasing time."""

    def _check_schedule(self) -> None:
        if (self.at is None) == (self.rate is None):
            raise ConfigError(
                f"{self.name} fault needs exactly one of at= (one-shot) "
                f"or rate= (Poisson occurrences/s)"
            )
        if self.at is not None and self.at < 0:
            raise ConfigError(f"{self.name} fault needs at >= 0 (got {self.at})")
        if self.rate is not None and self.rate <= 0:
            raise ConfigError(f"{self.name} fault needs rate > 0 (got {self.rate})")
        if self.lane is not None and self.lane < 0:
            raise ConfigError(f"{self.name} fault needs lane >= 0 (got {self.lane})")

    def _occurrences(
        self, rng: KeyedRng, num_lanes: int
    ) -> Iterator[tuple[float, int]]:
        """Yield ``(time, lane)`` pairs, each addressed by occurrence index."""
        if self.at is not None:
            yield self.at, self._victim(rng, num_lanes, 0)
            return
        now, i = 0.0, 0
        while True:
            now += rng.exponential(f"{self.name}-gap", i, scale=1.0 / self.rate)
            yield now, self._victim(rng, num_lanes, i)
            i += 1

    def _victim(self, rng: KeyedRng, num_lanes: int, index: int) -> int:
        if self.lane is not None:
            return self.lane
        return rng.randint(f"{self.name}-lane", index, low=0, high=num_lanes)


@dataclass(frozen=True, slots=True)
class LaneCrash(FaultProcess):
    """Lane goes DOWN, resident KV lost; ``mttr`` seconds to recover."""

    at: float | None = None
    rate: float | None = None
    lane: int | None = None
    mttr: float | None = None

    name = "crash"
    description = "lane dies and loses its KV; mttr= recovers it empty"

    def __post_init__(self) -> None:
        self._check_schedule()
        if self.mttr is not None and self.mttr <= 0:
            raise ConfigError(f"crash fault needs mttr > 0 (got {self.mttr})")

    def events(self, rng: KeyedRng, num_lanes: int) -> Iterator[FaultEvent]:
        for time_s, lane in self._occurrences(rng, num_lanes):
            yield FaultEvent(time_s=time_s, lane=lane, kind=self.name,
                             mttr_s=self.mttr)


@dataclass(frozen=True, slots=True)
class TransientStall(FaultProcess):
    """Lane clock frozen for ``duration`` seconds; nothing is lost."""

    at: float | None = None
    rate: float | None = None
    lane: int | None = None
    duration: float = 30.0

    name = "stall"
    description = "lane clock frozen for duration= seconds"

    def __post_init__(self) -> None:
        self._check_schedule()
        if self.duration <= 0:
            raise ConfigError(f"stall fault needs duration > 0 (got {self.duration})")

    def events(self, rng: KeyedRng, num_lanes: int) -> Iterator[FaultEvent]:
        for time_s, lane in self._occurrences(rng, num_lanes):
            yield FaultEvent(time_s=time_s, lane=lane, kind=self.name,
                             duration_s=self.duration)


@dataclass(frozen=True, slots=True)
class LinkDegrade(FaultProcess):
    """Lane PCIe bandwidth scaled by ``factor``; ``duration`` bounds it."""

    at: float | None = None
    rate: float | None = None
    lane: int | None = None
    factor: float = 0.25
    duration: float | None = None

    name = "link_degrade"
    description = "lane PCIe bandwidth scaled by factor= for duration="

    def __post_init__(self) -> None:
        self._check_schedule()
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(
                f"link_degrade fault needs 0 < factor < 1 (got {self.factor})"
            )
        if self.duration is not None and self.duration <= 0:
            raise ConfigError(
                f"link_degrade fault needs duration > 0 (got {self.duration})"
            )

    def events(self, rng: KeyedRng, num_lanes: int) -> Iterator[FaultEvent]:
        for time_s, lane in self._occurrences(rng, num_lanes):
            yield FaultEvent(time_s=time_s, lane=lane, kind=self.name,
                             factor=self.factor, duration_s=self.duration)


@dataclass(frozen=True, slots=True)
class KvPressure(FaultProcess):
    """Lane KV budget shrunk to ``fraction`` of capacity for ``duration``."""

    at: float | None = None
    rate: float | None = None
    lane: int | None = None
    fraction: float = 0.5
    duration: float = 60.0

    name = "kv_pressure"
    description = "lane KV budget shrunk to fraction= for duration= seconds"

    def __post_init__(self) -> None:
        self._check_schedule()
        if not 0.0 < self.fraction < 1.0:
            raise ConfigError(
                f"kv_pressure fault needs 0 < fraction < 1 (got {self.fraction})"
            )
        if self.duration <= 0:
            raise ConfigError(
                f"kv_pressure fault needs duration > 0 (got {self.duration})"
            )

    def events(self, rng: KeyedRng, num_lanes: int) -> Iterator[FaultEvent]:
        for time_s, lane in self._occurrences(rng, num_lanes):
            yield FaultEvent(time_s=time_s, lane=lane, kind=self.name,
                             factor=self.fraction, duration_s=self.duration)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff with a hard per-request attempt budget.

    ``backoff(attempt)`` (attempts are 1-based) returns the delay before
    re-enqueueing that attempt, doubling each time; past the budget it
    raises :class:`~repro.errors.RetryExhaustedError`, which the fleet
    turns into a terminal lost record.
    """

    budget: int = 3
    backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ConfigError(f"retry budget must be >= 0 (got {self.budget})")
        if self.backoff_s <= 0:
            raise ConfigError(f"retry backoff_s must be > 0 (got {self.backoff_s})")

    def backoff(self, attempt: int) -> float:
        if attempt < 1:
            raise ValueError("retry attempts are 1-based")
        if attempt > self.budget:
            raise RetryExhaustedError(
                f"retry budget exhausted after {self.budget} attempt(s)"
            )
        return self.backoff_s * (2.0 ** (attempt - 1))


FAULTS: Registry[Callable[..., FaultProcess]] = Registry("fault type", {
    LaneCrash.name: LaneCrash,
    TransientStall.name: TransientStall,
    LinkDegrade.name: LinkDegrade,
    KvPressure.name: KvPressure,
})


def parse_fault_spec(spec: str | None) -> tuple[FaultProcess, ...]:
    """Parse a compact fault spec into fault processes.

    Grammar: clauses joined by ``;``, each ``type:key=value,...`` —
    e.g. ``crash:at=120,lane=1,mttr=60;stall:rate=0.002,duration=30``.
    ``off``, the empty string, and ``None`` mean no faults. ``lane`` is
    parsed as an int, everything else as a float; malformed clauses
    raise :class:`~repro.errors.ConfigError`.
    """
    if spec is None:
        return ()
    text = spec.strip()
    if not text or text == "off":
        return ()
    processes: list[FaultProcess] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, _, params_text = clause.partition(":")
        name = name.strip()
        params: dict[str, float | int] = {}
        if params_text.strip():
            for pair in params_text.split(","):
                key, sep, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key:
                    raise ConfigError(
                        f"bad fault clause {clause!r}: expected key=value, "
                        f"got {pair.strip()!r}"
                    )
                try:
                    params[key] = int(value) if key == "lane" else float(value)
                except ValueError:
                    raise ConfigError(
                        f"bad fault clause {clause!r}: {key}={value!r} "
                        f"is not a number"
                    ) from None
        processes.append(FAULTS.build(name, **params))
    return tuple(processes)


def check_lane_pins(processes: Sequence[FaultProcess], num_lanes: int) -> None:
    """Refuse a clause pinned to a lane the pool does not have."""
    for process in processes:
        if process.lane is not None and process.lane >= num_lanes:
            raise ConfigError(
                f"{process.name} fault pins lane {process.lane} but the "
                f"pool has only {num_lanes} lane(s)"
            )


class FaultInjector:
    """Merges every clause's keyed event stream into one fault timeline.

    Each clause draws from its own forked rng namespace (keyed by clause
    index and type), so adding a clause to a spec never perturbs the
    timelines of the others — the same composition rule as multi-tenant
    trace generation. Events are consumed through :meth:`pop_due`; the
    lazy per-clause generators mean rate-based (unbounded) clauses cost
    only as many draws as the consumed horizon needs.
    """

    def __init__(
        self,
        processes: Sequence[FaultProcess],
        rng: KeyedRng,
        num_lanes: int,
    ) -> None:
        if num_lanes <= 0:
            raise ConfigError(f"fault injector needs num_lanes > 0 (got {num_lanes})")
        check_lane_pins(processes, num_lanes)
        self._processes = tuple(processes)
        self._rng = rng
        self._num_lanes = num_lanes
        self._streams = [
            process.events(rng.fork("fault-clause", index, process.name), num_lanes)
            for index, process in enumerate(self._processes)
        ]
        # Min-heap of stream heads keyed (time, lane, clause index) so
        # simultaneous events pop in a stable, spec-determined order.
        self._heads: list[tuple[tuple[float, int, int], FaultEvent]] = []
        for index in range(len(self._streams)):
            self._refill(index)

    def _refill(self, index: int) -> None:
        event = next(self._streams[index], None)
        if event is not None:
            heapq.heappush(
                self._heads, ((event.time_s, event.lane, index), event)
            )

    def peek(self) -> float | None:
        """Time of the next pending event, or None when the timeline is dry."""
        return self._heads[0][1].time_s if self._heads else None

    def pop_due(self, now: float) -> list[FaultEvent]:
        """Consume and return every event with ``time_s <= now``, in order."""
        due: list[FaultEvent] = []
        while self._heads and self._heads[0][1].time_s <= now:
            (_, _, index), event = self._heads[0][0], self._heads[0][1]
            heapq.heappop(self._heads)
            due.append(event)
            self._refill(index)
        return due

    def timeline(self, horizon_s: float) -> tuple[FaultEvent, ...]:
        """Pure preview: every event up to ``horizon_s``, without consuming.

        Built from a fresh injector over the same clauses and rng, so the
        result is exactly what :meth:`pop_due` would deliver — handy for
        tests and for printing a run's fault schedule up front.
        """
        fresh = FaultInjector(self._processes, self._rng, self._num_lanes)
        return tuple(fresh.pop_due(horizon_s))
