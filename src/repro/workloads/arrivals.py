"""Keyed-RNG arrival processes for open-loop trace generation.

A trace-driven workload is only reproducible if its arrival times are a
pure function of the seed — never of how many other tenants were
generated first, or in what order. Every draw here is therefore addressed
through :class:`~repro.utils.rng.KeyedRng` streams keyed by the draw's
*position* in the process (gap index, candidate index, phase index), so
two calls with the same root rng produce bit-identical times no matter
what else was drawn in between.

Four processes, registered by name in :data:`ARRIVALS` (a
:class:`~repro.utils.registry.Registry`), cover the serving literature's
standard load shapes:

``uniform``
    Evenly spaced arrivals ``1/rate_rps`` apart, the first at t=0 — a
    deterministic stream that draws nothing.
``poisson``
    Homogeneous Poisson arrivals at ``rate_rps`` — exponential
    inter-arrival gaps, the memoryless baseline.
``diurnal``
    Non-homogeneous Poisson whose rate swings sinusoidally between
    ``rate_rps`` (trough) and ``peak_rate_rps`` (peak) with period
    ``period_s`` — the day/night cycle every production trace shows.
    Realized by Lewis-Shedler thinning of a ``peak_rate_rps``
    candidate stream, with one keyed acceptance draw per candidate.
``bursty``
    Markov-modulated on/off process: exponentially distributed "on"
    phases (mean ``on_s``) at ``burst_rate_rps`` alternate with "off"
    phases (mean ``off_s``) at the background ``rate_rps`` — flash
    crowds and quiet tails, the overload shape SLO policies are
    judged on.

All processes are **count-based**: ``times(rng, count)`` returns exactly
``count`` strictly increasing arrival times at or after t=0. Every
parameter of every process is a finite, positive number.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from math import isfinite, pi, sin
from typing import Callable

from repro.errors import ConfigError
from repro.utils.registry import Registry
from repro.utils.rng import KeyedRng

__all__ = [
    "ArrivalProcess",
    "UniformProcess",
    "PoissonProcess",
    "DiurnalProcess",
    "BurstyProcess",
    "ARRIVALS",
]


class ArrivalProcess(ABC):
    """One tenant's arrival-time generator.

    Subclasses draw exclusively through keyed streams of the ``rng``
    handed to :meth:`times`, so the times depend only on the rng's root
    seed and the process parameters.
    """

    name: str = "abstract"
    description: str = ""

    def __post_init__(self) -> None:
        for param in fields(self):
            value = getattr(self, param.name)
            if not (isfinite(value) and value > 0):
                raise ConfigError(
                    f"{self.name} arrivals need a finite {param.name} > 0, "
                    f"got {value}"
                )

    @abstractmethod
    def times(self, rng: KeyedRng, count: int) -> tuple[float, ...]:
        """Exactly ``count`` strictly increasing arrival times."""

    def _check_count(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")


@dataclass(frozen=True, slots=True)
class UniformProcess(ArrivalProcess):
    """Arrivals exactly ``1/rate_rps`` apart, the first at t=0 (no draws)."""

    rate_rps: float

    name = "uniform"
    description = "evenly spaced arrivals at a constant rate, the first at t=0"

    def times(self, rng: KeyedRng, count: int) -> tuple[float, ...]:
        self._check_count(count)
        return tuple(i / self.rate_rps for i in range(count))


@dataclass(frozen=True, slots=True)
class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_rps``."""

    rate_rps: float

    name = "poisson"
    description = "memoryless arrivals at a constant rate"

    def times(self, rng: KeyedRng, count: int) -> tuple[float, ...]:
        self._check_count(count)
        now, out = 0.0, []
        for i in range(count):
            now += rng.exponential("poisson-gap", i, scale=1.0 / self.rate_rps)
            out.append(now)
        return tuple(out)


@dataclass(frozen=True, slots=True)
class DiurnalProcess(ArrivalProcess):
    """Sinusoidally modulated Poisson between trough and peak rate.

    The instantaneous rate is ``rate + (peak - rate) * (1 + sin(2*pi*t /
    period)) / 2``: it starts at the midpoint, peaks a quarter period in,
    and bottoms out at three quarters. Candidates are drawn at the peak
    rate and thinned with one keyed acceptance draw each, the textbook
    Lewis-Shedler construction for a non-homogeneous Poisson process.
    """

    rate_rps: float
    peak_rate_rps: float
    period_s: float

    name = "diurnal"
    description = "sinusoidal day/night rate between trough and peak"

    def __post_init__(self) -> None:
        ArrivalProcess.__post_init__(self)
        if self.peak_rate_rps < self.rate_rps:
            raise ConfigError(
                "diurnal arrivals need peak_rate_rps >= rate_rps "
                f"(got peak {self.peak_rate_rps} < trough {self.rate_rps})"
            )

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        swing = (self.peak_rate_rps - self.rate_rps) / 2.0
        return self.rate_rps + swing * (1.0 + sin(2.0 * pi * t / self.period_s))

    def times(self, rng: KeyedRng, count: int) -> tuple[float, ...]:
        self._check_count(count)
        now, out, candidate = 0.0, [], 0
        while len(out) < count:
            now += rng.exponential(
                "diurnal-gap", candidate, scale=1.0 / self.peak_rate_rps
            )
            accept = rng.uniform("diurnal-accept", candidate)
            if accept < self.rate_at(now) / self.peak_rate_rps:
                out.append(now)
            candidate += 1
        return tuple(out)


@dataclass(frozen=True, slots=True)
class BurstyProcess(ArrivalProcess):
    """On/off Markov-modulated Poisson arrivals.

    Phase ``k`` is "on" for even ``k`` (rate ``burst_rate_rps``, duration
    exponential with mean ``on_s``) and "off" for odd ``k`` (background
    ``rate_rps``, mean ``off_s``). Within a phase, arrivals are Poisson
    at the phase rate, each gap keyed by ``(phase, index)``; an arrival
    falling past the phase boundary is discarded and the next phase
    starts at the boundary, so the realized process genuinely switches
    rates rather than smearing one long gap across phases.
    """

    rate_rps: float
    burst_rate_rps: float
    on_s: float
    off_s: float

    name = "bursty"
    description = "on/off flash crowds over a background rate"

    def times(self, rng: KeyedRng, count: int) -> tuple[float, ...]:
        self._check_count(count)
        out: list[float] = []
        phase_start, phase = 0.0, 0
        while len(out) < count:
            on = phase % 2 == 0
            mean_len = self.on_s if on else self.off_s
            rate = self.burst_rate_rps if on else self.rate_rps
            length = rng.exponential("bursty-phase", phase, scale=mean_len)
            phase_end = phase_start + length
            now, i = phase_start, 0
            while len(out) < count:
                now += rng.exponential("bursty-gap", phase, i, scale=1.0 / rate)
                if now >= phase_end:
                    break
                out.append(now)
                i += 1
            phase_start, phase = phase_end, phase + 1
        return tuple(out)


ARRIVALS: Registry[Callable[..., ArrivalProcess]] = Registry("arrival process", {
    UniformProcess.name: UniformProcess,
    PoissonProcess.name: PoissonProcess,
    DiurnalProcess.name: DiurnalProcess,
    BurstyProcess.name: BurstyProcess,
})
