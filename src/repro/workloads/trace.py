"""Trace records: serializable open-loop request streams.

A :class:`Trace` is the unit of reproducibility for open-loop serving
experiments: a sorted stream of :class:`TraceRequest` rows, each naming
*what* arrives (a problem index into a deterministic synthetic dataset,
a search algorithm and budget), *when* it arrives on the fleet timeline,
*who* sent it (tenant + SLO class), and the request's latency contract
(deadline and TTFT target). Because problems are pure functions of
``(dataset, seed, index)`` and every float survives JSON's repr
round-trip exactly, a trace serialized to JSONL and replayed yields
byte-identical fleet records to running the in-memory trace directly —
which is what lets traces be checked into goldens.

The JSONL layout is one header object followed by one object per
request::

    {"schema": "repro.trace", "version": 1, "seed": 0, "base_dataset": "amc23"}
    {"request_id": "chat-0000", "tenant": "chat", "arrival_s": 3.1, ...}

``base_dataset`` names the profile whose step-length dynamics the
serving fleet uses (see :func:`repro.core.fleet.run_trace`); each
request's *problem* comes from its own ``(dataset, dataset_seed,
problem_index)`` triple, so tenants can mix difficulty profiles freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from math import isfinite
from pathlib import Path

from repro.errors import ConfigError
from repro.workloads.datasets import DATASETS
from repro.workloads.problem import Problem

__all__ = ["TraceRequest", "Trace", "check_request_times", "materialize_problems"]

TRACE_SCHEMA = "repro.trace"
TRACE_VERSION = 1


def check_request_times(
    arrival_s: float, deadline_s: float | None, ttft_slo_s: float | None
) -> None:
    """Reject request times that cannot be served (``ValueError``).

    The arrival must be finite and >= 0; the deadline and TTFT target,
    when set, finite and > 0 (JSON's ``NaN`` / ``Infinity`` included).
    """
    if not (isfinite(arrival_s) and arrival_s >= 0):
        raise ValueError(f"arrival_s must be finite and >= 0, got {arrival_s}")
    for name, value in (("deadline_s", deadline_s), ("ttft_slo_s", ttft_slo_s)):
        if value is not None and not (isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0 when set, got {value}")


@dataclass(frozen=True, slots=True)
class TraceRequest:
    """One arrival in an open-loop trace.

    ``deadline_s`` and ``ttft_slo_s`` are relative to ``arrival_s``;
    ``None`` means the request carries no such target. ``problem_index``
    addresses the tenant's synthetic dataset built from ``(dataset,
    dataset_seed)`` — the problem itself is never serialized, only its
    coordinates, which is what keeps traces small and replay exact.
    """

    request_id: str
    tenant: str
    arrival_s: float
    dataset: str
    dataset_seed: int
    problem_index: int
    algorithm: str = "beam_search"
    n: int = 4
    deadline_s: float | None = None
    ttft_slo_s: float | None = None
    slo_class: str = "standard"

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ValueError("request_id must be non-empty")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        check_request_times(self.arrival_s, self.deadline_s, self.ttft_slo_s)
        if self.problem_index < 0:
            raise ValueError("problem_index must be non-negative")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TraceRequest":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"trace request has unknown fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**payload)
        except (TypeError, ValueError) as error:
            raise ConfigError(f"bad trace request: {error}") from None


@dataclass(frozen=True, slots=True)
class Trace:
    """A sorted, replayable open-loop request stream."""

    seed: int
    requests: tuple[TraceRequest, ...]
    base_dataset: str = "amc23"

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a trace must contain at least one request")
        DATASETS.check(self.base_dataset)
        seen: set[str] = set()
        last = 0.0
        for req in self.requests:
            if req.request_id in seen:
                raise ValueError(f"duplicate trace request id {req.request_id!r}")
            seen.add(req.request_id)
            if req.arrival_s < last:
                raise ValueError(
                    "trace requests must be sorted by arrival time "
                    f"({req.request_id!r} arrives at {req.arrival_s} after "
                    f"{last})"
                )
            last = req.arrival_s

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenant names appearing in the trace, sorted."""
        return tuple(sorted({r.tenant for r in self.requests}))

    @property
    def horizon_s(self) -> float:
        """The last arrival time."""
        return self.requests[-1].arrival_s

    # -- serialization ---------------------------------------------------

    def to_jsonl(self) -> str:
        header = {
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "seed": self.seed,
            "base_dataset": self.base_dataset,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(
            json.dumps(r.to_json_dict(), sort_keys=True) for r in self.requests
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ConfigError("empty trace: no header line")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as error:
            raise ConfigError(f"trace header is not JSON: {error}") from None
        if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
            raise ConfigError(
                f"trace header must set schema={TRACE_SCHEMA!r}; "
                f"got {header!r}"
            )
        if header.get("version") != TRACE_VERSION:
            raise ConfigError(
                f"unsupported trace version {header.get('version')!r} "
                f"(this build reads version {TRACE_VERSION})"
            )
        requests = []
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigError(
                    f"trace line {lineno} is not JSON: {error}"
                ) from None
            requests.append(TraceRequest.from_json_dict(payload))
        try:
            return cls(
                seed=header.get("seed", 0),
                requests=tuple(requests),
                base_dataset=header.get("base_dataset", "amc23"),
            )
        except ValueError as error:
            raise ConfigError(f"bad trace: {error}") from None

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise ConfigError(f"cannot read trace file {path}: {error}") from None
        return cls.from_jsonl(text)


def materialize_problems(trace: Trace) -> dict[str, Problem]:
    """Rebuild every trace request's :class:`Problem`, keyed by request id.

    Problems are pure functions of ``(dataset, dataset_seed, index)``, so
    replaying a serialized trace reconstructs bit-identical problems. One
    dataset is built per distinct ``(dataset, dataset_seed)`` pair, sized
    to the largest index the trace references.
    """
    from repro.workloads.datasets import build_dataset

    sizes: dict[tuple[str, int], int] = {}
    for req in trace:
        key = (req.dataset, req.dataset_seed)
        sizes[key] = max(sizes.get(key, 0), req.problem_index + 1)
    pools = {
        (name, seed): list(build_dataset(name, seed=seed, size=size))
        for (name, seed), size in sizes.items()
    }
    return {
        req.request_id: pools[(req.dataset, req.dataset_seed)][req.problem_index]
        for req in trace
    }
