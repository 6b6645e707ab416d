"""Result containers and dataset-level aggregation.

``ProblemRunResult`` is what the server emits per problem;
``RunMetrics.aggregate`` pools a dataset run into the quantities the
paper's figures report (precise goodput, mean latency + breakdown, Top-1
accuracy, Pass@N, utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.telemetry import Phase, TokenCounters, UtilSpan
from repro.metrics.accuracy import pass_at_n, top1_correct
from repro.metrics.goodput import BeamRecord, precise_goodput
from repro.metrics.latency import LatencyBreakdown, mean_breakdown
from repro.metrics.utilization import mean_phase_utilization
from repro.utils.tables import render_table

__all__ = ["ProblemRunResult", "RunMetrics"]


@dataclass(frozen=True, slots=True)
class ProblemRunResult:
    """One problem solved by one server configuration."""

    problem_id: str
    algorithm: str
    n: int
    beams: tuple[BeamRecord, ...]
    latency: LatencyBreakdown
    tokens: TokenCounters
    #: One span per launch on the solve path; empty for a fleet session,
    #: which keeps no launch log.
    util_spans: tuple[UtilSpan, ...] = ()
    gen_cache_hit_rate: float = 0.0
    ver_cache_hit_rate: float = 0.0
    gen_evicted_segments: int = 0
    ver_evicted_segments: int = 0

    @property
    def goodput(self) -> float:
        return precise_goodput(self.beams)

    @property
    def top1_correct(self) -> bool:
        return top1_correct(self.beams)

    def to_json_dict(self) -> dict:
        """Plain-data form for the on-disk result cache.

        Floats survive the JSON round trip exactly (``repr`` round-tripping),
        so a cached result is byte-identical to a fresh run when re-rendered.
        """
        return {
            "problem_id": self.problem_id,
            "algorithm": self.algorithm,
            "n": self.n,
            "beams": [
                {
                    "lineage": list(b.lineage),
                    "tokens": b.tokens,
                    "completion_time": b.completion_time,
                    "answer": b.answer,
                    "correct": b.correct,
                    "score": b.score,
                }
                for b in self.beams
            ],
            "latency": self.latency.to_json_dict(),
            "tokens": {
                "committed": self.tokens.committed,
                "speculative_used": self.tokens.speculative_used,
                "speculative_wasted": self.tokens.speculative_wasted,
                "recomputed": self.tokens.recomputed,
            },
            "util_spans": [
                {
                    "t_start": s.t_start,
                    "t_end": s.t_end,
                    "busy_slots": s.busy_slots,
                    "capacity_slots": s.capacity_slots,
                    "phase": s.phase.value,
                    "speculative_slots": s.speculative_slots,
                }
                for s in self.util_spans
            ],
            "gen_cache_hit_rate": self.gen_cache_hit_rate,
            "ver_cache_hit_rate": self.ver_cache_hit_rate,
            "gen_evicted_segments": self.gen_evicted_segments,
            "ver_evicted_segments": self.ver_evicted_segments,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ProblemRunResult":
        return cls(
            problem_id=payload["problem_id"],
            algorithm=payload["algorithm"],
            n=payload["n"],
            beams=tuple(
                BeamRecord(
                    lineage=tuple(b["lineage"]),
                    tokens=b["tokens"],
                    completion_time=b["completion_time"],
                    answer=b["answer"],
                    correct=b["correct"],
                    score=b["score"],
                )
                for b in payload["beams"]
            ),
            latency=LatencyBreakdown.from_json_dict(payload["latency"]),
            tokens=TokenCounters(**payload["tokens"]),
            util_spans=tuple(
                UtilSpan(
                    t_start=s["t_start"],
                    t_end=s["t_end"],
                    busy_slots=s["busy_slots"],
                    capacity_slots=s["capacity_slots"],
                    phase=Phase(s["phase"]),
                    speculative_slots=s["speculative_slots"],
                )
                for s in payload["util_spans"]
            ),
            gen_cache_hit_rate=payload["gen_cache_hit_rate"],
            ver_cache_hit_rate=payload["ver_cache_hit_rate"],
            gen_evicted_segments=payload["gen_evicted_segments"],
            ver_evicted_segments=payload["ver_evicted_segments"],
        )


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """Dataset-level aggregate of many problem runs."""

    algorithm: str
    n: int
    problem_count: int
    goodput: float
    latency: LatencyBreakdown
    top1_accuracy: float
    pass_at: dict[int, float] = field(default_factory=dict)
    generation_utilization: float = 0.0
    speculation_efficiency: float = 0.0
    gen_cache_hit_rate: float = 0.0
    ver_cache_hit_rate: float = 0.0

    @classmethod
    def aggregate(
        cls,
        results: Sequence[ProblemRunResult],
        pass_ns: Sequence[int] = (1, 4, 16, 64),
    ) -> "RunMetrics":
        """Pool per-problem results into the paper's reported quantities."""
        if not results:
            raise ValueError("cannot aggregate an empty result list")
        all_beams = [b for r in results for b in r.beams]
        all_spans = [s for r in results for s in r.util_spans]
        spec_used = sum(r.tokens.speculative_used for r in results)
        spec_total = spec_used + sum(r.tokens.speculative_wasted for r in results)
        pass_rates = {
            k: sum(pass_at_n(r.beams, k) for r in results) / len(results)
            for k in pass_ns
        }
        return cls(
            algorithm=results[0].algorithm,
            n=results[0].n,
            problem_count=len(results),
            goodput=precise_goodput(all_beams),
            latency=mean_breakdown([r.latency for r in results]),
            top1_accuracy=sum(r.top1_correct for r in results) / len(results),
            pass_at=pass_rates,
            generation_utilization=mean_phase_utilization(all_spans, Phase.GENERATION),
            speculation_efficiency=(spec_used / spec_total) if spec_total else 0.0,
            gen_cache_hit_rate=(
                sum(r.gen_cache_hit_rate for r in results) / len(results)
            ),
            ver_cache_hit_rate=(
                sum(r.ver_cache_hit_rate for r in results) / len(results)
            ),
        )

    def to_json_dict(self) -> dict:
        """Plain-data form for the on-disk result cache (exact floats)."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "problem_count": self.problem_count,
            "goodput": self.goodput,
            "latency": self.latency.to_json_dict(),
            "top1_accuracy": self.top1_accuracy,
            "pass_at": {str(k): v for k, v in self.pass_at.items()},
            "generation_utilization": self.generation_utilization,
            "speculation_efficiency": self.speculation_efficiency,
            "gen_cache_hit_rate": self.gen_cache_hit_rate,
            "ver_cache_hit_rate": self.ver_cache_hit_rate,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunMetrics":
        return cls(
            algorithm=payload["algorithm"],
            n=payload["n"],
            problem_count=payload["problem_count"],
            goodput=payload["goodput"],
            latency=LatencyBreakdown.from_json_dict(payload["latency"]),
            top1_accuracy=payload["top1_accuracy"],
            pass_at={int(k): v for k, v in payload["pass_at"].items()},
            generation_utilization=payload["generation_utilization"],
            speculation_efficiency=payload["speculation_efficiency"],
            gen_cache_hit_rate=payload["gen_cache_hit_rate"],
            ver_cache_hit_rate=payload["ver_cache_hit_rate"],
        )

    def summary_row(self) -> list[object]:
        """One table row: the columns most figures compare."""
        return [
            self.algorithm,
            self.n,
            round(self.goodput, 2),
            round(self.latency.total, 2),
            round(self.latency.generation, 2),
            round(self.latency.verification, 2),
            round(self.top1_accuracy, 3),
        ]

    @staticmethod
    def table(rows: Sequence["RunMetrics"], title: str | None = None) -> str:
        """Render a comparison table over multiple runs."""
        return render_table(
            ["algorithm", "n", "goodput tok/s", "latency s",
             "gen s", "verify s", "top1 acc"],
            [r.summary_row() for r in rows],
            title=title,
        )
