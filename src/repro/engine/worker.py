"""Model workers: the mechanical layer beneath the serving policies.

A worker owns one model's roofline cost model and one paged KV cache, and
exposes two primitive, fully-accounted launches:

* ``decode_span`` — advance a decode batch by N lockstep token steps;
* ``prefill_batch`` — run one batched prefill launch: the verifier's mode,
  and the generator's recompute of KV missing after an eviction.

Each computes its launch's FLOPs and bytes inline from the
:class:`~repro.models.spec.ModelSpec` coefficients (the formulas of
:mod:`repro.models.costs`, same grouping) and ends in one call to
``_charge``, the one place a launch is billed: it takes the max of compute
and memory seconds over the roofline's derived peak and bandwidth,
moves the shared clock itself, adds the seconds to the phase totals and, when
the worker holds a launch log, appends the launch's utilization span. The
log is a list on the solve path, which the utilization figures read, and
``None`` in a fleet drain, which reads none.

FastTTS operates the generator and verifier "in separate worker processes"
(paper Sec. 5) on one GPU; here both workers share a single
:class:`~repro.engine.clock.SimClock`, which serializes them exactly like
time-sharing one device.
"""

from __future__ import annotations

from repro.engine.clock import SimClock
from repro.engine.telemetry import Phase, PhaseTimer, UtilSpan
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import PagedKVCache
from repro.models.spec import ModelSpec

__all__ = ["ModelWorker", "GeneratorWorker", "VerifierWorker"]


class ModelWorker:
    """Shared mechanics for generator and verifier workers.

    ``batch_share`` is how many co-batched sessions share this round's
    weight reads: the occupancy of the fleet's
    :class:`~repro.core.batcher.RoundBatcher` sub-batch, set for one round
    by its one writer, :meth:`~repro.core.session.SolveSession.step`,
    which checks it. Each launch then bills ``1/batch_share`` of the
    weight traffic; at 1 it is the plain roofline, as unbatched serving.
    """

    def __init__(
        self,
        model: ModelSpec,
        roofline: Roofline,
        kv_cache: PagedKVCache,
        clock: SimClock,
        phase_timer: PhaseTimer,
        utilization: list[UtilSpan] | None,
    ) -> None:
        self.model = model
        self.roofline = roofline
        self.cache = kv_cache
        self.clock = clock
        self.batch_share = 1
        self._timer = phase_timer
        self._spans = utilization
        self._peak = roofline.peak
        self._bandwidth = roofline.bandwidth
        self._weight_bytes = model.weight_bytes
        self._kv_bytes_per_token = model.kv_bytes_per_token
        self._linear_flops = model.linear_flops_per_token
        self._attention_flops = model.attention_flops_per_position

    def _charge(
        self,
        flops: float,
        num_bytes: float,
        steps: int,
        phase: Phase,
        busy: int,
        capacity: int,
        speculative: int = 0,
    ) -> float:
        """Bill one launch of ``steps`` identical steps; return its seconds.

        A step costs ``max(flops / peak, bytes / bandwidth)`` (paper Sec.
        4.3.1), the weight read first cut to its ``1/batch_share`` share as
        :meth:`Roofline.batched_point` does. It checks the step as
        :meth:`SimClock.advance` does and moves the clock itself before any
        total moves; a span is kept only when the worker holds a log and
        the span is positive on the clock. Callers ensure ``0 < busy <= capacity``.
        """
        if not (flops >= 0 and num_bytes >= 0):
            raise ValueError("flops and bytes must be non-negative")
        share = self.batch_share
        if share > 1:
            shared = min(self._weight_bytes, num_bytes)
            num_bytes = (num_bytes - shared) + shared / share
        dt = steps * max(flops / self._peak, num_bytes / self._bandwidth)
        if not dt >= 0:  # :meth:`SimClock.advance`'s check, inline
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        clock = self.clock
        start = clock.now
        clock.now = end = start + dt
        totals = self._timer.totals
        totals[phase] = totals.get(phase, 0.0) + dt
        if end > start and self._spans is not None:
            self._spans.append(
                UtilSpan(start, end, busy, capacity, phase, speculative)
            )
        return dt

    def prefill_batch(
        self,
        token_counts: list[int],
        cached_prefix_lens: list[int],
        phase: Phase = Phase.VERIFICATION,
        capacity_slots: int | None = None,
    ) -> float:
        """Run one batched prefill launch over per-job new-token counts.

        The batch shares a single weight-traffic charge — the benefit of
        batching prefill — while FLOPs and KV traffic accumulate per job
        (:func:`~repro.models.costs.prefill_cost` of one sequence each).
        Returns elapsed seconds (0.0 when there is nothing to prefill).
        """
        if len(token_counts) != len(cached_prefix_lens):
            raise ValueError("token_counts and cached_prefix_lens must align")
        weight, kv_bytes = self._weight_bytes, self._kv_bytes_per_token
        linear, attention = self._linear_flops, self._attention_flops
        flops = 0.0
        num_bytes = float(weight)
        live = 0
        for new_tokens, cached in zip(token_counts, cached_prefix_lens):
            if not new_tokens > 0:
                continue
            live += 1
            if not cached >= 0:
                raise ValueError("cached_prefix_len must be non-negative")
            # Causal attention over the cached prefix plus half the chunk.
            flops += new_tokens * linear + new_tokens * (
                attention * (cached + new_tokens / 2.0)
            )
            num_bytes += weight + new_tokens * kv_bytes + cached * kv_bytes - weight
        if not live:
            return 0.0
        capacity = max(capacity_slots if capacity_slots is not None else live, 1)
        return self._charge(flops, num_bytes, 1, phase, min(live, capacity), capacity)


class GeneratorWorker(ModelWorker):
    """Decode-oriented worker for the policy loops in :mod:`repro.core`."""

    def decode_span(
        self,
        n_steps: int,
        busy_slots: int,
        capacity_slots: int,
        avg_cache_len: float,
        speculative_slots: int = 0,
    ) -> float:
        """Advance ``busy_slots`` sequences by ``n_steps`` lockstep tokens.

        Each step costs :func:`~repro.models.costs.decode_step_cost`.
        Returns the elapsed simulated seconds. One utilization span is
        logged (when the worker keeps a log); the straggler pathology
        appears as a series of spans with decaying ``busy_slots`` at
        constant per-step cost.
        """
        if n_steps <= 0:
            raise ValueError("n_steps must be positive")
        if busy_slots <= 0:
            raise ValueError("busy_slots must be positive")
        if busy_slots > capacity_slots:
            raise ValueError("busy_slots cannot exceed capacity_slots")
        if not avg_cache_len >= 0:
            raise ValueError("avg_cache_len must be non-negative")
        kv_bytes = self._kv_bytes_per_token
        return self._charge(
            busy_slots * self._linear_flops
            + busy_slots * (self._attention_flops * avg_cache_len),
            self._weight_bytes + busy_slots * avg_cache_len * kv_bytes
            + busy_slots * kv_bytes,
            n_steps, Phase.GENERATION, busy_slots, capacity_slots, speculative_slots,
        )


class VerifierWorker(ModelWorker):
    """Prefill-oriented worker: scores paths in batched forward passes.

    Inherits :meth:`ModelWorker.prefill_batch`; verification is its only
    mode, so the class exists to make worker roles explicit at call sites.
    """
