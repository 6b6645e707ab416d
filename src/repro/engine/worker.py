"""Model workers: the mechanical layer beneath the serving policies.

A worker owns one model's roofline cost model and one paged KV cache, and
exposes two primitive, fully-accounted launches:

* ``decode_span`` — advance a decode batch by N lockstep token steps;
* ``prefill_batch`` — run one batched prefill launch: the verifier's mode,
  and the generator's recompute of KV missing after an eviction.

Each sums its launch's FLOPs and bytes and ends in one call to
``_charge``, the one place a launch is billed: it asks the roofline for
the launch's price once, advances the shared clock, adds the seconds to
the phase totals and, when the worker holds a launch log, appends the
launch's utilization span. The log is a list on the solve path, which the
utilization figures read, and ``None`` in a fleet drain, which reads none.

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
from repro.models.costs import decode_step_cost, prefill_cost
from repro.models.spec import ModelSpec

__all__ = ["ModelWorker", "GeneratorWorker", "VerifierWorker"]


class ModelWorker:
    """Shared mechanics for generator and verifier workers."""

    def __init__(
        self,
        model: ModelSpec,
        roofline: Roofline,
        kv_cache: PagedKVCache,
        clock: SimClock,
        phase_timer: PhaseTimer,
        utilization: list[UtilSpan] | None,
    ) -> None:
        self._model = model
        self._roofline = roofline
        self._cache = kv_cache
        self._clock = clock
        self._timer = phase_timer
        self._spans = utilization
        self._batch_share = 1

    @property
    def batch_share(self) -> int:
        """How many co-batched sessions share this worker's weight reads.

        The session's round methods set this to the occupancy of the
        sub-batch the fleet's :class:`~repro.core.batcher.RoundBatcher`
        runs the round in (1 for a lone member, which is every round on a
        ``batching="off"`` lane), for that round only: every decode step
        and prefill launch then bills this session only ``1/batch_share``
        of the weight traffic (the batch reads the weights once for all
        members). At the default of 1 every launch goes through the plain
        roofline, byte-identical to unbatched serving.
        """
        return self._batch_share

    @batch_share.setter
    def batch_share(self, value: int) -> None:
        if not isinstance(value, int) or value < 1:
            raise ValueError("batch_share must be an integer >= 1")
        self._batch_share = value

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

        The roofline is asked once per launch (:meth:`Roofline.point`, or
        :meth:`Roofline.batched_point` while co-batched), and it divides by
        a peak and a bandwidth it derived once; the FLOPs and bytes come
        from per-token coefficients the :class:`ModelSpec` derived once.
        The clock checks and takes the step before any total moves; a span
        is kept only when the worker holds a log and the span has positive
        length on the clock. The callers guarantee ``0 < busy <= capacity``.
        """
        if self._batch_share > 1:
            point = self._roofline.batched_point(
                flops, num_bytes, self._model.weight_bytes, self._batch_share
            )
        else:
            point = self._roofline.point(flops, num_bytes)
        dt = steps * point.latency
        clock = self._clock
        start = clock.now
        end = clock.advance(dt)
        totals = self._timer.totals
        totals[phase] = totals.get(phase, 0.0) + dt
        if end > start and self._spans is not None:
            self._spans.append(
                UtilSpan(start, end, busy, capacity, phase, speculative)
            )
        return dt

    @property
    def model(self) -> ModelSpec:
        return self._model

    @property
    def cache(self) -> PagedKVCache:
        return self._cache

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def roofline(self) -> Roofline:
        return self._roofline

    def prefill_batch(
        self,
        token_counts: list[int],
        cached_prefix_lens: list[int],
        phase: Phase = Phase.VERIFICATION,
        capacity_slots: int | None = None,
    ) -> float:
        """Run one batched prefill launch over per-job new-token counts.

        The batch shares a single weight-traffic charge — the benefit of
        batching prefill — while FLOPs and KV traffic accumulate per job.
        Returns elapsed seconds (0.0 when there is nothing to prefill).
        """
        if len(token_counts) != len(cached_prefix_lens):
            raise ValueError("token_counts and cached_prefix_lens must align")
        live = [(t, c) for t, c in zip(token_counts, cached_prefix_lens) if t > 0]
        if not live:
            return 0.0
        flops = 0.0
        num_bytes = float(self._model.weight_bytes)
        for new_tokens, cached in live:
            cost = prefill_cost(self._model, 1, new_tokens, cached_prefix_len=cached)
            flops += cost.flops
            num_bytes += cost.bytes - self._model.weight_bytes
        capacity = max(capacity_slots if capacity_slots is not None else len(live), 1)
        return self._charge(
            flops, num_bytes, 1, phase, min(len(live), capacity), capacity
        )


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
        cost = decode_step_cost(self._model, busy_slots, avg_cache_len)
        return self._charge(
            cost.flops, cost.bytes, n_steps, Phase.GENERATION,
            busy_slots, capacity_slots, speculative_slots,
        )


class VerifierWorker(ModelWorker):
    """Prefill-oriented worker: scores paths in batched forward passes.

    Inherits :meth:`ModelWorker.prefill_batch`; verification is its only
    mode, so the class exists to make worker roles explicit at call sites.
    """
