"""Model workers: the mechanical layer beneath the serving policies.

A worker owns one model's roofline cost model and one paged KV cache, and
exposes primitive, fully-accounted operations:

* ``materialize_path`` — make a path's KV resident, converting any cache
  miss into prefill (recompute) time on the shared clock;
* ``decode_span`` — advance a decode batch by N lockstep token steps,
  charging roofline time and recording a utilization span;
* ``prefill_batch`` — run one batched prefill launch (the verifier's mode).

FastTTS operates the generator and verifier "in separate worker processes"
(paper Sec. 5) on one GPU; here both workers share a single
:class:`~repro.engine.clock.SimClock`, which serializes them exactly like
time-sharing one device.
"""

from __future__ import annotations

from repro.engine.clock import SimClock
from repro.engine.telemetry import Phase, PhaseTimer, UtilizationTracker, UtilSpan
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import MaterializeOutcome, PagedKVCache
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
        utilization: UtilizationTracker | None = None,
    ) -> None:
        self._model = model
        self._roofline = roofline
        self._cache = kv_cache
        self._clock = clock
        self._timer = phase_timer
        self._util = utilization
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

    def _launch_latency(self, flops: float, num_bytes: float) -> float:
        """Roofline latency of one launch, weight-amortized when co-batched.

        The roofline is asked once per launch (:meth:`Roofline.point`, or
        :meth:`Roofline.batched_point` while co-batched), and it divides by
        a peak and a bandwidth it derived once; the FLOPs and bytes come
        from per-token coefficients the :class:`ModelSpec` derived once.
        """
        if self._batch_share > 1:
            return self._roofline.batched_point(
                flops, num_bytes, self._model.weight_bytes, self._batch_share
            ).latency
        return self._roofline.point(flops, num_bytes).latency

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

    def materialize_path(self, leaf_segment: int, phase: Phase) -> MaterializeOutcome:
        """Pin a path resident, charging prefill time for recomputed tokens.

        The recompute charge is the concrete cost of an earlier eviction —
        the quantity Dynamic Prefix-Aware Scheduling exists to minimize.
        """
        outcome = self._cache.materialize(leaf_segment, now=self._clock.now, pin=True)
        if outcome.recomputed_tokens > 0:
            cost = prefill_cost(self._model, 1, outcome.recomputed_tokens,
                                cached_prefix_len=outcome.hit_tokens)
            dt = self._roofline.point(cost.flops, cost.bytes).latency
            self._clock.advance(dt)
            self._timer.add(phase, dt)
        return outcome

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
        dt = self._launch_latency(flops, num_bytes)
        start = self._clock.now
        end = self._clock.advance(dt)
        self._timer.add(phase, dt)
        if self._util is not None:
            capacity = capacity_slots if capacity_slots is not None else len(live)
            self._util.record(
                UtilSpan(
                    t_start=start,
                    t_end=end,
                    busy_slots=min(len(live), max(capacity, 1)),
                    capacity_slots=max(capacity, 1),
                    phase=phase,
                )
            )
        return dt


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
        recorded; the straggler pathology appears as a series of spans with
        decaying ``busy_slots`` at constant per-step cost.
        """
        if n_steps <= 0:
            raise ValueError("n_steps must be positive")
        if busy_slots <= 0:
            raise ValueError("busy_slots must be positive")
        if busy_slots > capacity_slots:
            raise ValueError("busy_slots cannot exceed capacity_slots")
        cost = decode_step_cost(self._model, busy_slots, avg_cache_len)
        dt = n_steps * self._launch_latency(cost.flops, cost.bytes)
        start = self._clock.now
        end = self._clock.advance(dt)
        self._timer.add(Phase.GENERATION, dt)
        if self._util is not None:
            self._util.record(
                UtilSpan(
                    t_start=start,
                    t_end=end,
                    busy_slots=busy_slots,
                    capacity_slots=capacity_slots,
                    phase=Phase.GENERATION,
                    speculative_slots=speculative_slots,
                )
            )
        return dt


class VerifierWorker(ModelWorker):
    """Prefill-oriented worker: scores paths in batched forward passes.

    Inherits :meth:`ModelWorker.prefill_batch`; verification is its only
    mode, so the class exists to make worker roles explicit at call sites.
    """
