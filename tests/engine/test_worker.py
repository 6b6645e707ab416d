"""Tests for the model workers (decode spans, prefill batches, billing)."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine.clock import SimClock
from repro.engine.telemetry import Phase, PhaseTimer, UtilSpan
from repro.engine.worker import GeneratorWorker, VerifierWorker
from repro.hardware.device import get_device
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import PagedKVCache
from repro.models.costs import decode_step_cost, prefill_cost
from repro.models.zoo import QWEN25_MATH_1P5B as MODEL


def make_worker(start: float = 0.0) -> GeneratorWorker:
    cache = PagedKVCache(2**28, MODEL.kv_bytes_per_token)
    return GeneratorWorker(
        MODEL, Roofline(get_device("rtx4090")), cache, SimClock(start),
        PhaseTimer(), [],
    )


@pytest.fixture
def worker():
    return make_worker()


class TestDecodeSpan:
    def test_advances_clock(self, worker):
        dt = worker.decode_span(10, busy_slots=4, capacity_slots=8, avg_cache_len=100)
        assert dt > 0
        assert worker.clock.now == pytest.approx(dt)

    def test_more_steps_cost_more(self, worker):
        one = worker.decode_span(1, 4, 8, 100)
        ten = worker.decode_span(10, 4, 8, 100)
        assert ten == pytest.approx(10 * one)

    def test_memory_bound_batch_insensitivity(self, worker):
        """Per-step cost barely grows with batch size: the straggler story."""
        lone = worker.decode_span(1, 1, 8, 100)
        full = worker.decode_span(1, 8, 8, 100)
        assert full < 2 * lone

    def test_records_utilization(self, worker):
        worker.decode_span(5, 2, 8, 100)
        spans = worker._spans
        assert len(spans) == 1
        assert spans[0].busy_slots == 2
        assert spans[0].phase is Phase.GENERATION

    def test_validates_slots(self, worker):
        with pytest.raises(ValueError):
            worker.decode_span(1, 9, 8, 100)
        with pytest.raises(ValueError):
            worker.decode_span(0, 1, 8, 100)
        with pytest.raises(ValueError):
            worker.decode_span(1, 0, 8, 100)


class TestPrefillBatch:
    def test_empty_batch_is_free(self, worker):
        assert worker.prefill_batch([0, 0], [10, 10]) == 0.0
        assert worker.clock.now == 0.0
        assert worker._timer.totals == {}
        assert worker._spans == []

    def test_batches_share_weight_traffic(self, worker):
        single = worker.prefill_batch([100], [0])
        double_separate = 2 * single
        batched = worker.prefill_batch([100, 100], [0, 0])
        assert batched < double_separate

    def test_phase_tagging(self, worker):
        worker.prefill_batch([100], [0], phase=Phase.GENERATION)
        assert worker._timer.get(Phase.GENERATION) > 0
        assert worker._timer.get(Phase.VERIFICATION) == 0

    def test_mismatched_lengths_raise(self, worker):
        with pytest.raises(ValueError):
            worker.prefill_batch([100], [0, 0])


class TestOnePointPerLaunch:
    """A launch is billed in one ``_charge``: exactly the roofline point of
    its FLOPs and bytes - weight-amortized through ``batched_point`` when
    co-batched - and the clock, the phase total and the utilization span
    all carry that one price."""

    @pytest.mark.parametrize("share", [1, 3])
    def test_decode_span_is_n_steps_of_one_point(self, worker, share):
        worker.batch_share = share
        roofline = worker.roofline
        cost = decode_step_cost(MODEL, 5, 321.5)
        step = roofline.batched_point(cost.flops, cost.bytes, MODEL.weight_bytes, share)
        if share == 1:
            assert step == roofline.point(cost.flops, cost.bytes)
        worker.clock.advance(0.125)
        dt = worker.decode_span(7, busy_slots=5, capacity_slots=8, avg_cache_len=321.5)
        assert dt == 7 * step.latency
        assert worker.clock.now == 0.125 + dt
        span, = worker._spans
        assert (span.t_start, span.t_end) == (0.125, worker.clock.now)
        assert span == UtilSpan(0.125, worker.clock.now, 5, 8, Phase.GENERATION)
        assert worker._timer.totals == {Phase.GENERATION: dt}

    @pytest.mark.parametrize("share", [1, 3])
    def test_prefill_batch_is_one_point(self, worker, share):
        worker.batch_share = share
        flops, num_bytes = 0.0, float(MODEL.weight_bytes)
        for new_tokens, cached in ((64, 0), (32, 200)):
            cost = prefill_cost(MODEL, 1, new_tokens, cached_prefix_len=cached)
            flops += cost.flops
            num_bytes += cost.bytes - MODEL.weight_bytes
        launch = worker.roofline.batched_point(flops, num_bytes, MODEL.weight_bytes, share)
        if share == 1:
            assert launch == worker.roofline.point(flops, num_bytes)
        dt = worker.prefill_batch([64, 0, 32], [0, 9, 200])
        assert dt == launch.latency
        span, = worker._spans
        assert (span.t_start, span.t_end) == (0.0, dt)
        assert span == UtilSpan(0.0, dt, 2, 2, Phase.VERIFICATION)
        assert worker.clock.now == dt
        assert worker._timer.totals == {Phase.VERIFICATION: dt}


class TestSpanKeepRule:
    """``_charge`` keeps a launch's span only when it has positive length
    on the clock; the seconds are billed either way."""

    def test_an_absorbed_launch_is_billed_but_keeps_no_span(self):
        worker = make_worker(start=2.0**80)
        dt = worker.decode_span(2, 1, 4, 50.0)
        assert dt > 0 and 2.0**80 + dt == 2.0**80
        assert worker.clock.now == 2.0**80
        assert worker._timer.totals == {Phase.GENERATION: dt}
        assert worker._spans == []

    @given(st.floats(min_value=0.0))
    @example(0.0)
    @example(2.0**80)
    @example(math.inf)
    def test_a_span_is_kept_exactly_when_it_has_positive_duration(self, start):
        """Keeping a span by ``end > start`` agrees with ``duration > 0``
        wherever the clock can stand, infinity included (``inf - inf`` is
        NaN, so a launch at ``inf`` keeps no span)."""
        worker = make_worker(start)
        worker.decode_span(1, 1, 4, 50.0)
        span = UtilSpan(start, worker.clock.now, 1, 4, Phase.GENERATION)
        assert worker._spans == ([span] if span.duration > 0 else [])


class TestVerifierWorker:
    def test_verifier_worker_shares_mechanics(self):
        clock = SimClock()
        cache = PagedKVCache(2**28, MODEL.kv_bytes_per_token)
        verifier_model = MODEL  # mechanics only; role not enforced here
        worker = VerifierWorker(
            verifier_model, Roofline(get_device("rtx4090")), cache, clock,
            PhaseTimer(), [],
        )
        dt = worker.prefill_batch([64], [0])
        assert dt > 0 and clock.now == pytest.approx(dt)
