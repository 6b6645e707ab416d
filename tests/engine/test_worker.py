"""Tests for the model workers (decode spans, prefill batches, billing)."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine.clock import SimClock
from repro.engine.telemetry import Phase, PhaseTimer, UtilSpan
from repro.engine.worker import GeneratorWorker, VerifierWorker
from repro.hardware.device import DEVICES, DeviceSpec, get_device
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import PagedKVCache
from repro.models.costs import decode_step_cost, prefill_cost
from repro.models.zoo import (
    MATH_SHEPHERD_7B,
    QWEN25_MATH_1P5B,
    QWEN25_MATH_7B,
    SKYWORK_PRM_1P5B,
)

MODEL = QWEN25_MATH_1P5B


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


#: The zoo's generators and verifiers: four sets of cost coefficients.
MODELS = st.sampled_from(
    [QWEN25_MATH_1P5B, QWEN25_MATH_7B, MATH_SHEPHERD_7B, SKYWORK_PRM_1P5B]
)
#: The registry's devices plus one so starved of compute that every
#: launch is compute-bound: both roofline terms get to bind.
STARVED = DeviceSpec("starved", 24 * 1024**3, peak_flops=1.0e11, mem_bandwidth=1.0e12)
ROOFLINES = st.builds(
    Roofline,
    st.sampled_from([get_device(name) for name in DEVICES.names()] + [STARVED]),
    st.floats(min_value=0.05, max_value=1.0),
)
#: Co-batched sessions sharing one weight read (1: the plain roofline).
SHARES = st.integers(min_value=1, max_value=8)
#: Values both pricing paths reject: negative or NaN.
BAD = [-1.0, -1e-300, -math.inf, math.nan]


def model_worker(model, share: int = 1, roofline: Roofline | None = None):
    """A worker whose launches also land in ``worker.charged`` as the
    ``(flops, bytes)`` it passed to ``_charge``."""
    worker = GeneratorWorker(
        model, roofline or Roofline(get_device("rtx4090")),
        PagedKVCache(2**28, model.kv_bytes_per_token), SimClock(),
        PhaseTimer(), [],
    )
    worker.batch_share = share
    worker.charged = []
    charge = worker._charge

    def recording_charge(flops, num_bytes, *rest):
        worker.charged.append((flops, num_bytes))
        return charge(flops, num_bytes, *rest)

    worker._charge = recording_charge
    return worker


class TestLaunchPrice:
    """A launch is priced inline in the worker, from the model's cost
    coefficients and the roofline's derived peak and bandwidth. It must
    equal, bit for bit, the analysis API's price of the same launch:
    ``Roofline.batched_point`` (the plain point at share 1) over
    ``decode_step_cost`` / ``prefill_cost``. The clock, the phase total
    and the utilization span all carry that one price. The ``@example``
    rows are inputs where a regrouped sum or product rounds differently."""

    @given(
        model=MODELS,
        roofline=ROOFLINES,
        share=SHARES,
        n_steps=st.integers(min_value=1, max_value=512),
        busy_capacity=st.integers(min_value=1, max_value=256).flatmap(
            lambda capacity: st.tuples(
                st.integers(min_value=1, max_value=capacity), st.just(capacity)
            )
        ),
        avg_cache_len=st.floats(min_value=0.0, max_value=1e6),
        speculative=st.integers(min_value=0, max_value=8),
    )
    @example(QWEN25_MATH_1P5B, Roofline(STARVED), 3, 7, (254, 256), 760962.4449125755, 0)
    @example(QWEN25_MATH_1P5B, Roofline(STARVED), 1, 1, (191, 192), 97.96083761192209, 2)
    def test_decode_span_is_n_steps_of_the_roofline_point(
        self, model, roofline, share, n_steps, busy_capacity, avg_cache_len, speculative
    ):
        busy, capacity = busy_capacity
        worker = model_worker(model, share, roofline)
        cost = decode_step_cost(model, busy, avg_cache_len)
        step = roofline.batched_point(cost.flops, cost.bytes, model.weight_bytes, share)
        if share == 1:
            assert step == roofline.point(cost.flops, cost.bytes)
        worker.clock.advance(0.125)
        dt = worker.decode_span(n_steps, busy, capacity, avg_cache_len, speculative)
        assert worker.charged == [(cost.flops, cost.bytes)]
        assert dt == n_steps * step.latency
        assert worker.clock.now == 0.125 + dt
        assert worker._spans == [
            UtilSpan(0.125, 0.125 + dt, busy, capacity, Phase.GENERATION, speculative)
        ]
        assert worker._timer.totals == {Phase.GENERATION: dt}

    @given(
        model=MODELS,
        roofline=ROOFLINES,
        share=SHARES,
        jobs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4096),
                st.one_of(
                    st.integers(min_value=0, max_value=100_000),
                    st.floats(min_value=0.0, max_value=1e5),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
        slack=st.integers(min_value=0, max_value=4),
    )
    @example(QWEN25_MATH_1P5B, Roofline(STARVED), 3, [(64, 0), (0, 9), (32, 200)], 0)
    @example(QWEN25_MATH_1P5B, Roofline(STARVED), 1, [(1606, 19662.79444613517)], 0)
    @example(QWEN25_MATH_1P5B, Roofline(STARVED), 1, [(3686, 273.3333333333333)], 1)
    def test_prefill_batch_is_one_roofline_point(
        self, model, roofline, share, jobs, slack
    ):
        live = [(tokens, cached) for tokens, cached in jobs if tokens > 0]
        flops, num_bytes = 0.0, float(model.weight_bytes)
        for tokens, cached in live:
            cost = prefill_cost(model, 1, tokens, cached_prefix_len=cached)
            flops += cost.flops
            num_bytes += cost.bytes - model.weight_bytes
        worker = model_worker(model, share, roofline)
        launch = roofline.batched_point(flops, num_bytes, model.weight_bytes, share)
        capacity = max(len(live), 1) + slack
        dt = worker.prefill_batch(
            [tokens for tokens, _ in jobs], [cached for _, cached in jobs],
            capacity_slots=capacity,
        )
        if not live:
            assert dt == 0.0 and worker.clock.now == 0.0
            assert worker.charged == [] and worker._spans == []
            return
        assert worker.charged == [(flops, num_bytes)]
        assert dt == launch.latency
        assert worker.clock.now == dt
        assert worker._spans == [
            UtilSpan(0.0, dt, len(live), capacity, Phase.VERIFICATION)
        ]
        assert worker._timer.totals == {Phase.VERIFICATION: dt}

    @given(
        roofline=ROOFLINES,
        share=SHARES,
        steps=st.integers(min_value=1, max_value=512),
        flops=st.floats(min_value=0.0, max_value=1e16),
        num_bytes=st.floats(min_value=0.0, max_value=1e11),
    )
    @example(Roofline(get_device("rtx4090")), 3, 1, 0.0, 3.0e9 + 0.1)
    def test_charge_is_steps_times_the_batched_point(
        self, roofline, share, steps, flops, num_bytes
    ):
        worker = model_worker(MODEL, share, roofline)
        point = roofline.batched_point(flops, num_bytes, MODEL.weight_bytes, share)
        dt = worker._charge(flops, num_bytes, steps, Phase.GENERATION, 1, 1)
        assert dt == steps * point.latency

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("share", [1, 3])
    def test_a_bad_cache_length_is_refused_by_both_paths(self, bad, share):
        worker = model_worker(MODEL, share)
        with pytest.raises(ValueError):
            decode_step_cost(MODEL, 2, bad)
        with pytest.raises(ValueError):
            worker.decode_span(1, 2, 4, bad)
        with pytest.raises(ValueError):
            prefill_cost(MODEL, 1, 16, cached_prefix_len=bad)
        with pytest.raises(ValueError):
            worker.prefill_batch([8, 16], [0, bad])
        assert worker.clock.now == 0.0
        assert worker._timer.totals == {} and worker._spans == []

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("share", [1, 3])
    def test_bad_flops_or_bytes_are_refused_by_both_paths(self, bad, share):
        worker = model_worker(MODEL, share)
        roofline = worker.roofline
        for flops, num_bytes in ((bad, 1e9), (1e9, bad)):
            with pytest.raises(ValueError):
                roofline.batched_point(flops, num_bytes, MODEL.weight_bytes, share)
            with pytest.raises(ValueError):
                worker._charge(flops, num_bytes, 1, Phase.GENERATION, 1, 1)
        assert worker.clock.now == 0.0
        assert worker._timer.totals == {} and worker._spans == []

    @pytest.mark.parametrize(
        "flops, steps", [(1e9, -1), (1e9, -512), (math.inf, 0)]
    )
    def test_a_negative_step_is_the_clocks_error_before_any_total_moves(
        self, flops, steps
    ):
        """``_charge`` moves the clock itself, with the check and message of
        :meth:`SimClock.advance`: a negative (or NaN, ``0 * inf``) step
        raises before the clock, a phase total or the span log moves."""
        worker = model_worker(MODEL)
        with pytest.raises(ValueError) as charged:
            worker._charge(flops, 1e9, steps, Phase.GENERATION, 1, 1)
        dt = float(str(charged.value).rpartition("dt=")[2])
        with pytest.raises(ValueError) as advanced:
            SimClock().advance(dt)
        assert str(charged.value) == str(advanced.value)
        assert worker.clock.now == 0.0
        assert worker._timer.totals == {} and worker._spans == []

    def test_the_roofline_constants_are_the_derated_device_peaks(self):
        roofline = Roofline(get_device("rtx4090"), efficiency=0.5)
        device = roofline.device
        assert roofline.peak == device.peak_flops * 0.5
        assert roofline.bandwidth == device.mem_bandwidth * 0.5
        point = roofline.point(3.0e12, 5.0e9)
        assert point.compute_time == 3.0e12 / roofline.peak
        assert point.memory_time == 5.0e9 / roofline.bandwidth
        with pytest.raises(AttributeError):
            roofline.peak = 1.0


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
