"""Tests for the generation-round executor (Alg. 1 mechanics)."""

import pytest

from repro.core import generation_round as generation_round_module
from repro.core.generation_round import ChildStepPlan, GenerationRound
from repro.engine.clock import SimClock
from repro.engine.jobs import GenJob
from repro.engine.telemetry import Phase, PhaseTimer
from repro.engine.worker import GeneratorWorker
from repro.errors import SchedulingError
from repro.hardware.device import get_device
from repro.hardware.roofline import Roofline
from repro.kvcache.cache import PagedKVCache
from repro.models.zoo import QWEN25_MATH_1P5B as MODEL

PROMPT_SEG = 1000


def make_worker(capacity_tokens=100_000):
    cache = PagedKVCache(capacity_tokens * MODEL.kv_bytes_per_token,
                         MODEL.kv_bytes_per_token)
    cache.register_segment(PROMPT_SEG, None, 64)
    return GeneratorWorker(
        MODEL, Roofline(get_device("rtx4090")), cache, SimClock(),
        PhaseTimer(), [],
    )


def make_job(i, tokens, head=0, score=None):
    return GenJob(
        lineage=(i,),
        path_segments=(PROMPT_SEG,),
        path_segment_tokens=(64,),
        new_segment=2000 + i,
        step_tokens=tokens,
        head_start=head,
        prev_score=score,
    )


def plan_child(parent_lineage, child_index, tokens=32):
    return ChildStepPlan(
        child_lineage=parent_lineage + (child_index,),
        segment_id=3000 + 100 * parent_lineage[0] + child_index,
        parent_leaf_segment=2000 + parent_lineage[0],
        n_tokens=tokens,
    )


def assert_whole_steps(result, worker, jobs):
    """Every beam finished, and its KV tail holds its whole step."""
    assert set(result.finished_at) == {job.lineage for job in jobs}
    for job in jobs:
        assert worker.cache.segment(job.new_segment).token_len == job.step_tokens


def children(tokens=32):
    """The speculation seam for beams that all can have children: the
    ``child_planner`` and ``has_child`` keyword arguments of a round."""
    return {
        "child_planner": lambda parent, child: plan_child(parent, child, tokens),
        "has_child": lambda parent: True,
    }


class TestBasicRound:
    def test_all_jobs_complete(self):
        worker = make_worker()
        round_ = GenerationRound(worker, slot_budget=8)
        jobs = [make_job(i, 10 + i) for i in range(4)]
        result = round_.run(jobs)
        assert_whole_steps(result, worker, jobs)
        assert result.stats.decoded_tokens == sum(10 + i for i in range(4))

    def test_empty_round(self):
        result = GenerationRound(make_worker(), slot_budget=4).run([])
        assert result.finished_at == {}
        assert result.stats.round_time == 0.0

    def test_shorter_beams_finish_earlier(self):
        worker = make_worker()
        result = GenerationRound(worker, slot_budget=8).run(
            [make_job(0, 10), make_job(1, 100)]
        )
        assert result.finished_at[(0,)] < result.finished_at[(1,)]

    def test_round_time_set_by_straggler(self):
        worker = make_worker()
        result = GenerationRound(worker, slot_budget=8).run(
            [make_job(0, 10), make_job(1, 200)]
        )
        assert result.stats.round_time == pytest.approx(
            result.finished_at[(1,)], rel=0.01
        )

    def test_decoded_tokens_counted(self):
        result = GenerationRound(make_worker(), slot_budget=4).run(
            [make_job(0, 25), make_job(1, 35)]
        )
        assert result.stats.decoded_tokens == 60

    def test_head_start_reduces_decoding(self):
        worker = make_worker()
        worker.cache.register_segment(2000, PROMPT_SEG, 15)  # pre-generated
        jobs = [make_job(0, 40, head=15)]
        result = GenerationRound(worker, slot_budget=4).run(jobs)
        assert_whole_steps(result, worker, jobs)
        assert result.stats.decoded_tokens == 25

    def test_full_head_start_instant_finish(self):
        worker = make_worker()
        worker.cache.register_segment(2000, PROMPT_SEG, 40)
        jobs = [make_job(0, 40, head=40)]
        result = GenerationRound(worker, slot_budget=4).run(jobs)
        assert_whole_steps(result, worker, jobs)
        assert result.stats.decoded_tokens == 0


class TestWaves:
    def test_slot_budget_respected(self):
        worker = make_worker()
        round_ = GenerationRound(worker, slot_budget=2)
        jobs = [make_job(i, 20) for i in range(6)]
        result = round_.run(jobs)
        assert_whole_steps(result, worker, jobs)
        for span in worker._spans:
            assert span.busy_slots <= 2

    def test_continuous_beam_batching_refills(self):
        """Freed slots admit waiting beams (Phase 1)."""
        worker = make_worker()
        round_ = GenerationRound(worker, slot_budget=2)
        result = round_.run([make_job(0, 5), make_job(1, 50), make_job(2, 5)])
        # job 2 starts when job 0's slot frees, well before job 1 ends
        assert result.finished_at[(2,)] < result.finished_at[(1,)]

    def test_stall_detected(self):
        worker = make_worker(capacity_tokens=96)  # prompt barely fits
        round_ = GenerationRound(worker, slot_budget=2)
        with pytest.raises(SchedulingError):
            round_.run([make_job(0, 2000)])


class TestSpeculation:
    def test_spec_fills_idle_slots(self):
        worker = make_worker()
        round_ = GenerationRound(
            worker, slot_budget=2, speculation=True, branching_factor=4,
            **children(tokens=100),
        )
        result = round_.run([make_job(0, 5, score=0.9), make_job(1, 60)])
        assert result.stats.speculative_tokens > 0
        assert any(s.speculative_slots > 0 for s in worker._spans)

    def test_every_slot_is_speculative_exactly_when_it_has_no_job(
        self, monkeypatch
    ):
        """A slot's ``is_spec`` is set by its constructor, for standard
        slots (admitted, preempted, re-admitted) and speculative ones."""
        built = []

        class RecordingSlot(generation_round_module._Slot):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(generation_round_module, "_Slot", RecordingSlot)
        worker = make_worker(capacity_tokens=400)
        result = GenerationRound(
            worker, slot_budget=3, speculation=True, branching_factor=4,
            **children(tokens=100),
        ).run([make_job(0, 5, score=0.9), make_job(1, 120), make_job(2, 90)])
        assert result.stats.speculative_tokens > 0
        assert {slot.is_spec for slot in built} == {True, False}
        for slot in built:
            assert slot.is_spec == (slot.job is None)

    def test_spec_strictly_terminated_with_stragglers(self):
        """Speculation never extends the round beyond the last straggler."""
        plain_worker = make_worker()
        plain = GenerationRound(plain_worker, slot_budget=2).run(
            [make_job(0, 5), make_job(1, 60)]
        )
        spec_worker = make_worker()
        spec = GenerationRound(
            spec_worker, slot_budget=2, speculation=True, branching_factor=4,
            **children(tokens=1000),
        ).run([make_job(0, 5, score=0.9), make_job(1, 60)])
        assert spec.stats.round_time == pytest.approx(
            plain.stats.round_time, rel=0.05
        )

    def test_partial_spec_recorded_as_head_start(self):
        worker = make_worker()
        round_ = GenerationRound(
            worker, slot_budget=2, speculation=True, branching_factor=4,
            **children(tokens=1000),  # can't finish
        )
        result = round_.run([make_job(0, 5, score=0.9), make_job(1, 60)])
        assert result.head_starts
        head = next(iter(result.head_starts.values()))
        assert 0 < head[0] < 1000

    def test_completed_spec_head_is_full_step(self):
        worker = make_worker()
        round_ = GenerationRound(
            worker, slot_budget=2, speculation=True, branching_factor=4,
            **children(tokens=10),
        )
        result = round_.run([make_job(0, 5, score=0.9), make_job(1, 300)])
        full = [h for h in result.head_starts.values() if h[0] == 10]
        assert full

    def test_high_score_beams_speculate_first(self):
        worker = make_worker()
        claims = []

        def recording_planner(parent, child):
            claims.append(parent)
            return plan_child(parent, child, tokens=500)

        round_ = GenerationRound(
            worker, slot_budget=3, speculation=True, branching_factor=4,
            child_planner=recording_planner, has_child=lambda parent: True,
        )
        round_.run([
            make_job(0, 5, score=0.95),
            make_job(1, 5, score=0.05),
            make_job(2, 200),
        ])
        assert claims[0] == (0,)

    def test_terminal_beams_not_speculated(self):
        worker = make_worker()

        def no_children(parent, child):
            return None

        round_ = GenerationRound(
            worker, slot_budget=2, speculation=True, branching_factor=4,
            child_planner=no_children, has_child=lambda parent: False,
        )
        result = round_.run([make_job(0, 5), make_job(1, 50)])
        assert result.stats.speculative_tokens == 0

    def test_preemption_halts_speculation(self):
        """Beam 0 finishes first and speculates beside beams 1 and 2; a
        deadline at the last span's start, when beam 1 has finished too,
        cuts the speculation there."""
        jobs = [make_job(0, 5, score=0.9), make_job(1, 200), make_job(2, 400)]

        def spec_round(worker, **kwargs):
            return GenerationRound(
                worker, slot_budget=3, speculation=True, branching_factor=4,
                **children(tokens=5000), **kwargs,
            )

        free_worker = make_worker()
        free = spec_round(free_worker).run(jobs)
        preempt_at = free_worker._spans[-1].t_start
        worker = make_worker()
        result = spec_round(worker, preempt_at=preempt_at).run(jobs)
        # standard work still completes; speculation was cut short
        assert set(result.finished_at) == {(0,), (1,), (2,)}
        assert 0 < result.stats.speculative_tokens < free.stats.speculative_tokens
        assert free_worker._spans[-1].speculative_slots > 0
        assert all(
            s.speculative_slots == 0 for s in worker._spans if s.t_start >= preempt_at
        )

    def test_a_round_without_speculation_never_reads_its_deadline(self):
        """The deadline only stops speculation, so a baseline round never
        compares the clock with it: the comparison is the cost of a
        preemption, paid by a round that has nothing to preempt."""

        class CountingDeadline:
            reads = 0

            def __le__(self, now):  # ``now >= deadline``, reflected
                CountingDeadline.reads += 1
                return True

        deadline = CountingDeadline()
        result = GenerationRound(
            make_worker(), slot_budget=2, preempt_at=deadline,
        ).run([make_job(0, 5), make_job(1, 400)])
        assert set(result.finished_at) == {(0,), (1,)}
        assert deadline.reads == 0
        spec = GenerationRound(
            make_worker(), slot_budget=2, speculation=True, branching_factor=4,
            **children(), preempt_at=deadline,
        ).run([make_job(0, 5, score=0.9), make_job(1, 400)])
        assert deadline.reads == 1  # the first span halts Phase 2 for good
        assert spec.stats.speculative_tokens == 0

    def test_speculation_requires_planner(self):
        with pytest.raises(ValueError):
            GenerationRound(make_worker(), slot_budget=2, speculation=True)

    @pytest.mark.parametrize(
        "fraction", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
    )
    def test_spec_bandwidth_fraction_must_be_positive_and_finite(self, fraction):
        with pytest.raises(ValueError, match="positive and finite"):
            GenerationRound(
                make_worker(), slot_budget=2, speculation=True,
                **children(),
                spec_bandwidth_fraction=fraction,
            )


class TestSpeculationBandwidthCap:
    """Speculative slots are capped by their marginal bandwidth: their KV
    reads per step stay within ``spec_bandwidth_fraction`` of the weight
    bytes. Three short beams free three slots of four while a straggler
    runs; each can offer at least three branches."""

    def spans(self, **kwargs):
        worker = make_worker()
        GenerationRound(
            worker, slot_budget=4, speculation=True, branching_factor=4,
            **children(tokens=100), **kwargs,
        ).run([
            make_job(0, 5, score=0.9), make_job(1, 5, score=0.8),
            make_job(2, 5, score=0.7), make_job(3, 200),
        ])
        return worker._spans

    def test_a_cap_of_one_runs_one_speculative_slot_per_span(self):
        # One KV token's bytes per weight byte: a cap of 1 for any context.
        fraction = MODEL.kv_bytes_per_token / MODEL.weight_bytes
        spans = self.spans(spec_bandwidth_fraction=fraction)
        assert max(span.speculative_slots for span in spans) == 1

    def test_at_small_n_the_default_cap_never_binds(self):
        speculative = [span for span in self.spans() if span.speculative_slots]
        assert speculative
        for span in speculative:
            assert span.busy_slots == span.capacity_slots == 4
        assert max(span.speculative_slots for span in speculative) == 3


class TestSlotChurn:
    """Mid-burst slot turnover: frees, refills and stalls (ISSUE 6)."""

    def test_mid_burst_free_and_refill(self):
        """With fewer slots than jobs, every freed slot is refilled from
        the waiting queue mid-round and every job still completes."""
        worker = make_worker()
        round_ = GenerationRound(worker, slot_budget=2)
        lengths = [5, 80, 10, 15, 20]
        jobs = [make_job(i, n) for i, n in enumerate(lengths)]
        result = round_.run(jobs)
        assert_whole_steps(result, worker, jobs)
        for span in worker._spans:
            assert span.busy_slots <= 2
        # Jobs 2..4 only run in slots freed mid-burst, so each must start
        # strictly inside the round, not at t=0 with the first wave.
        finishes = sorted(result.finished_at.values())
        assert finishes[0] < finishes[-1]
        assert result.finished_at[(4,)] < result.finished_at[(1,)]

    def test_stuck_batch_raises_scheduling_error(self):
        """A waiting beam that can never be admitted must raise, not spin."""
        worker = make_worker(capacity_tokens=96)  # prompt barely fits
        round_ = GenerationRound(worker, slot_budget=4)
        with pytest.raises(SchedulingError, match="stalled"):
            round_.run([make_job(i, 500) for i in range(3)])

    def test_first_token_time_recorded(self):
        result = GenerationRound(make_worker(), slot_budget=4).run(
            [make_job(0, 10), make_job(1, 30)]
        )
        assert result.stats.first_token_time is not None
        assert 0.0 < result.stats.first_token_time <= result.stats.round_time

    def test_empty_round_has_no_first_token(self):
        result = GenerationRound(make_worker(), slot_budget=4).run([])
        assert result.stats.first_token_time is None


class TestRecomputeBilling:
    """KV missing at admission (a cold prompt, or a path evicted since)
    is recomputed in the burst's one prefill launch, billed to the
    generation phase on the round's clock."""

    def test_missing_kv_is_billed_through_prefill_batch(self, monkeypatch):
        launches = []
        real = GeneratorWorker.prefill_batch

        def recording(worker, token_counts, cached_prefix_lens, **kwargs):
            dt = real(worker, token_counts, cached_prefix_lens, **kwargs)
            launches.append((sum(token_counts), kwargs["phase"], dt))
            return dt

        monkeypatch.setattr(GeneratorWorker, "prefill_batch", recording)
        worker = make_worker()
        rounds = []
        for first, evict in ((0, False), (3, False), (6, True)):
            if evict:
                worker.cache.evict_all(now=worker.clock.now)
            launches.clear()
            jobs = [make_job(first + i, 10) for i in range(3)]
            result = GenerationRound(worker, slot_budget=4).run(jobs)
            (tokens, phase, dt), = launches
            assert phase is Phase.GENERATION
            assert tokens == result.stats.recomputed_tokens
            rounds.append((tokens, dt > 0))
        # cold prompt, warm prompt, prompt evicted since
        assert rounds == [(64, True), (0, False), (64, True)]
        assert worker._timer.get(Phase.GENERATION) == worker.clock.now


class TestAdmissionOrderDeterminism:
    """Batched prefill charging must not depend on admission order: the
    same job set reordered yields the same round time and token counts."""

    LENGTHS = [12, 47, 23, 8, 31, 19]

    def run_order(self, order):
        jobs = [make_job(i, self.LENGTHS[i]) for i in order]
        worker = make_worker()
        result = GenerationRound(worker, slot_budget=8).run(jobs)
        assert_whole_steps(result, worker, jobs)
        return result

    def test_reordered_admission_identical_round(self):
        forward = self.run_order(range(6))
        shuffled = self.run_order([3, 0, 5, 1, 4, 2])
        assert shuffled.stats.round_time == forward.stats.round_time
        assert shuffled.stats.decoded_tokens == forward.stats.decoded_tokens
        assert shuffled.stats.prefilled_tokens == forward.stats.prefilled_tokens
        assert shuffled.stats.first_token_time == forward.stats.first_token_time

    def test_reversed_admission_identical_round(self):
        forward = self.run_order(range(6))
        reverse = self.run_order(reversed(range(6)))
        assert reverse.stats.round_time == forward.stats.round_time
        assert reverse.stats.decoded_tokens == forward.stats.decoded_tokens


class TestAlgorithmicEquivalence:
    def test_outcome_tokens_independent_of_speculation(self):
        """Speculation changes timing, never the generated step lengths."""
        jobs = [make_job(i, 20 + 7 * i, score=0.5) for i in range(4)]
        plain_worker, spec_worker = make_worker(), make_worker()
        plain = GenerationRound(plain_worker, slot_budget=4).run(jobs)
        spec = GenerationRound(
            spec_worker, slot_budget=4, speculation=True, branching_factor=4,
            **children(),
        ).run(jobs)
        assert_whole_steps(plain, plain_worker, jobs)
        assert_whole_steps(spec, spec_worker, jobs)
        assert spec.stats.decoded_tokens == plain.stats.decoded_tokens


class TestWorkAtEvents:
    """A span pays for what joins or leaves: admission is entered only
    when beams wait, and the speculation fill only when a slot is free
    and the selector holds a candidate."""

    def record(self, monkeypatch):
        entered = {"admit": [], "fill": []}
        real_admit = GenerationRound._admit_standard
        real_fill = GenerationRound._fill_with_speculation

        def admit(round_, waiting, running, *args):
            entered["admit"].append(len(waiting))
            return real_admit(round_, waiting, running, *args)

        def fill(round_, running, selector, capacity):
            entered["fill"].append((len(running), capacity, len(selector.heap)))
            return real_fill(round_, running, selector, capacity)

        monkeypatch.setattr(GenerationRound, "_admit_standard", admit)
        monkeypatch.setattr(GenerationRound, "_fill_with_speculation", fill)
        return entered

    def test_admission_is_not_entered_with_nothing_waiting(self, monkeypatch):
        entered = self.record(monkeypatch)
        worker = make_worker()
        GenerationRound(worker, slot_budget=2).run(
            [make_job(i, 10 + 9 * i) for i in range(6)]
        )
        # Six beams in two slots: refills after spans, never an empty call.
        assert len(entered["admit"]) > 1
        assert 0 not in entered["admit"]
        assert len(worker._spans) > len(entered["admit"])

    def test_speculation_fill_is_not_entered_on_a_full_batch(self, monkeypatch):
        entered = self.record(monkeypatch)
        worker = make_worker()
        spans = []
        real_span = worker.decode_span

        def decode_span(**kwargs):
            spans.append(kwargs["busy_slots"])
            return real_span(**kwargs)

        worker.decode_span = decode_span
        # Beam 0 finishes first and beam 2 takes its slot: the batch is
        # full again, so no fill is entered although a candidate waits.
        GenerationRound(
            worker, slot_budget=2, speculation=True, branching_factor=4,
            **children(tokens=100),
        ).run([make_job(0, 5, score=0.9), make_job(1, 200), make_job(2, 50)])
        assert entered["admit"] == [3, 1]
        assert entered["fill"]
        for busy, capacity, candidates in entered["fill"]:
            assert busy < capacity and candidates
        assert len(entered["fill"]) < len(spans)
