"""Continuous cross-session batching acceptance tests (ISSUE 6).

Acceptance contract: with ``batching="continuous"`` on a single lane
holding n >= 4 co-resident sessions, request throughput strictly
improves AND mean TTFT strictly drops versus ``batching="off"`` at
identical final answers, and batch occupancy > 1 surfaces in both the
fleet metrics and the per-device rollup. ``batching="off"`` stays
byte-identical to the default run-to-completion path, and composing
batching with PR 5's prefix KV sharing on same-problem traffic beats
either feature alone on mean latency.
"""

import pytest

from repro.core.batcher import RoundBatcher
from repro.core.config import ConfigError, baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.pool import DevicePool, PooledDevice
from repro.core.session import SessionState, SolveSession
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.datasets import build_dataset


def answer_signature(report):
    return {
        rid: sorted((b.lineage, b.answer, b.correct, b.score) for b in res.beams)
        for rid, res in report.results.items()
    }


def record_signature(report):
    return [
        (
            r.request_id, r.arrival_s, r.start_s, r.finish_s,
            r.accepted, r.reject_reason,
            r.latency.to_json_dict() if r.latency else None,
        )
        for r in report.records
    ]


def burst_fleet(batching=None):
    """Five sessions arriving ~1 request/s on one rtx4090 lane.

    Run-to-completion serializes the queue, so every later arrival
    waits out its predecessors' full solves; continuous batching
    co-locates all five and amortizes the weight read per iteration.
    ``batching=None`` omits the kwarg entirely to pin the default.
    """
    dataset = build_dataset("amc23", seed=0, size=5)
    kwargs = {} if batching is None else {"batching": batching}
    fleet = TTSFleet(
        baseline_config(memory_fraction=0.4, seed=0), dataset,
        scheduler="fifo", **kwargs,
    )
    arrivals = PoissonProcess(rate_rps=1.0).times(KeyedRng(0), 5)
    for problem, arrival in zip(dataset, arrivals):
        fleet.submit(problem, build_algorithm("beam_search", 4), arrival_s=arrival)
    return fleet.drain()


@pytest.fixture(scope="module")
def burst_off():
    return burst_fleet("off")


@pytest.fixture(scope="module")
def burst_continuous():
    return burst_fleet("continuous")


class TestAcceptance:
    """Batching changes when work happens, never what gets computed."""

    def test_throughput_strictly_improves(self, burst_off, burst_continuous):
        assert (
            burst_continuous.metrics.throughput_rps
            > burst_off.metrics.throughput_rps
        )

    def test_mean_ttft_strictly_drops(self, burst_off, burst_continuous):
        assert burst_off.metrics.ttft_mean_s > 0.0
        assert (
            burst_continuous.metrics.ttft_mean_s
            < burst_off.metrics.ttft_mean_s
        )

    def test_answers_identical(self, burst_off, burst_continuous):
        assert answer_signature(burst_continuous) == answer_signature(burst_off)

    def test_occupancy_exceeds_one_in_metrics(self, burst_continuous):
        m = burst_continuous.metrics
        assert m.batch_occupancy_mean > 1.0
        assert m.batch_occupancy_peak > 1

    def test_occupancy_exceeds_one_in_device_rollup(self, burst_continuous):
        lane = burst_continuous.devices[0]
        assert lane.batch_iterations > 0
        assert lane.batch_occupancy_mean > 1.0
        assert lane.batch_occupancy_peak > 1
        assert "occ mean" in burst_continuous.device_table()

    def test_off_lane_reports_unit_occupancy(self, burst_off):
        assert burst_off.metrics.batch_occupancy_mean == 1.0
        assert burst_off.metrics.batch_occupancy_peak == 1
        assert burst_off.devices[0].batch_iterations == 0

    def test_mode_surfaces_on_report(self, burst_off, burst_continuous):
        assert burst_off.spec.batching == "off"
        assert burst_continuous.spec.batching == "continuous"

    def test_slo_metrics_populated(self, burst_off, burst_continuous):
        for report in (burst_off, burst_continuous):
            accepted = [r for r in report.records if r.accepted]
            assert accepted
            for rec in accepted:
                assert rec.ttft_s is not None and rec.ttft_s >= 0.0
                assert rec.tpot_s is not None and rec.tpot_s > 0.0
            assert report.metrics.tpot_mean_s > 0.0
            assert "ttft mean s" in report.table()


class TestOffIsTheDefault:
    """Omitting ``batching`` must reproduce ``batching="off"`` exactly —
    same records, same beams, down to every float."""

    def test_default_matches_explicit_off(self, burst_off):
        default = burst_fleet()
        assert default.spec.batching == "off"
        assert record_signature(default) == record_signature(burst_off)
        assert {
            rid: res.to_json_dict() for rid, res in sorted(default.results.items())
        } == {
            rid: res.to_json_dict() for rid, res in sorted(burst_off.results.items())
        }


class TestOneTurnPath:
    """Every lane turn is one ``RoundBatcher`` iteration: an ``off`` lane
    runs the scheduler's single pick as its one member."""

    @staticmethod
    def member_counts(monkeypatch, batching):
        sizes = []
        real = RoundBatcher.run_iteration

        def counting(run, lane, members):
            sizes.append(len(members))
            return real(run, lane, members)

        monkeypatch.setattr(RoundBatcher, "run_iteration", staticmethod(counting))
        burst_fleet(batching)
        return sizes

    def test_off_lane_iterates_single_picks(self, monkeypatch):
        sizes = self.member_counts(monkeypatch, "off")
        assert len(sizes) > 0
        assert set(sizes) == {1}

    def test_continuous_lane_batches_members(self, monkeypatch):
        assert max(self.member_counts(monkeypatch, "continuous")) > 1

    def test_race_loser_finalizing_alongside_the_winner_is_skipped(self):
        """Both replicas of a request finalize in one iteration and the
        first settles the race: the cancelled second is not stepped."""
        dataset = build_dataset("amc23", seed=0, size=4)
        fleet = TTSFleet(
            baseline_config(memory_fraction=0.4, seed=0), dataset,
            scheduler="first_finish", batching="continuous",
        )
        for problem in dataset:
            fleet.submit(problem, build_algorithm("beam_search", 2), 0.0)
        report = fleet.drain()
        assert [r.replicas for r in report.records] == [2, 2, 2, 2]
        assert all(r.accepted and r.cancelled_work_s > 0 for r in report.records)


class TestNoOverlap:
    """With no two sessions co-resident every iteration has one member,
    so the mode branches left in the one turn path change nothing: a
    ``continuous`` lane serves exactly what an ``off`` lane serves."""

    ARRIVALS = [0.3711, 5000.1234567, 10000.98765, 20000.13]

    @staticmethod
    def run(factory, batching):
        dataset = build_dataset("amc23", seed=0, size=4)
        fleet = TTSFleet(
            factory(memory_fraction=0.4, seed=0), dataset,
            scheduler="fifo", batching=batching,
        )
        for problem, arrival in zip(dataset, TestNoOverlap.ARRIVALS):
            fleet.submit(
                problem, build_algorithm("beam_search", 8), arrival_s=arrival
            )
        return fleet.drain()

    @staticmethod
    def times(record):
        return [
            record.arrival_s, record.start_s, record.finish_s,
            record.ttft_s, record.tpot_s, record.device_time_s,
            record.kv_swap_s, *record.latency.to_json_dict().values(),
        ]

    @pytest.mark.parametrize(
        "factory", [baseline_config, fasttts_config], ids=["baseline", "fasttts"]
    )
    def test_continuous_matches_off(self, factory, monkeypatch):
        off = self.run(factory, "off")
        rounds = []  # the occupancy of every generation step
        real_step = SolveSession.step

        def counting_step(session, occupancy=1):
            if session.state is SessionState.GENERATING:
                rounds.append(occupancy)
            return real_step(session, occupancy)

        monkeypatch.setattr(SolveSession, "step", counting_step)
        continuous = self.run(factory, "continuous")
        # The sessions really are disjoint: each starts at its arrival
        # and finishes before the next one arrives.
        for record, next_arrival in zip(off.records, self.ARRIVALS[1:]):
            assert record.start_s == record.arrival_s
            assert record.finish_s < next_arrival
        assert set(rounds) == {1}
        # Each request's first round is a lone pick waiting out the idle
        # gap to its arrival, which the occupancy counters do not count.
        assert continuous.devices[0].batch_iterations == len(rounds) - 4
        assert continuous.metrics.batch_occupancy_peak == 1
        assert answer_signature(continuous) == answer_signature(off)
        assert len(continuous.records) == len(off.records) == 4
        for batched, solo in zip(continuous.records, off.records):
            assert (batched.request_id, batched.device_id, batched.accepted) == (
                solo.request_id, solo.device_id, solo.accepted
            )
            # Continuous lanes re-anchor every member each iteration.
            assert self.times(batched) == pytest.approx(self.times(solo), rel=1e-12)


class TestComposition:
    """PR 5 + PR 6: prefix sharing and continuous batching compose.

    Same-problem traffic at memory_fraction 0.34 thrashes the ledger
    when every co-resident session is billed its full footprint; dedup
    removes the swap, batching removes the serialized weight reads, and
    together they beat either alone on mean latency — at identical
    answers in all four cells.
    """

    @staticmethod
    def run(kv_sharing, batching):
        dataset = build_dataset("amc23", seed=0, size=2)
        config = fasttts_config(memory_fraction=0.34, seed=0)
        fleet = TTSFleet(
            config, dataset, scheduler="round_robin",
            kv_sharing=kv_sharing, batching=batching,
        )
        problem = list(dataset)[0]
        for i in range(3):
            fleet.submit(problem, build_algorithm("beam_search", 16), float(i))
        return fleet.drain()

    @pytest.fixture(scope="class")
    def matrix(self):
        return {
            (batching, sharing): self.run(sharing, batching)
            for batching in ("off", "continuous")
            for sharing in ("off", "prefix")
        }

    def test_both_beats_either_alone(self, matrix):
        neither = matrix[("off", "off")].metrics.latency_mean_s
        sharing_only = matrix[("off", "prefix")].metrics.latency_mean_s
        batching_only = matrix[("continuous", "off")].metrics.latency_mean_s
        both = matrix[("continuous", "prefix")].metrics.latency_mean_s
        assert both < batching_only < neither
        assert both < sharing_only < neither

    def test_sharing_still_cuts_swap_under_batching(self, matrix):
        assert (
            matrix[("continuous", "prefix")].metrics.kv_swap_s
            < matrix[("continuous", "off")].metrics.kv_swap_s
        )
        assert matrix[("continuous", "prefix")].metrics.kv_dedup_ratio > 1.0

    def test_answers_identical_across_cells(self, matrix):
        signatures = [answer_signature(r) for r in matrix.values()]
        assert all(sig == signatures[0] for sig in signatures)


class TestConfig:
    @staticmethod
    def any_dataset():
        return build_dataset("amc23", seed=0, size=1)

    def test_bad_batching_rejected(self):
        with pytest.raises(ConfigError, match="batching"):
            TTSFleet(
                baseline_config(memory_fraction=0.4), self.any_dataset(),
                batching="dynamic",
            )

    def test_pool_build_with_batching(self):
        dataset = self.any_dataset()
        pool = DevicePool.build(
            baseline_config(memory_fraction=0.4), dataset,
            batching="continuous",
        )
        assert all(lane.batching == "continuous" for lane in pool)
        fleet = TTSFleet(
            baseline_config(memory_fraction=0.4), dataset, batching="continuous"
        )
        assert all(lane.batching == "continuous" for lane in fleet.pool)
        fleet.submit(list(dataset)[0], build_algorithm("best_of_n", 2), 0.0)
        assert fleet.drain().spec.batching == "continuous"

    def test_pooled_device_validates_mode(self):
        lane = DevicePool.build(
            baseline_config(memory_fraction=0.4), self.any_dataset()
        )[0]
        with pytest.raises(ConfigError, match="batching"):
            PooledDevice(index=lane.index, server=lane.server, batching="chunked")


def two_lane_burst(faults="off", recovery="failover"):
    """The burst workload spread over two lanes, batching continuously.

    ``least_loaded`` placement splits the five requests across the pool
    (dev0 batches two, dev1 batches three), so a lane crash hits one
    running batch while the other keeps serving — the ISSUE 8 scenario
    for settling a batch's surviving members.
    """
    dataset = build_dataset("amc23", seed=0, size=5)
    fleet = TTSFleet(
        baseline_config(memory_fraction=0.4, seed=0), dataset,
        scheduler="round_robin", devices=["rtx4090"] * 2,
        placement="least_loaded", batching="continuous",
        faults=faults, recovery=recovery,
    )
    arrivals = PoissonProcess(rate_rps=1.0).times(KeyedRng(0), 5)
    for problem, arrival in zip(dataset, arrivals):
        fleet.submit(problem, build_algorithm("beam_search", 4), arrival_s=arrival)
    return fleet.drain()


class TestCrashDuringBatch:
    """A lane crash mid-batch (ISSUE 8): members that already settled
    keep their records bit-for-bit (their amortized share of the jointly
    costed weight read is never re-billed), live members fail over into
    the other lane's running batch, and the whole outcome is
    deterministic."""

    @pytest.fixture(scope="class")
    def batch_baseline(self):
        return two_lane_burst()

    @pytest.fixture(scope="class")
    def crash_spec(self, batch_baseline):
        """Crash the busier lane after its first member settles but while
        the rest of its batch is still decoding."""
        by_lane = {}
        for record in batch_baseline.records:
            by_lane.setdefault(record.device_id, []).append(record)
        lane_id, members = max(by_lane.items(), key=lambda kv: len(kv[1]))
        finishes = sorted(r.finish_s for r in members)
        assert len(finishes) >= 2, "need a multi-member batch to crash"
        crash_at = (finishes[0] + finishes[1]) / 2.0
        return f"crash:at={crash_at},lane={int(lane_id.split(':')[0][3:])}"

    @pytest.fixture(scope="class")
    def crashed(self, crash_spec):
        return two_lane_burst(faults=crash_spec, recovery="failover")

    def test_crash_hit_a_live_batch(self, crashed):
        assert crashed.metrics.lane_failures == 1
        assert any(r.failed_over for r in crashed.records)

    def test_settled_member_keeps_record_bit_for_bit(
        self, batch_baseline, crashed, crash_spec
    ):
        crash_at = float(crash_spec.split("at=")[1].split(",")[0])
        settled = [r for r in batch_baseline.records if r.finish_s < crash_at]
        assert settled, "a batch member should have settled pre-crash"
        after = {r.request_id: r for r in crashed.records}
        for before in settled:
            assert after[before.request_id] == before

    def test_live_members_fail_over_and_answer_identically(
        self, batch_baseline, crashed
    ):
        failed_over = [r for r in crashed.records if r.failed_over]
        assert failed_over
        baseline_by_id = {r.request_id: r for r in batch_baseline.records}
        for record in failed_over:
            assert record.accepted and not record.lost
            assert record.retries == 0  # failover, not retry
            assert record.redone_work_s > 0.0
            assert record.finish_s > baseline_by_id[record.request_id].finish_s
            # Billed time = the re-run plus the crash-discarded work; a
            # double-billed weight read would push it past both.
            assert record.device_seconds > record.redone_work_s
        assert answer_signature(crashed) == answer_signature(batch_baseline)

    def test_all_requests_recovered(self, crashed):
        assert crashed.metrics.availability == 1.0
        assert crashed.metrics.requests_lost == 0
        assert crashed.metrics.completed == len(crashed.records)

    def test_crash_outcome_is_deterministic(self, crashed, crash_spec):
        again = two_lane_burst(faults=crash_spec, recovery="failover")
        assert again.records == crashed.records
        assert answer_signature(again) == answer_signature(crashed)

    def test_shed_loses_only_the_live_members(
        self, batch_baseline, crashed, crash_spec
    ):
        shed = two_lane_burst(faults=crash_spec, recovery="shed")
        lost = {r.request_id for r in shed.records if r.lost}
        assert lost == {r.request_id for r in crashed.records if r.failed_over}
        assert shed.metrics.availability < crashed.metrics.availability
        crash_at = float(crash_spec.split("at=")[1].split(",")[0])
        settled = [r for r in batch_baseline.records if r.finish_s < crash_at]
        after = {r.request_id: r for r in shed.records}
        for before in settled:
            assert after[before.request_id] == before
