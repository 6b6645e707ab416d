"""Fault injection, lane failover, and retry-with-backoff (ISSUE 8).

Acceptance contract: a mid-trace lane crash on a 4-lane pool recovers
strictly more requests under ``failover`` and ``retry`` than under
``shed`` (availability and goodput-under-deadline ordered accordingly);
a ``first_finish``-raced request survives one replica's crash whenever a
sibling replica lives; ``faults="off"`` stays byte-identical to the
fault-free fleet (pinned by ``tests/goldens/fleet_fifo_goldens.json``);
and the same fault spec plus seed reproduces identical records twice.
"""

import pytest

from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.pool import DevicePool, LaneHealth
from repro.errors import ConfigError, FaultError, RetryExhaustedError
from repro.faults import (
    FAULTS,
    FaultInjector,
    KvPressure,
    LaneCrash,
    LinkDegrade,
    RetryPolicy,
    TransientStall,
    parse_fault_spec,
)
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.datasets import build_dataset


class TestFaultSpecParsing:
    def test_off_means_no_processes(self):
        assert parse_fault_spec("off") == ()
        assert parse_fault_spec("") == ()
        assert parse_fault_spec(None) == ()

    def test_single_clause_fields(self):
        (crash,) = parse_fault_spec("crash:at=100,lane=2,mttr=50")
        assert isinstance(crash, LaneCrash)
        assert crash.at == 100.0 and crash.lane == 2 and crash.mttr == 50.0

    def test_multiple_clauses(self):
        procs = parse_fault_spec(
            "crash:rate=0.001;stall:at=10,duration=5;"
            "link_degrade:at=20,factor=0.5;kv_pressure:at=30,fraction=0.7"
        )
        assert [type(p) for p in procs] == [
            LaneCrash, TransientStall, LinkDegrade, KvPressure,
        ]

    def test_unknown_kind_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'crash'"):
            parse_fault_spec("crah:at=1")

    def test_malformed_clause_rejected(self):
        for spec in ("crash", "crash:at", "crash:at=x", "crash:=1", ":at=1"):
            with pytest.raises(ConfigError):
                parse_fault_spec(spec)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("crash:at=1,bogus=2")

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):  # neither at= nor rate=
            FAULTS.build("crash")
        with pytest.raises(ConfigError):  # both
            FAULTS.build("crash", at=1.0, rate=0.1)
        with pytest.raises(ConfigError):
            FAULTS.build("stall", at=1.0, duration=0.0)
        with pytest.raises(ConfigError):
            FAULTS.build("link_degrade", at=1.0, factor=1.5)
        with pytest.raises(ConfigError):
            FAULTS.build("kv_pressure", at=1.0, fraction=0.0)
        with pytest.raises(ConfigError):
            FAULTS.build("crash", at=1.0, mttr=-5.0)

    def test_registry_descriptions(self):
        assert FAULTS.names() == sorted(FAULTS.names())
        assert set(FAULTS.descriptions()) == set(FAULTS.names())
        assert all(FAULTS.descriptions().values())


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(budget=3, backoff_s=2.0)
        assert [policy.backoff(a) for a in (1, 2, 3)] == [2.0, 4.0, 8.0]

    def test_budget_exhaustion_raises(self):
        policy = RetryPolicy(budget=2, backoff_s=1.0)
        policy.backoff(2)
        with pytest.raises(RetryExhaustedError):
            policy.backoff(3)

    def test_zero_budget_never_retries(self):
        with pytest.raises(RetryExhaustedError):
            RetryPolicy(budget=0).backoff(1)

    def test_invalid_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


class TestInjectorDeterminism:
    def spec(self):
        return parse_fault_spec(
            "crash:rate=0.001,mttr=100;stall:rate=0.002,duration=10"
        )

    def test_same_seed_same_timeline(self):
        a = FaultInjector(self.spec(), KeyedRng(3).fork("faults"), 4)
        b = FaultInjector(self.spec(), KeyedRng(3).fork("faults"), 4)
        assert a.timeline(5000.0) == b.timeline(5000.0)

    def test_timeline_time_ordered_and_seed_sensitive(self):
        a = FaultInjector(self.spec(), KeyedRng(3).fork("faults"), 4)
        events = a.timeline(5000.0)
        assert events
        assert list(events) == sorted(events, key=lambda e: e.time_s)
        c = FaultInjector(self.spec(), KeyedRng(4).fork("faults"), 4)
        assert c.timeline(5000.0) != events

    def test_clauses_compose_without_perturbation(self):
        """Adding a clause must not move the existing clause's events."""
        solo = FaultInjector(
            parse_fault_spec("crash:rate=0.001,mttr=100"),
            KeyedRng(3).fork("faults"), 4,
        )
        both = FaultInjector(self.spec(), KeyedRng(3).fork("faults"), 4)
        crashes_solo = [e for e in solo.timeline(5000.0)]
        crashes_both = [e for e in both.timeline(5000.0) if e.kind == "crash"]
        assert crashes_both == crashes_solo

    def test_pop_due_consumes_in_order(self):
        injector = FaultInjector(
            parse_fault_spec("stall:rate=0.01,duration=1"),
            KeyedRng(0).fork("faults"), 2,
        )
        first = injector.peek()
        assert first is not None
        events = injector.pop_due(first)
        assert events and all(e.time_s <= first for e in events)
        assert injector.peek() is None or injector.peek() > first

    def test_pinned_lane_out_of_range(self):
        with pytest.raises(ConfigError):
            FaultInjector(
                parse_fault_spec("crash:at=1,lane=4"),
                KeyedRng(0).fork("faults"), 4,
            )


class TestLaneLifecycle:
    def lane(self, kv_sharing="off"):
        dataset = build_dataset("amc23", seed=0, size=1)
        pool = DevicePool.build(
            fasttts_config(memory_fraction=0.9, seed=0), dataset,
            ["rtx4090"], kv_sharing=kv_sharing,
        )
        return pool[0], list(dataset)[0]

    def grown_session(self, lane, problem, segment_granular):
        session = lane.server.session(problem, build_algorithm("beam_search", 4))
        for _ in range(5):
            session.step()
        if segment_granular:
            lane.ledger.charge_growth_segments(
                session.session_id, session.claim_names.resident(session)
            )
        else:  # the one private claim an off lane names
            lane.ledger.charge_growth_segments(
                session.session_id, *lane.session_claims(session)
            )
        return session

    def test_fail_lane_releases_resident_kv(self):
        lane, problem = self.lane()
        session = self.grown_session(lane, problem, segment_granular=False)
        assert lane.ledger.resident_bytes > 0
        released = lane.fail_lane(10.0)
        assert lane.health is LaneHealth.DOWN and not lane.serving
        assert released == [session.session_id]
        assert lane.ledger.resident_bytes == 0
        assert lane.clock.now >= 10.0
        assert lane.failures == 1

    def test_fail_lane_releases_shared_segment_claims(self):
        lane, problem = self.lane(kv_sharing="prefix")
        session = self.grown_session(lane, problem, segment_granular=True)
        assert lane.ledger.resident_bytes > 0
        released = lane.fail_lane(10.0)
        assert session.session_id in released
        assert lane.ledger.resident_bytes == 0
        assert lane.ledger.owners == []

    def test_double_fail_rejected(self):
        lane, _ = self.lane()
        lane.fail_lane(1.0)
        with pytest.raises(FaultError):
            lane.fail_lane(2.0)

    def test_recover_resets_lane(self):
        lane, _ = self.lane()
        lane.degrade_link(0.5)
        lane.fail_lane(10.0)
        lane.recover_lane(60.0)
        assert lane.health is LaneHealth.UP
        assert lane.link_scale == 1.0
        assert lane.downtime_s == pytest.approx(50.0)
        assert lane.recoveries == 1
        with pytest.raises(FaultError):  # cannot recover an UP lane
            lane.recover_lane(70.0)

    def test_an_outage_starts_at_the_crash_not_the_lane_clock(self):
        """A lane whose clock ran past the crash instant (it was mid-turn)
        is down from the crash on: the repair window is the whole MTTR."""
        lane, _ = self.lane()
        lane.clock.advance_to(12.5)
        lane.fail_lane(10.0)
        assert lane.failed_at_s == 10.0
        assert lane.clock.now == 12.5  # a clock never runs backwards
        lane.recover_lane(40.0)
        assert lane.downtime_s == 30.0

    def test_recover_undoes_an_active_kv_pressure(self):
        """A crash inside a pressure window: the rebuilt lane comes back
        with its whole KV budget, not the shrunk one."""
        lane, _ = self.lane()
        capacity = lane.ledger.capacity_bytes
        lane.apply_kv_pressure(0.25)
        assert lane.ledger.capacity_bytes < capacity
        lane.fail_lane(10.0)
        lane.recover_lane(20.0)
        assert lane.health is LaneHealth.UP
        assert lane.kv_pressure_fraction == 1.0
        assert lane.ledger.capacity_bytes == lane.server.kv_budget_bytes == capacity

    def test_stall_freezes_clock(self):
        lane, _ = self.lane()
        before = lane.clock.now
        lane.stall(30.0)
        assert lane.clock.now == before + 30.0
        assert lane.stall_s == 30.0
        with pytest.raises(FaultError):
            lane.stall(0.0)

    def test_degrade_link_scales_bandwidth(self):
        lane, _ = self.lane()
        # Transfer time = fixed latency + bytes/bandwidth; difference the
        # two payload sizes to isolate the bandwidth term.
        def per_byte():
            return lane.link.transfer_time(2 << 20) - lane.link.transfer_time(1 << 20)
        nominal = per_byte()
        lane.degrade_link(0.25)
        assert lane.health is LaneHealth.DEGRADED
        assert per_byte() == pytest.approx(4 * nominal)
        lane.restore_link()
        assert lane.health is LaneHealth.UP
        assert per_byte() == pytest.approx(nominal)

    def test_kv_pressure_shrinks_and_evicts(self):
        lane, problem = self.lane()
        self.grown_session(lane, problem, segment_granular=False)
        resident = lane.ledger.resident_bytes
        assert resident > 0
        capacity = lane.ledger.capacity_bytes
        fraction = (resident / 2) / capacity
        evicted = lane.apply_kv_pressure(fraction)
        assert lane.health is LaneHealth.DEGRADED
        assert lane.ledger.capacity_bytes < capacity
        assert sum(b for _, b in evicted) > 0
        assert lane.ledger.resident_bytes <= lane.ledger.capacity_bytes
        lane.relieve_kv_pressure()
        assert lane.health is LaneHealth.UP
        assert lane.ledger.capacity_bytes == capacity


def crash_fleet(faults, recovery, *, devices=4, scheduler="fifo",
                requests=8, rate=0.05, deadline_s=100000.0, seed=0,
                retry_budget=3, max_lanes=None):
    dataset = build_dataset("amc23", seed=seed, size=requests)
    config = baseline_config(memory_fraction=0.4, seed=seed)
    fleet = TTSFleet(
        config, dataset, scheduler=scheduler,
        devices=["rtx4090"] * devices,
        faults=faults, recovery=recovery, retry_budget=retry_budget,
    )
    arrivals = PoissonProcess(rate_rps=rate).times(KeyedRng(seed), requests)
    problems = list(dataset)
    for problem, arrival in zip(problems, arrivals):
        fleet.submit(
            problem, build_algorithm("beam_search", 4),
            arrival_s=arrival, deadline_s=deadline_s,
        )
    return fleet.drain()


@pytest.fixture(scope="module")
def crash_baseline():
    return crash_fleet("off", "failover")


@pytest.fixture(scope="module")
def crash_at(crash_baseline):
    """Mid-flight instant of a correctly-answered request on lane 0.

    Goodput-under-deadline only counts *correct* completions, so the
    ordering acceptance test needs the crash to kill work that would
    have scored — losing a wrong answer leaves goodput untouched.
    """
    for record in crash_baseline.records:
        if crash_baseline.results[record.request_id].top1_correct:
            return (record.start_s + record.finish_s) / 2.0
    pytest.fail("baseline produced no correct answer to crash")


class TestRecoveryPolicyOrdering:
    """Acceptance: failover and retry strictly beat shed after a crash."""

    @pytest.fixture(scope="class")
    def reports(self, crash_at):
        spec = f"crash:at={crash_at},lane=0"
        return {
            policy: crash_fleet(spec, policy)
            for policy in ("failover", "retry", "shed")
        }

    def test_crash_hits_in_flight_work(self, reports):
        shed = reports["shed"].metrics
        assert shed.lane_failures == 1
        assert shed.requests_lost > 0

    def test_strictly_more_requests_recovered(self, reports):
        done = {p: r.metrics.completed for p, r in reports.items()}
        assert done["failover"] > done["shed"]
        assert done["retry"] > done["shed"]

    def test_availability_ordered(self, reports, crash_baseline):
        avail = {p: r.metrics.availability for p, r in reports.items()}
        assert avail["failover"] > avail["shed"]
        assert avail["retry"] > avail["shed"]
        assert avail["shed"] < crash_baseline.metrics.availability

    def test_goodput_under_deadline_ordered(self, reports):
        goodput = {
            p: r.slo_summary().goodput_ud_rps for p, r in reports.items()
        }
        assert goodput["failover"] > goodput["shed"]
        assert goodput["retry"] > goodput["shed"]

    def test_slo_summary_exposes_losses(self, reports):
        summary = reports["shed"].slo_summary()
        assert summary.requests_lost == reports["shed"].metrics.requests_lost
        assert summary.availability < 1.0
        assert "availability" in summary.table()

    def test_fault_accounting_on_records(self, reports):
        failover = reports["failover"]
        assert any(r.failed_over for r in failover.records)
        assert sum(r.redone_work_s for r in failover.records) > 0.0
        retry = reports["retry"]
        assert any(r.retries > 0 for r in retry.records)
        for record in reports["shed"].records:
            if record.lost:
                assert not record.accepted
                assert "crash" in record.reject_reason

    def test_report_labels(self, reports):
        assert reports["failover"].spec.recovery == "failover"
        assert reports["failover"].spec.faults.startswith("crash:")

    def test_same_spec_same_seed_identical_records(self, reports, crash_at):
        spec = f"crash:at={crash_at},lane=0"
        again = crash_fleet(spec, "retry")
        assert again.records == reports["retry"].records


class TestRetryExhaustion:
    def test_zero_budget_loses_request_terminally(self, crash_at):
        report = crash_fleet(
            f"crash:at={crash_at},lane=0", "retry", retry_budget=0
        )
        lost = [r for r in report.records if r.lost]
        assert lost
        assert all("retry budget" in r.reject_reason for r in lost)
        assert report.metrics.requests_lost == len(lost)


class TestMTTRAndSingleLane:
    def test_single_lane_crash_waits_for_repair(self, crash_at):
        """With one lane, failover can only wait out the MTTR window."""
        report = crash_fleet(
            f"crash:at={crash_at},lane=0,mttr=300", "failover", devices=1
        )
        m = report.metrics
        assert m.lane_failures == 1
        assert m.requests_lost == 0
        assert m.completed == m.requests
        assert m.mttr_s == pytest.approx(300.0, rel=0.2)
        lane = report.devices[0]
        assert lane.failures == 1 and lane.recoveries == 1
        assert lane.downtime_s > 0.0
        assert "down s" in report.device_table()

    def test_a_lane_down_at_the_end_counts_its_open_outage(self):
        """``down s`` is every second a lane was dead: one whose repair
        lands after the run's end was dead from its crash to that end.
        MTTR still averages completed repair windows only."""
        dataset = build_dataset("amc23", seed=0, size=6)
        fleet = TTSFleet(
            baseline_config(memory_fraction=0.4, seed=0), dataset,
            devices=["rtx4090"] * 2,
            faults="crash:at=20,lane=0,mttr=1000;crash:at=10,lane=1,mttr=5",
        )
        for i, problem in enumerate(dataset):
            fleet.submit(
                problem, build_algorithm("beam_search", 4), arrival_s=5.0 * i
            )
        report = fleet.drain()
        end = max(r.finish_s for r in report.records)
        dead, repaired = report.devices
        assert (dead.health, dead.failures, dead.recoveries) == ("down", 1, 0)
        assert dead.downtime_s == end - fleet.pool[0].failed_at_s > 0
        assert dead.repair_s == 0.0
        assert repaired.recoveries == 1
        assert repaired.downtime_s == repaired.repair_s == 5.0
        assert report.metrics.mttr_s == 5.0

    def test_permanent_single_lane_crash_loses_the_rest(self, crash_at):
        report = crash_fleet(
            f"crash:at={crash_at},lane=0", "failover", devices=1
        )
        m = report.metrics
        assert m.requests_lost > 0
        assert m.availability < 1.0
        assert m.completed + m.requests_lost == m.requests


class TestFirstFinishCrashSurvival:
    """A crash killing one replica must not fail the raced request."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return crash_fleet(
            "off", "failover", devices=2, scheduler="first_finish",
            requests=1,
        )

    def test_replicas_spread_across_lanes(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        fleet = TTSFleet(
            baseline_config(memory_fraction=0.4, seed=0), dataset,
            scheduler="first_finish", devices=["rtx4090"] * 2,
        )
        fleet.submit(
            list(dataset)[0], build_algorithm("beam_search", 4),
            arrival_s=0.0,
        )
        report = fleet.drain()
        assert report.records[0].replicas == 2
        # Both lanes advanced their clocks: the race really spanned them.
        assert all(lane.clock.now > 0.0 for lane in fleet.pool)

    @pytest.mark.parametrize("lane", [0, 1])
    def test_survives_either_replica_crash(self, baseline, lane):
        crash_time = baseline.records[0].finish_s / 2.0
        report = crash_fleet(
            f"crash:at={crash_time},lane={lane}", "failover",
            devices=2, scheduler="first_finish", requests=1,
        )
        record = report.records[0]
        assert record.accepted and not record.lost
        assert not record.failed_over  # the sibling survived: no restart
        assert report.results["req-0000"].beams

    def test_surviving_replica_serves_identical_answer(self, baseline):
        """Crash the losing lane: the winner's answer is untouched."""
        winner_lane = int(baseline.records[0].device_id.split(":")[0][3:])
        loser_lane = 1 - winner_lane
        crash_time = baseline.records[0].finish_s / 2.0
        report = crash_fleet(
            f"crash:at={crash_time},lane={loser_lane}", "failover",
            devices=2, scheduler="first_finish", requests=1,
        )
        record = report.records[0]
        assert record.accepted
        assert record.device_id == baseline.records[0].device_id
        base_beams = baseline.results["req-0000"].beams
        got_beams = report.results["req-0000"].beams
        assert [b.answer for b in got_beams] == [b.answer for b in base_beams]


class TestNonCrashFaults:
    def test_stall_inflates_makespan(self, crash_baseline, crash_at):
        stalled = crash_fleet(
            f"stall:at={crash_at},lane=0,duration=500", "failover"
        )
        assert (
            stalled.metrics.makespan_s
            > crash_baseline.metrics.makespan_s
        )
        assert stalled.metrics.completed == crash_baseline.metrics.completed
        assert any(d.stall_s == 500.0 for d in _lanes_of(stalled))

    def test_kv_pressure_charges_eviction_traffic(self):
        """A pressure spike on a loaded lane forces swap traffic."""
        dataset = build_dataset("amc23", seed=0, size=2)
        config = fasttts_config(memory_fraction=0.3, seed=0)
        base = TTSFleet(config, dataset, scheduler="round_robin")
        for problem, arrival in zip(dataset, (0.0, 1.0)):
            base.submit(
                problem, build_algorithm("beam_search", 16), arrival_s=arrival
            )
        base_report = base.drain()
        squeezed = TTSFleet(
            config, dataset, scheduler="round_robin",
            faults="kv_pressure:at=5,lane=0,fraction=0.4,duration=60",
        )
        for problem, arrival in zip(dataset, (0.0, 1.0)):
            squeezed.submit(
                problem, build_algorithm("beam_search", 16), arrival_s=arrival
            )
        squeezed_report = squeezed.drain()
        assert (
            squeezed_report.metrics.kv_swap_s > base_report.metrics.kv_swap_s
        )

    def test_link_degrade_slows_swap_traffic(self):
        dataset = build_dataset("amc23", seed=0, size=2)
        config = fasttts_config(memory_fraction=0.3, seed=0)
        def thrash(faults):
            fleet = TTSFleet(
                config, dataset, scheduler="round_robin", faults=faults
            )
            for problem, arrival in zip(dataset, (0.0, 1.0)):
                fleet.submit(
                    problem, build_algorithm("beam_search", 16), arrival_s=arrival
                )
            return fleet.drain()
        nominal = thrash("off")
        degraded = thrash("link_degrade:at=1,lane=0,factor=0.25")
        assert nominal.metrics.kv_swap_s > 0.0
        assert degraded.metrics.kv_swap_s > nominal.metrics.kv_swap_s


def _lanes_of(report):
    return report.devices


class TestRateBasedClauses:
    def test_sparse_rate_clause_does_not_outlive_the_run(self):
        """A Poisson clause is an infinite event stream; the drain must
        stop consuming it once no runnable lane or pending arrival
        remains (regression: the loop pumped trailing events forever)."""
        report = crash_fleet("stall:rate=0.0001,duration=20", "retry",
                             requests=4)
        assert report.metrics.completed == 4
        assert report.metrics.lane_failures == 0

    def test_dense_rate_crashes_recovered_deterministically(self):
        spec = "crash:rate=0.02,mttr=40"
        first = crash_fleet(spec, "failover", requests=4)
        second = crash_fleet(spec, "failover", requests=4)
        assert first.records == second.records
        assert first.metrics.lane_failures > 0


class TestFaultsOffIdentity:
    def test_off_is_default_byte_identical(self):
        explicit = crash_fleet("off", "failover")
        default = crash_fleet("off", "failover")
        assert explicit.records == default.records
        assert explicit.spec.faults == "off"

    def test_bad_recovery_rejected(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        with pytest.raises(ConfigError):
            TTSFleet(
                baseline_config(memory_fraction=0.4), dataset,
                recovery="pray",
            )

    def test_cli_rejects_malformed_spec(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--faults", "crash:at="]) == 2
        assert "--faults" in capsys.readouterr().err

    def test_cli_rejects_unknown_fault_in_trace(self, capsys):
        from repro.cli import main

        assert main(["trace", "run", "--faults", "wobble:at=1"]) == 2
        assert "unknown fault type 'wobble'" in capsys.readouterr().err
