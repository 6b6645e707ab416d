"""Tests for the multi-request fleet serving loop."""

import dataclasses
import inspect
import json
import math
from bisect import bisect_right

import pytest

from repro.cli import main
from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import FleetRequest, TTSFleet, _FleetRun, run_trace
from repro.core.fleet_spec import FleetSpec
from repro.core.scheduler import FirstFinishScheduler
from repro.errors import ConfigError
from repro.metrics.fleet import FleetMetrics, FleetRequestRecord
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import UniformProcess
from repro.workloads.datasets import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("amc23", seed=0, size=3)


def _drain(dataset, rate_rps, n=4, fast=False, **fleet_kwargs):
    factory = fasttts_config if fast else baseline_config
    config = factory(memory_fraction=0.4, seed=0)
    fleet = TTSFleet(config, dataset, **fleet_kwargs)
    algorithm = build_algorithm("beam_search", n)
    arrivals = UniformProcess(rate_rps=rate_rps).times(KeyedRng(0), len(dataset))
    for problem, arrival in zip(dataset, arrivals):
        fleet.submit(problem, algorithm, arrival_s=arrival)
    return fleet.drain()


class TestFleetServing:
    def test_fifo_records_are_consistent(self, dataset):
        report = _drain(dataset, rate_rps=0.05)
        assert len(report.records) == len(dataset)
        finish = 0.0
        for record in report.records:
            assert record.accepted
            assert record.start_s >= record.arrival_s
            assert record.start_s >= finish  # one device, FIFO
            finish = record.finish_s
            assert record.request_id in report.results

    def test_service_time_matches_solve_latency(self, dataset):
        report = _drain(dataset, rate_rps=0.001)  # no queueing at this rate
        for record in report.records:
            result = report.results[record.request_id]
            assert record.service_s == pytest.approx(result.latency.total)

    def test_queueing_delay_monotone_in_load(self, dataset):
        slow = _drain(dataset, rate_rps=0.001).metrics
        fast = _drain(dataset, rate_rps=0.05).metrics
        saturated = _drain(dataset, rate_rps=1.0).metrics
        assert slow.queue_delay_p95_s <= fast.queue_delay_p95_s <= saturated.queue_delay_p95_s
        assert slow.queue_delay_mean_s <= fast.queue_delay_mean_s
        assert saturated.queue_delay_mean_s > 0.0

    def test_deterministic(self, dataset):
        a = _drain(dataset, rate_rps=0.05)
        b = _drain(dataset, rate_rps=0.05)
        assert a.records == b.records

    def test_fasttts_fleet_runs(self, dataset):
        report = _drain(dataset, rate_rps=0.05, fast=True)
        assert report.metrics.completed == len(dataset)
        assert report.metrics.busy_fraction > 0.0


class TestAdmissionControl:
    def test_queue_depth_rejection(self, dataset):
        open_fleet = _drain(dataset, rate_rps=1.0).metrics
        capped = _drain(dataset, rate_rps=1.0, max_in_flight=1)
        assert open_fleet.rejected == 0
        assert capped.metrics.rejected >= 1
        reasons = [r.reject_reason for r in capped.records if not r.accepted]
        assert all("queue full" in reason for reason in reasons)

    def test_kv_budget_rejection(self, dataset):
        # 0.27 of a 4090 admits the 1.5B+1.5B weights (~5.7 GB) but leaves
        # less KV than one worst-case path needs — admission must reject.
        config = baseline_config(memory_fraction=0.27, seed=0)
        fleet = TTSFleet(config, dataset)
        fleet.submit(list(dataset)[0], build_algorithm("beam_search", 4), 0.0)
        report = fleet.drain()
        assert report.metrics.rejected == 1
        assert "KV budget" in report.records[0].reject_reason

    def test_in_flight_count_matches_a_scan_of_the_records(self, monkeypatch):
        """The sorted finish times admission bisects count exactly the
        accepted records still in flight at each admission, which a scan
        of every terminal record counts: ties at the admission instant are
        not in flight, rejections never are."""
        seen = []
        real_admit = _FleetRun.admit

        def admit(run, seq, request, now):
            accepted = [r.finish_s for r in run.records.values() if r.accepted]
            assert run.accepted_finishes == sorted(accepted)
            scan = sum(1 for finish in accepted if finish > now)
            since_arrival = sum(
                1 for finish in accepted if finish > request.arrival_s
            )
            finishes = run.accepted_finishes
            seen.append(
                (scan, len(finishes) - bisect_right(finishes, now), since_arrival)
            )
            return real_admit(run, seq, request, now)

        monkeypatch.setattr(_FleetRun, "admit", admit)
        # A crashed request's retry is re-admitted after its first
        # arrival, so records settled in between must not count.
        report = _drain(
            build_dataset("amc23", seed=0, size=12), rate_rps=0.3,
            devices=["rtx4090"] * 2, placement="least_loaded", max_in_flight=4,
            faults="crash:at=20,lane=0,mttr=10;crash:at=40,lane=1,mttr=10",
            recovery="retry", retry_budget=2,
        )
        assert report.metrics.rejected >= 1
        assert len(seen) > 12  # the retries' re-admissions
        assert all(scan == bisected for scan, bisected, _ in seen)
        # Some re-admission comes after records that settled since its
        # arrival, and those are not in flight.
        assert any(since > scan for scan, _, since in seen)

    def test_in_flight_excludes_a_finish_at_the_arrival(self, dataset):
        fleet = TTSFleet(baseline_config(memory_fraction=0.4), dataset, max_in_flight=2)
        request = FleetRequest(
            "req-0000", list(dataset)[0], build_algorithm("beam_search", 4), 2.0
        )
        reason, _ = fleet._admission(request, 2.0, [1.0, 2.0, 2.0, 3.0], 0)
        assert reason is None  # only the 3.0 finish is in flight
        reason, _ = fleet._admission(request, 2.0, [1.0, 2.5, 3.0], 0)
        assert reason == "queue full (max_in_flight=2)"

    def test_a_retry_counts_what_is_in_flight_when_it_is_readmitted(self, capsys):
        """A crash retry is re-admitted at its lane's repair, not at its
        arrival: requests that finished in between free their places.
        req-0003 (arrival 10 s, re-admitted 21 s) and req-0005 were
        refused while finished requests still counted against the cap."""
        main([
            "fleet", "--system", "baseline", "--devices", "rtx4090,rtx4090",
            "--placement", "least_loaded", "--max-in-flight", "4",
            "--faults", "crash:at=20,lane=0,mttr=10;crash:at=40,lane=1,mttr=10",
            "--recovery", "retry", "--requests", "12", "--rate", "0.3",
            "--arrivals", "uniform", "-n", "4", "--dataset", "amc23",
        ])
        rejected = [
            line.split()[1].rstrip(":")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("rejected ")
        ]
        assert rejected == ["req-0004", "req-0007", "req-0008", "req-0010"]

    def test_max_in_flight_validated(self, dataset):
        with pytest.raises(ConfigError, match="max_in_flight"):
            TTSFleet(baseline_config(memory_fraction=0.4), dataset, max_in_flight=0)


class TestFleetSpec:
    """One spec carries serving policy: reports are self-describing."""

    SPEC = FleetSpec(
        scheduler="round_robin", placement="least_loaded",
        devices="rtx4090,rtx4090", kv_sharing="prefix", max_in_flight=4,
        faults="stall:at=5,lane=1,duration=2", recovery="retry", retry_budget=1,
    )

    def test_report_carries_the_spec_the_fleet_was_built_from(self, dataset):
        config = baseline_config(memory_fraction=0.4, seed=0)
        fleet = TTSFleet(config, dataset, self.SPEC)
        fleet.submit(list(dataset)[0], build_algorithm("beam_search", 4), 0.0)
        assert fleet.spec is self.SPEC
        assert fleet.drain().spec is self.SPEC

    def test_keyword_axes_are_shorthand_for_the_spec(self, dataset):
        config = baseline_config(memory_fraction=0.4, seed=0)
        axes = {
            axis.name: getattr(self.SPEC, axis.name)
            for axis in dataclasses.fields(self.SPEC)
        }
        assert TTSFleet(config, dataset, **axes).spec == self.SPEC
        with pytest.raises(ConfigError, match="not both"):
            TTSFleet(config, dataset, self.SPEC, recovery="shed")

    def test_injected_policy_instance_is_recorded_by_name(self, dataset):
        scheduler = FirstFinishScheduler(replicas=2)
        fleet = TTSFleet(
            baseline_config(memory_fraction=0.4), dataset, scheduler=scheduler
        )
        assert fleet.scheduler is scheduler
        assert fleet.spec.scheduler == "first_finish"

    def test_spec_is_json_ready(self):
        """``asdict`` needs no custom encoder: str / int / None leaves only
        (a lane's optional ``mem=`` fraction would be the one float)."""
        hetero = dataclasses.replace(
            self.SPEC, devices=None, lanes="7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8"
        )

        def leaves(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [leaf for child in node for leaf in leaves(child)]
            return [node]

        for spec in (FleetSpec(), self.SPEC, hetero):
            plain = json.loads(json.dumps(dataclasses.asdict(spec)))
            assert set(plain) == {axis.name for axis in dataclasses.fields(spec)}
            assert all(isinstance(x, (str, int, type(None))) for x in leaves(plain))
            assert plain["devices"] == (list(spec.devices) if spec.devices else None)

    def test_canonical_forms_compare_equal(self):
        assert FleetSpec(devices="rtx4090, rtx4070ti") == FleetSpec(
            devices=["rtx4090", "rtx4070ti"]
        )
        assert FleetSpec(router=None) == FleetSpec() == FleetSpec(faults=" ")

    def test_fault_pinned_past_the_pool_fails_at_construction(self, dataset):
        config = baseline_config(memory_fraction=0.4)
        with pytest.raises(ConfigError, match="pins lane 7"):
            TTSFleet(config, dataset, faults="crash:at=1,lane=7")

    def test_removed_options_are_gone(self, dataset):
        config = baseline_config(memory_fraction=0.4)
        with pytest.raises(TypeError, match="retry_backoff_s"):
            TTSFleet(config, dataset, retry_backoff_s=2.0)
        # ... and run_trace forwards axes instead of mirroring them.
        assert list(inspect.signature(run_trace).parameters) == [
            "trace", "config", "axes"
        ]


class TestFleetMetrics:
    def test_aggregate_requires_records(self):
        with pytest.raises(ValueError):
            FleetMetrics.aggregate([])

    def test_all_rejected_degenerates_cleanly(self):
        records = [
            FleetRequestRecord(
                request_id="req-0000", arrival_s=0.0, start_s=0.0, finish_s=0.0,
                accepted=False, reject_reason="queue full",
            )
        ]
        metrics = FleetMetrics.aggregate(records)
        assert metrics.completed == 0
        assert metrics.throughput_rps == 0.0
        assert metrics.busy_fraction == 0.0

    def test_record_validation(self):
        with pytest.raises(ValueError):
            FleetRequestRecord(
                request_id="r", arrival_s=5.0, start_s=4.0, finish_s=6.0
            )

    def test_request_validation(self, dataset):
        with pytest.raises(ValueError):
            FleetRequest(
                request_id="r", problem=list(dataset)[0],
                algorithm=build_algorithm("beam_search", 4), arrival_s=-1.0,
            )

    @pytest.mark.parametrize(
        "times",
        [
            {"arrival_s": math.nan},
            {"arrival_s": math.inf},
            {"arrival_s": 0.0, "deadline_s": math.nan},
            {"arrival_s": 0.0, "ttft_slo_s": math.inf},
        ],
        ids=["arrival-nan", "arrival-inf", "deadline-nan", "ttft-inf"],
    )
    def test_non_finite_request_times_rejected(self, dataset, times):
        with pytest.raises(ValueError, match="must be finite"):
            FleetRequest(
                request_id="r", problem=list(dataset)[0],
                algorithm=build_algorithm("beam_search", 4), **times,
            )
