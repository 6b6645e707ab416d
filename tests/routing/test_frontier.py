"""The accuracy-vs-cost frontier, honest escalation billing, and composition.

The tentpole acceptance: on a mixed-difficulty workload a routed
heterogeneous pool (one big-model lane + one quantized small-model lane
under the cascade router) must Pareto-dominate both homogeneous pools —
accuracy within a point of all-big at strictly lower mean latency, and
strictly more accurate than all-small. Escalations bill the abandoned
cheap attempt through the ledger (no silently free re-prefill), and the
router composes with KV sharing, batching, and fault injection without
double-billing redone work.
"""

import pytest

from repro.core.config import baseline_config
from repro.core.fleet import TTSFleet
from repro.routing import CascadeRouter, parse_lane_list
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.datasets import build_dataset

BIG = "7B+1.5B@rtx4090,7B+1.5B@rtx4090"
SMALL = "1.5B+1.5B@rtx4090:int8,1.5B+1.5B@rtx4090:int8"
HETERO = "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8"


def run_pool(lanes, router="off", size=20, rate=0.05, n=4, seed=0, **kwargs):
    dataset = build_dataset("amc23", seed=seed, size=size)
    config = baseline_config(memory_fraction=0.9, seed=seed)
    fleet = TTSFleet(
        config, dataset,
        lanes=parse_lane_list(lanes),
        router=router,
        placement="least_loaded",
        **kwargs,
    )
    arrivals = PoissonProcess(rate_rps=rate).times(KeyedRng(seed), size)
    for problem, arrival in zip(dataset, arrivals):
        fleet.submit(problem, build_algorithm("beam_search", n), arrival_s=arrival)
    return fleet.drain()


@pytest.fixture(scope="module")
def frontier():
    return {
        "all-big": run_pool(BIG).frontier_point("all-big"),
        "all-small": run_pool(SMALL).frontier_point("all-small"),
        "routed": run_pool(HETERO, router="cascade").frontier_point("routed"),
    }


class TestFrontier:
    def test_routed_matches_big_accuracy_within_a_point(self, frontier):
        routed, big = frontier["routed"], frontier["all-big"]
        assert routed.accuracy >= big.accuracy - 0.01

    def test_routed_strictly_faster_than_big(self, frontier):
        routed, big = frontier["routed"], frontier["all-big"]
        assert routed.latency_mean_s < big.latency_mean_s

    def test_routed_strictly_beats_small_accuracy(self, frontier):
        routed, small = frontier["routed"], frontier["all-small"]
        assert routed.accuracy > small.accuracy

    def test_no_homogeneous_pool_dominates_routed(self, frontier):
        routed = frontier["routed"]
        assert not frontier["all-big"].dominates(
            routed, accuracy_tolerance=0.01
        )
        assert not frontier["all-small"].dominates(
            routed, accuracy_tolerance=0.01
        )

    def test_quantized_small_pool_is_cheapest(self, frontier):
        assert (
            frontier["all-small"].device_time_mean_s
            < frontier["all-big"].device_time_mean_s
        )


class TestHonestBilling:
    def test_escalated_work_billed_not_free(self):
        report = run_pool(HETERO, router="cascade")
        escalated = [r for r in report.records if r.escalations]
        assert escalated, "expected escalations on amc23 at n=4"
        for record in escalated:
            # The abandoned cheap attempt's device seconds ride on top of
            # the committed attempt's — never silently dropped.
            assert record.escalated_work_s > 0
            assert record.device_time_s > record.escalated_work_s
        metrics = report.metrics
        assert metrics.escalations == sum(r.escalations for r in escalated)
        assert metrics.escalated_work_s == pytest.approx(
            sum(r.escalated_work_s for r in report.records)
        )

    def test_unescalated_records_bill_nothing_extra(self):
        report = run_pool(HETERO, router="cascade")
        for record in report.records:
            if not record.escalations:
                assert record.escalated_work_s == 0.0

    def test_escalation_composes_with_sharing_and_batching(self):
        for kwargs in ({"kv_sharing": "prefix"}, {"batching": "continuous"}):
            report = run_pool(HETERO, router="cascade", **kwargs)
            assert report.metrics.completed == len(report.records)
            assert report.metrics.escalations > 0


class TestFaultComposition:
    def test_crash_and_escalation_never_double_bill(self):
        # Crash the cheap lane mid-run: crash-voided work lands in
        # redone_work_s, escalation-abandoned work in escalated_work_s —
        # disjoint by construction, both inside device_time_s. The 12
        # arrivals run to t=199 s; mttr=100 brings the cheap lane back at
        # t=130 s, before the last four arrive, so those can route to it
        # and escalate (a repair after the last arrival leaves every
        # later request failing over to the big lane, with nothing to
        # escalate).
        report = run_pool(
            HETERO, router="cascade", size=12,
            faults="crash:at=30,lane=1,mttr=100", recovery="failover",
        )
        metrics = report.metrics
        assert metrics.completed + metrics.requests_lost == len(report.records)
        for record in report.records:
            if record.device_time_s is None:
                continue
            overhead = record.redone_work_s + record.escalated_work_s
            assert record.device_time_s >= overhead
        # Both overheads are present: the crash voided work, and the run
        # still escalates despite the crash.
        assert any(r.redone_work_s > 0 for r in report.records)
        assert metrics.escalations > 0

    def test_router_survives_failover_routing(self):
        report = run_pool(
            HETERO, router="static", size=12,
            faults="crash:at=30,lane=0,mttr=200", recovery="failover",
        )
        assert report.metrics.completed + report.metrics.requests_lost == len(
            report.records
        )


class TestRouterOffIdentity:
    def test_router_off_is_byte_identical_to_no_router(self):
        dataset = build_dataset("amc23", seed=0, size=6)
        config = baseline_config(memory_fraction=0.4, seed=0)
        arrivals = PoissonProcess(rate_rps=0.05).times(KeyedRng(0), 6)

        def run(**kwargs):
            fleet = TTSFleet(config, dataset, **kwargs)
            for problem, arrival in zip(dataset, arrivals):
                fleet.submit(
                    problem, build_algorithm("beam_search", 4), arrival_s=arrival
                )
            return fleet.drain()

        base = run()
        spelled = run(router="off")
        assert spelled.records == base.records
        assert spelled.spec.router == base.spec.router == "off"
