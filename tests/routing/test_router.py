"""Tests for the routing-policy registry and per-policy behavior."""

import pytest

from repro.core.config import baseline_config
from repro.core.fleet import TTSFleet
from repro.errors import ConfigError
from repro.routing import (
    ROUTERS,
    CascadeRouter,
    PredictedRouter,
    StaticRouter,
    parse_lane_list,
)
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.datasets import build_dataset

HETERO = "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8"
BIG_CLASS = "qwen2.5-math-7b+skywork-o1-prm-1.5b"
SMALL_CLASS = "qwen2.5-math-1.5b-int8+skywork-o1-prm-1.5b-int8"


def run_fleet(router, size=8, rate=0.05, n=4, lanes=HETERO, seed=0):
    dataset = build_dataset("amc23", seed=seed, size=size)
    config = baseline_config(memory_fraction=0.9, seed=seed)
    fleet = TTSFleet(
        config, dataset,
        lanes=parse_lane_list(lanes),
        router=router,
        placement="least_loaded",
    )
    arrivals = PoissonProcess(rate_rps=rate).times(KeyedRng(seed), size)
    for problem, arrival in zip(dataset, arrivals):
        fleet.submit(problem, build_algorithm("beam_search", n), arrival_s=arrival)
    return fleet.drain()


class TestRegistry:
    def test_list(self):
        assert ROUTERS.names() == ["cascade", "predicted", "static"]

    def test_descriptions_cover_all(self):
        descriptions = ROUTERS.descriptions()
        assert set(descriptions) == set(ROUTERS.names())
        assert all(descriptions.values())

    def test_build(self):
        assert isinstance(ROUTERS.build("static"), StaticRouter)
        assert isinstance(ROUTERS.build("predicted"), PredictedRouter)
        assert isinstance(ROUTERS.build("cascade"), CascadeRouter)

    def test_unknown_name_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'cascade'"):
            ROUTERS.build("cascde")
        with pytest.raises(ConfigError, match="registered: cascade"):
            ROUTERS.build("nonsense")

    def test_kwargs_forwarded(self):
        router = ROUTERS.build("cascade", verify_threshold=0.9)
        assert router.verify_threshold == 0.9

    def test_bad_thresholds(self):
        with pytest.raises(ConfigError):
            StaticRouter(threshold=1.5)
        with pytest.raises(ConfigError):
            PredictedRouter(threshold=0.0)
        with pytest.raises(ConfigError):
            CascadeRouter(verify_threshold=0.0)


class TestFleetWiring:
    def test_router_property(self):
        dataset = build_dataset("amc23", seed=0, size=2)
        config = baseline_config(memory_fraction=0.9, seed=0)
        fleet = TTSFleet(config, dataset, router="static")
        assert fleet.spec.router == "static"
        assert TTSFleet(config, dataset).spec.router == "off"
        assert TTSFleet(config, dataset, router=None).spec.router == "off"

    def test_router_instance_accepted(self):
        dataset = build_dataset("amc23", seed=0, size=2)
        config = baseline_config(memory_fraction=0.9, seed=0)
        fleet = TTSFleet(config, dataset, router=CascadeRouter())
        assert fleet.spec.router == "cascade"

    def test_class_order_cheapest_first(self):
        dataset = build_dataset("amc23", seed=0, size=2)
        config = baseline_config(memory_fraction=0.9, seed=0)
        router = CascadeRouter()
        fleet = TTSFleet(
            config, dataset, lanes=parse_lane_list(HETERO), router=router,
        )
        lanes = list(fleet.pool)
        # The cascade starts on the cheapest class and escalates to the next.
        (small,) = router.route(None, lanes, 0.0)
        assert small.lane_class == SMALL_CLASS
        (big,) = router.escalate_lanes(None, small.model_cost_bytes, lanes)
        assert big.lane_class == BIG_CLASS
        assert router.escalate_lanes(None, big.model_cost_bytes, lanes) == []

    def test_unknown_router_name_at_fleet(self):
        dataset = build_dataset("amc23", seed=0, size=2)
        config = baseline_config(memory_fraction=0.9, seed=0)
        with pytest.raises(ConfigError, match="unknown router"):
            TTSFleet(config, dataset, router="bogus")


class TestStaticRouter:
    def test_splits_by_difficulty_rank(self):
        report = run_fleet(StaticRouter(threshold=0.5))
        decisions = report.router_decisions()
        # Both classes see traffic, split at the rank threshold.
        assert decisions.get(BIG_CLASS, 0) > 0
        assert decisions.get(SMALL_CLASS, 0) > 0
        assert sum(decisions.values()) == len(report.records)

    def test_threshold_one_sends_everything_small(self):
        report = run_fleet(StaticRouter(threshold=1.0))
        assert report.router_decisions() == {SMALL_CLASS: 8}

    def test_threshold_zero_sends_everything_big(self):
        report = run_fleet(StaticRouter(threshold=0.0))
        assert report.router_decisions() == {BIG_CLASS: 8}

    def test_report_labels_router(self):
        report = run_fleet("static")
        assert report.spec.router == "static"
        for record in report.records:
            assert record.routed_class in (BIG_CLASS, SMALL_CLASS)


class TestPredictedRouter:
    def test_profile_pass_routes_by_predicted_rounds(self):
        low = run_fleet(PredictedRouter(threshold=0.05)).router_decisions()
        high = run_fleet(PredictedRouter(threshold=1.0)).router_decisions()
        # A tiny round threshold calls everything hard; raising it to the
        # full round cap reclassifies the shorter searches as easy (many
        # amc23 searches legitimately run to the cap, so some stay big).
        assert low == {BIG_CLASS: 8}
        assert high.get(SMALL_CLASS, 0) > 0
        assert high.get(BIG_CLASS, 0) < 8

    def test_predictions_memoized(self):
        router = PredictedRouter(threshold=0.5)
        run_fleet(router)
        memo_size = len(router._memo)
        assert memo_size > 0
        # Same problems again: no new profile passes.
        run_fleet(router)
        assert len(router._memo) == memo_size


class TestCascadeRouter:
    def test_all_requests_start_small(self):
        report = run_fleet(CascadeRouter())
        assert report.router_decisions() == {SMALL_CLASS: 8}

    def test_low_confidence_escalates_to_big(self):
        report = run_fleet(CascadeRouter())
        escalated = [r for r in report.records if r.escalations]
        assert escalated, "expected at least one escalation on amc23"
        for record in escalated:
            assert record.routed_class == SMALL_CLASS
            assert record.lane_class == BIG_CLASS
            assert record.escalated_work_s > 0
        rollup = {s.lane_class: s for s in report.lane_classes()}
        assert rollup[BIG_CLASS].escalated_in == len(escalated)

    def test_threshold_zero_epsilon_never_escalates(self):
        report = run_fleet(CascadeRouter(verify_threshold=1e-9))
        assert report.metrics.escalations == 0
        assert all(r.lane_class == SMALL_CLASS for r in report.records)

    def test_homogeneous_pool_has_nowhere_to_escalate(self):
        report = run_fleet(
            CascadeRouter(),
            lanes="1.5B+1.5B@rtx4090:int8,1.5B+1.5B@rtx4090:int8",
        )
        assert report.metrics.escalations == 0
        assert report.metrics.completed == len(report.records)
