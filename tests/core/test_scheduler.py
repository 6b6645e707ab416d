"""Tests for the pluggable request schedulers driving TTSFleet.

``fifo`` must reproduce the pre-refactor run-to-completion fleet byte for
byte (``tests/goldens/fleet_fifo_goldens.json``); the non-FIFO policies
must honour their contracts: SJF/round-robin improve queueing behaviour
under contention, and First-Finish racing never returns a worse answer
than FIFO on the same seed.
"""

import json
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet, _RunnableIndex
from repro.core.fleet_spec import FleetSpec
from repro.core.scheduler import (
    SCHEDULERS,
    FirstFinishScheduler,
    SessionHandle,
    predict_cost,
)
from repro.core.server import TTSServer
from repro.errors import ConfigError
from repro.metrics.fleet import compare_policies
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.datasets import build_dataset

GOLDENS = json.loads(
    (Path(__file__).parent.parent / "goldens" / "fleet_fifo_goldens.json").read_text()
)


def drain(policy, rate, size=5, n=4, seed=0, fast=False, max_in_flight=None):
    factory = fasttts_config if fast else baseline_config
    dataset = build_dataset("amc23", seed=seed, size=size)
    fleet = TTSFleet(
        factory(memory_fraction=0.4, seed=seed), dataset,
        max_in_flight=max_in_flight, scheduler=policy,
    )
    arrivals = PoissonProcess(rate_rps=rate).times(KeyedRng(seed), size)
    for problem, arrival in zip(dataset, arrivals):
        fleet.submit(problem, build_algorithm("beam_search", n), arrival_s=arrival)
    return fleet.drain()


def answer_signature(result):
    """Search outcome only — scheduling may shift timing, never answers."""
    return sorted(
        (b.lineage, b.tokens, b.answer, b.correct, b.score) for b in result.beams
    )


def record_dict(record):
    return {
        "request_id": record.request_id,
        "arrival_s": record.arrival_s,
        "start_s": record.start_s,
        "finish_s": record.finish_s,
        "accepted": record.accepted,
        "reject_reason": record.reject_reason,
        "latency": record.latency.to_json_dict() if record.latency else None,
    }


class TestRegistry:
    def test_all_policies_registered(self):
        assert SCHEDULERS.names() == [
            "fifo", "first_finish", "prefix_affinity", "round_robin", "sjf"
        ]

    def test_descriptions_cover_every_policy(self):
        assert set(SCHEDULERS.descriptions()) == set(SCHEDULERS.names())
        assert all(SCHEDULERS.descriptions().values())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            SCHEDULERS.build("priority")

    def test_ffs_replica_validation(self):
        with pytest.raises(ConfigError):
            FirstFinishScheduler(replicas=0)

    def test_ffs_threshold_validation(self):
        with pytest.raises(ConfigError):
            FirstFinishScheduler(verify_threshold=0.0)
        with pytest.raises(ConfigError):
            FirstFinishScheduler(verify_threshold=1.5)


GOLDEN_RUNS = (
    ("open-slow", 0.005, None),
    ("open-busy", 0.05, None),
    ("capped-saturated", 1.0, 2),
)
#: How the golden fleet is constructed: no axis given, or every
#: ``FleetSpec`` field passed explicitly at its default.
CONSTRUCTIONS = ("default", "explicit")
SPEC_DEFAULTS = {axis.name: axis.default for axis in fields(FleetSpec)}


class TestFifoGoldens:
    """The default spec reproduces the pre-refactor TTSFleet exactly —
    however it is spelled."""

    @pytest.mark.parametrize(
        "label, rate, max_in_flight, construction",
        [
            # The no-axis cells keep the ids they had before the
            # construction dimension joined them.
            pytest.param(
                *run, how,
                id="-".join(map(str, run)) + ("" if how == "default" else f"-{how}"),
            )
            for run in GOLDEN_RUNS
            for how in CONSTRUCTIONS
        ],
    )
    def test_records_and_results_match_golden(
        self, label, rate, max_in_flight, construction
    ):
        dataset = build_dataset("amc23", seed=0, size=5)
        config = baseline_config(memory_fraction=0.4, seed=0)
        if construction == "default":
            fleet = TTSFleet(config, dataset, max_in_flight=max_in_flight)
        else:
            fleet = TTSFleet(
                config, dataset, **SPEC_DEFAULTS | {"max_in_flight": max_in_flight}
            )
        arrivals = PoissonProcess(rate_rps=rate).times(KeyedRng(0), 5)
        for problem, arrival in zip(dataset, arrivals):
            fleet.submit(
                problem, build_algorithm("beam_search", 4), arrival_s=arrival
            )
        report = fleet.drain()
        golden = GOLDENS[label]
        assert [record_dict(r) for r in report.records] == golden["records"]
        produced = {
            rid: res.to_json_dict() for rid, res in sorted(report.results.items())
        }
        assert produced == golden["results"]

    def test_default_spec_equals_every_default_spelled_out(self):
        assert FleetSpec() == FleetSpec(**SPEC_DEFAULTS)

    def test_fifo_is_the_default(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        fleet = TTSFleet(baseline_config(memory_fraction=0.4), dataset)
        assert fleet.scheduler.name == "fifo"


class TestSjf:
    def test_improves_mean_queueing_under_contention(self):
        fifo = drain("fifo", rate=0.2, size=8, fast=True).metrics
        sjf = drain("sjf", rate=0.2, size=8, fast=True).metrics
        assert sjf.queue_delay_mean_s < fifo.queue_delay_mean_s
        assert sjf.latency_mean_s < fifo.latency_mean_s

    def test_same_answers_as_fifo(self):
        fifo = drain("fifo", rate=0.2, size=8, fast=True)
        sjf = drain("sjf", rate=0.2, size=8, fast=True)
        for rid, result in fifo.results.items():
            assert answer_signature(sjf.results[rid]) == answer_signature(result)

    def test_predict_cost_deterministic(self):
        dataset = build_dataset("amc23", seed=0, size=2)
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        algo = build_algorithm("beam_search", 4)
        problem = list(dataset)[0]
        a = predict_cost(server, problem, algo)
        b = predict_cost(server, problem, algo)
        assert a == b
        assert a[0] >= 1 and a[1] > 0


class TestRoundRobin:
    def test_improves_p95_queueing_delay(self):
        fifo = drain("fifo", rate=0.2, size=8, fast=True).metrics
        rr = drain("round_robin", rate=0.2, size=8, fast=True).metrics
        assert rr.queue_delay_p95_s < fifo.queue_delay_p95_s
        assert rr.queue_delay_mean_s < fifo.queue_delay_mean_s

    def test_interleaving_keeps_busy_fraction_physical(self):
        rr = drain("round_robin", rate=1.0, size=6, fast=True).metrics
        assert 0.0 < rr.busy_fraction <= 1.0

    def test_same_answers_as_fifo(self):
        fifo = drain("fifo", rate=0.2, size=8, fast=True)
        rr = drain("round_robin", rate=0.2, size=8, fast=True)
        for rid, result in fifo.results.items():
            assert answer_signature(rr.results[rid]) == answer_signature(result)

    def test_deterministic(self):
        a = drain("round_robin", rate=0.2, size=4, fast=True)
        b = drain("round_robin", rate=0.2, size=4, fast=True)
        assert a.records == b.records


class TestFirstFinish:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_never_worse_than_fifo_on_same_seed(self, seed):
        """Property: FFS cancellation never degrades the served answer."""
        fifo = drain("fifo", rate=0.2, size=4, seed=seed, fast=True)
        ffs = drain("first_finish", rate=0.2, size=4, seed=seed, fast=True)
        assert set(ffs.results) == set(fifo.results)
        for rid, fifo_result in fifo.results.items():
            assert ffs.results[rid].top1_correct >= fifo_result.top1_correct

    def test_cancelled_work_accounted(self):
        report = drain("first_finish", rate=0.2, size=4, fast=True)
        metrics = report.metrics
        scheduler = SCHEDULERS.build("first_finish")
        assert metrics.sessions == metrics.completed * scheduler.replicas
        assert metrics.cancelled_work_s > 0.0
        assert all(r.replicas == scheduler.replicas
                   for r in report.records if r.accepted)
        # device-time accounting: racing replicas never push the one
        # simulated device beyond full utilization
        assert 0.0 < metrics.busy_fraction <= 1.0
        for record in report.records:
            if record.accepted:
                assert record.device_time_s == pytest.approx(
                    record.latency.total + record.cancelled_work_s
                )

    def test_unverified_race_falls_back_to_canonical(self):
        """Requests FIFO answers incorrectly are never answered worse."""
        fifo = drain("fifo", rate=0.2, size=4, fast=True)
        ffs = drain("first_finish", rate=0.2, size=4, fast=True)
        for rid, result in fifo.results.items():
            if not result.top1_correct and not ffs.results[rid].top1_correct:
                # fell back to the canonical replica: identical search
                assert answer_signature(ffs.results[rid]) == answer_signature(result)


@st.composite
def backlogs(draw):
    """One lane's live handles, as the fleet can hold them.

    Arrival times tie across requests, some requests re-arrived after a
    retry or failover (later arrival, earlier seq), racing replicas share
    their request's arrival and may have lost a sibling to a crash, and
    stepped handles carry distinct turn counters.
    """
    turns = iter(draw(st.permutations(range(64))))
    handles = []
    for seq in range(draw(st.integers(1, 6))):
        arrival = draw(st.sampled_from([0.0, 1.0, 2.5]))
        if draw(st.booleans()):
            arrival += draw(st.sampled_from([3.0, 10.0]))
        problem = SimpleNamespace(problem_id=draw(st.integers(0, 2)))
        alive = draw(st.sets(st.integers(0, 2), min_size=1))
        for replica in sorted(alive):
            stepped = draw(st.booleans())
            handles.append(SessionHandle(
                arrival_s=arrival, seq=seq, replica=replica,
                session=SimpleNamespace(
                    session_id=f"req-{seq:04d}/r{replica}", problem=problem
                ),
                start_s=arrival if stepped else None,
                last_stepped=next(turns) if stepped else -1,
                predicted_cost=(draw(st.integers(1, 3)), draw(st.integers(1, 9))),
            ))
    return handles


def first_finish_scan(runnable):
    front = min(runnable, key=lambda h: (h.arrival_s, h.seq, h.replica))
    race = [h for h in runnable if h.seq == front.seq]
    return min(race, key=lambda h: (h.last_stepped, h.replica))


#: Every policy that declares an ``order_key``, with the ``pick`` it had
#: when it keyed the whole backlog itself — the reference it must agree with.
ORDER_KEYED = {
    "fifo": lambda runnable: min(
        runnable, key=lambda h: (h.arrival_s, h.seq, h.replica)
    ),
    "round_robin": lambda runnable: min(
        runnable, key=lambda h: (h.last_stepped, h.seq, h.replica)
    ),
    "first_finish": first_finish_scan,
}
UNKEYED = [name for name in SCHEDULERS.names() if name not in ORDER_KEYED]


class TestPickOrder:
    """``pick`` on the key-ordered index equals the scan it replaced."""

    @pytest.mark.parametrize("name", SCHEDULERS.names())
    def test_the_reference_table_lists_every_keyed_policy(self, name):
        handle = SessionHandle(
            arrival_s=0.0, seq=0, replica=0, session=None,
        )
        declared = SCHEDULERS.build(name).order_key(handle) is not None
        assert declared == (name in ORDER_KEYED)

    @pytest.mark.parametrize("name", sorted(ORDER_KEYED))
    @given(backlog=backlogs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_front_pick_equals_the_scan(self, name, backlog, data):
        policy = SCHEDULERS.build(name)
        index = _RunnableIndex()
        placement = data.draw(st.permutations(backlog))
        for placed, handle in enumerate(placement, 1):
            index.insert(handle, (policy.order_key(handle), placed))
        assert policy.pick(index.handles, 0.0) is ORDER_KEYED[name](backlog)

    @pytest.mark.parametrize("name", UNKEYED)
    @given(backlog=backlogs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_unkeyed_pick_ignores_input_order(self, name, backlog, data):
        shuffled = data.draw(st.permutations(backlog))
        picked = SCHEDULERS.build(name).pick(backlog, 0.0)
        assert SCHEDULERS.build(name).pick(shuffled, 0.0) is picked


class TestComparePolicies:
    def test_renders_all_policies(self):
        metrics = {
            policy: drain(policy, rate=0.2, size=3, fast=True).metrics
            for policy in ("fifo", "round_robin")
        }
        table = compare_policies(metrics, title="cmp")
        assert "fifo" in table and "round_robin" in table
        assert "queue p95 s" in table

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_policies({})
