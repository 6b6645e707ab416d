"""Cross-session KV prefix sharing: lineage claims through the fleet.

Acceptance contract (ISSUE 5): with ``kv_sharing="prefix"`` on a single
lane running co-resident sessions of the same problem, total swap time
and peak resident bytes are strictly lower than the dedup-off baseline
at identical answers; ``kv_sharing="off"`` stays byte-identical to
``tests/goldens/fleet_fifo_goldens.json`` (test_scheduler.py's
``TestFifoGoldens`` spells every axis at its default).
"""

import cProfile
import gc
from types import SimpleNamespace

import pytest

from repro.core.claims import ClaimNames, planned_claims
from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.pool import DevicePool, PooledDevice
from repro.core.scheduler import FirstFinishScheduler, PrefixAffinityScheduler
from repro.core.server import TTSServer
from repro.core.session import SolveSession
from repro.errors import ConfigError
from repro.metrics.accuracy import majority_answer
from repro.search.registry import build_algorithm
from repro.search.tree import prompt_segment_id
from repro.workloads.datasets import build_dataset
from repro.workloads.tenants import TenantSpec, generate_trace
from repro.workloads.trace import materialize_problems


def resident_claims(session):
    return session.claim_names.resident(session)


def answer_signature(report):
    return {
        rid: sorted((b.lineage, b.answer, b.correct, b.score) for b in res.beams)
        for rid, res in report.results.items()
    }


def racing_fleet(kv_sharing, scheduler="round_robin", memory_fraction=0.34):
    """Two co-resident sessions of the *same* problem on one lane.

    0.34 of a 4090 fits either n=16 session alone, and fits both when
    their shared prefix is deduplicated — but not when each is billed its
    full footprint, so the dedup-off ledger thrashes.
    """
    dataset = build_dataset("amc23", seed=0, size=2)
    config = fasttts_config(memory_fraction=memory_fraction, seed=0)
    fleet = TTSFleet(
        config, dataset, scheduler=scheduler, kv_sharing=kv_sharing
    )
    problem = list(dataset)[0]
    fleet.submit(problem, build_algorithm("beam_search", 16), 0.0)
    fleet.submit(problem, build_algorithm("beam_search", 16), 1.0)
    return fleet.drain()


@pytest.fixture(scope="module")
def race_off():
    return racing_fleet("off")


@pytest.fixture(scope="module")
def race_prefix():
    return racing_fleet("prefix")


class TestAcceptance:
    """The dedup makes replica racing cheaper, not differently scheduled."""

    def test_swap_time_strictly_lower(self, race_off, race_prefix):
        assert race_off.metrics.kv_swap_s > 0.0
        assert race_prefix.metrics.kv_swap_s < race_off.metrics.kv_swap_s

    def test_peak_resident_bytes_strictly_lower(self, race_off, race_prefix):
        peak_off = race_off.devices[0].kv_peak_resident_bytes
        peak_on = race_prefix.devices[0].kv_peak_resident_bytes
        assert 0 < peak_on < peak_off

    def test_answers_identical(self, race_off, race_prefix):
        assert answer_signature(race_prefix) == answer_signature(race_off)

    def test_sharing_stats_surface(self, race_off, race_prefix):
        assert race_off.spec.kv_sharing == "off"
        assert race_prefix.spec.kv_sharing == "prefix"
        assert race_off.metrics.kv_shared_bytes == 0
        assert race_off.metrics.kv_dedup_ratio == 1.0
        assert race_prefix.metrics.kv_shared_bytes > 0
        assert race_prefix.metrics.kv_dedup_ratio > 1.0
        lane = race_prefix.devices[0]
        assert lane.kv_shared_bytes > 0
        assert lane.kv_dedup_ratio > 1.0
        assert "dedup" in race_prefix.device_table()

    def test_faster_wall_clock_too(self, race_off, race_prefix):
        """Less swap is real time: the deduped run finishes sooner."""
        assert race_prefix.metrics.makespan_s < race_off.metrics.makespan_s


class TestFirstFinishReplicas:
    """FFS forks sample different tokens, so only the rng-independent
    prompt dedups — still enough to cut swap traffic strictly."""

    @staticmethod
    def run(kv_sharing):
        dataset = build_dataset("amc23", seed=0, size=1)
        config = fasttts_config(memory_fraction=0.32, seed=0)
        fleet = TTSFleet(
            config, dataset,
            scheduler=FirstFinishScheduler(replicas=2),
            kv_sharing=kv_sharing,
        )
        fleet.submit(list(dataset)[0], build_algorithm("beam_search", 16), 0.0)
        return fleet.drain()

    def test_replica_race_swap_strictly_lower_same_answers(self):
        off = self.run("off")
        on = self.run("prefix")
        assert off.metrics.kv_swap_s > 0.0
        assert on.metrics.kv_swap_s < off.metrics.kv_swap_s
        assert answer_signature(on) == answer_signature(off)
        assert on.metrics.kv_shared_bytes > 0  # the shared prompt


class TestDrainLeavesNothingBehind:
    """Claims and refcounts drain to zero — the lane tree included, so a
    ledger's size tracks live sessions, not requests ever served."""

    @pytest.mark.parametrize(
        "scheduler", ["round_robin", "first_finish", "prefix_affinity"]
    )
    @pytest.mark.parametrize("kv_sharing", ["off", "prefix"])
    def test_ledgers_and_trees_are_empty_after_drain(self, kv_sharing, scheduler):
        dataset = build_dataset("amc23", seed=0, size=2)
        fleet = TTSFleet(
            fasttts_config(memory_fraction=0.34, seed=0), dataset,
            devices=("rtx4090", "rtx4090"), placement="least_loaded",
            scheduler=scheduler, kv_sharing=kv_sharing,
        )
        for index in range(6):
            fleet.submit(
                list(dataset)[index % 2], build_algorithm("beam_search", 8),
                0.5 * index,
            )
        report = fleet.drain()
        assert all(record.accepted for record in report.records)
        for lane in fleet.pool:
            assert lane.ledger.peak_resident_bytes > 0  # it did hold KV
            assert lane.ledger.owners == []
            assert lane.ledger._segments == {}
            assert len(lane.ledger.tree) == 0
            assert lane.ledger.resident_bytes == 0
            assert lane.ledger.logical_resident_bytes == 0
            assert lane.planned_segments == {}
            assert lane.planned_kv_bytes == 0 and not lane.claimants


def sessions_left_by_drain(kv_sharing="prefix", scheduler="first_finish"):
    """``SolveSession`` objects a small continuous-batching drain leaves
    alive with the cyclic collector off: only a reference cycle keeps a
    finished session past its drain."""

    def drain():
        dataset = build_dataset("amc23", seed=0, size=2)
        fleet = TTSFleet(
            fasttts_config(memory_fraction=0.34, seed=0), dataset,
            devices=("rtx4090", "rtx4090"), placement="least_loaded",
            scheduler=scheduler, kv_sharing=kv_sharing, batching="continuous",
        )
        for index in range(4):
            fleet.submit(
                list(dataset)[index % 2], build_algorithm("beam_search", 4),
                0.5 * index,
            )
        assert all(record.accepted for record in fleet.drain().records)

    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, SolveSession)]
    known = {id(o) for o in before}
    gc.disable()
    try:
        drain()
        return sum(
            1 for o in gc.get_objects()
            if isinstance(o, SolveSession) and id(o) not in known
        )
    finally:
        gc.enable()


class TestFinishedSessionsAreFreed:
    """A session <-> claim-naming reference cycle would keep every finished
    session (caches, plans, traces) until a cyclic collection, and peak
    RSS pays for that on long drains."""

    @pytest.mark.parametrize(
        "scheduler", ["fifo", "first_finish", "prefix_affinity"]
    )
    @pytest.mark.parametrize("kv_sharing", ["off", "prefix"])
    def test_no_session_outlives_its_drain(self, kv_sharing, scheduler):
        assert sessions_left_by_drain(kv_sharing, scheduler) == 0


class TestKvSegments:
    @staticmethod
    def server(seed=0):
        dataset = build_dataset("amc23", seed=seed, size=1)
        return TTSServer(fasttts_config(memory_fraction=0.4, seed=seed), dataset)

    def test_claims_sum_to_resident_bytes(self):
        server = self.server()
        problem = list(server.dataset)[0]
        session = server.session(problem, build_algorithm("beam_search", 4))
        assert resident_claims(session) == ()
        for _ in range(5):
            session.step()
        claims = resident_claims(session)
        assert claims
        assert sum(c.num_bytes for c in claims) == session.resident_kv_bytes
        # parents precede children, every parent id is itself claimed
        seen = set()
        for claim in claims:
            assert claim.parent_id is None or claim.parent_id in seen
            seen.add(claim.node_id)

    def test_canonical_sessions_share_all_segments(self):
        server = self.server()
        problem = list(server.dataset)[0]
        a = server.session(problem, build_algorithm("beam_search", 4))
        b = server.session(problem, build_algorithm("beam_search", 4))
        for _ in range(5):
            a.step()
            b.step()
        assert a.kv_namespace is None and b.kv_namespace is None
        ids_a = {c.node_id for c in resident_claims(a)}
        ids_b = {c.node_id for c in resident_claims(b)}
        assert ids_a == ids_b  # same rng, same progress: full overlap

    def test_forked_rng_session_shares_only_roots(self):
        server = self.server()
        problem = list(server.dataset)[0]
        canonical = server.session(problem, build_algorithm("beam_search", 4))
        fork = server.session(
            problem, build_algorithm("beam_search", 4),
            rng=server.rng.fork("ffs-replica", "req", 1), session_id="req/r1",
        )
        for _ in range(5):
            canonical.step()
            fork.step()
        assert fork.kv_namespace == "req/r1"
        roots_c = {c.node_id for c in resident_claims(canonical) if c.parent_id is None}
        roots_f = {c.node_id for c in resident_claims(fork) if c.parent_id is None}
        assert roots_c == roots_f  # prompt content is rng-independent
        steps_c = {c.node_id for c in resident_claims(canonical) if c.parent_id is not None}
        steps_f = {c.node_id for c in resident_claims(fork) if c.parent_id is not None}
        assert not steps_c & steps_f  # divergent tokens never dedup

    @pytest.mark.parametrize("model_config", ["1.5B+1.5B", "1.5B+7B"])
    @pytest.mark.parametrize("config", [fasttts_config, baseline_config])
    @pytest.mark.parametrize("forked", [False, True])
    def test_planned_claims_are_the_roots_setup_registers(
        self, forked, config, model_config
    ):
        """Dedup-aware admission and affinity placement probe lanes with
        ``planned_claims`` before any session exists: once the prompt that
        setup registers is resident, they are exactly the session's root
        claims, one per model."""
        dataset = build_dataset("amc23", seed=0, size=1)
        server = TTSServer(
            config(memory_fraction=0.9, seed=0, model_config=model_config), dataset
        )
        problem = list(dataset)[0]
        session = server.session(
            problem, build_algorithm("beam_search", 4), session_id="req/r1",
            rng=server.rng.fork("ffs-replica", "req", 1) if forked else None,
        )
        assert (session.kv_namespace is not None) == forked
        session.step()  # setup
        caches = session.device_caches()
        assert [tag for tag, _, _ in caches] == ["gen", "ver"]
        for _, cache, _ in caches:
            cache.materialize(prompt_segment_id(problem), pin=False)
        roots = tuple(c for c in resident_claims(session) if c.parent_id is None)
        assert roots == planned_claims(server, problem)
        assert [c.num_bytes for c in roots] == [
            problem.prompt_tokens * server.gen_model.kv_bytes_per_token,
            problem.prompt_tokens * server.ver_model.kv_bytes_per_token,
        ]


class TestPrefixAffinityScheduler:
    def test_registered_and_described(self):
        from repro.core.scheduler import SCHEDULERS

        assert "prefix_affinity" in SCHEDULERS.names()
        assert SCHEDULERS.descriptions()["prefix_affinity"]

    def test_cuts_swap_versus_round_robin(self, race_prefix):
        affinity = racing_fleet("prefix", scheduler="prefix_affinity")
        assert affinity.metrics.kv_swap_s <= race_prefix.metrics.kv_swap_s
        assert answer_signature(affinity) == answer_signature(race_prefix)

    def test_deterministic(self):
        a = racing_fleet("prefix", scheduler="prefix_affinity")
        b = racing_fleet("prefix", scheduler="prefix_affinity")
        assert a.records == b.records

    def test_fallback_groups_same_problem(self):
        """Without a shared ledger the policy degrades to lineage grouping."""
        from repro.core.scheduler import SessionHandle

        server = self.any_server()
        problems = list(server.dataset)
        algorithm = build_algorithm("beam_search", 4)

        def handle(problem, seq, arrival):
            session = server.session(
                problem, algorithm, session_id=f"req-{seq:04d}/r0"
            )
            return SessionHandle(
                arrival_s=arrival, seq=seq, replica=0, session=session,
            )

        handles = [
            handle(problems[1], 0, 0.0),
            handle(problems[0], 1, 1.0),
            handle(problems[1], 2, 2.0),
        ]
        policy = PrefixAffinityScheduler()
        pick = policy.pick(handles, 0.0)
        # lowest problem id first; its same-problem sibling would follow
        assert pick is handles[1]

    @pytest.mark.parametrize("last_owner", [None, "req-0009/r0"])
    def test_without_an_anchor_it_starts_from_the_warmest_path(self, last_owner):
        """Registered sessions but no anchor - nothing ran on the lane yet,
        or the last owner's claims are gone: the deepest claimed path goes
        first (ties on leaf id, then arrival), and an unregistered session
        waits however early it arrived."""
        depths = {10: 2, 11: 5, 12: 5}
        leaves = {"req-0001/r0": 10, "req-0002/r0": 12, "req-0003/r0": 11}
        lane = SimpleNamespace(
            index=0, kv_sharing="prefix",
            ledger=SimpleNamespace(
                owner_leaf=leaves.get,
                tree={leaf: SimpleNamespace(depth=d) for leaf, d in depths.items()},
            ),
        )

        def handle(seq, problem_id):
            session = SimpleNamespace(
                session_id=f"req-{seq:04d}/r0",
                problem=SimpleNamespace(problem_id=problem_id),
            )
            return SimpleNamespace(
                session=session, arrival_s=float(seq), seq=seq, replica=0, device=lane,
            )

        # The unregistered request arrived first and has the lowest problem
        # id: the lineage fallback would pick it.
        runnable = [handle(0, "p-0"), handle(1, "p-1"), handle(2, "p-2"), handle(3, "p-3")]
        policy = PrefixAffinityScheduler()
        if last_owner is not None:
            policy._last_owner[lane.index] = last_owner
        assert policy.pick(runnable, 0.0) is runnable[3]  # depth 5, leaf 11
        assert policy._last_owner[lane.index] == "req-0003/r0"

    @staticmethod
    def any_server():
        dataset = build_dataset("amc23", seed=0, size=2)
        return TTSServer(fasttts_config(memory_fraction=0.4, seed=0), dataset)


def sharing_pool_run(scheduler, placement):
    """Six beam_search(8) requests on a two-lane rtx4090 sharing pool.

    The mix is two of problem 5 then four of problem 1, 6.5 s apart. At
    ``verify_threshold=0.95`` problem 1's canonical replica peaks at 0.93
    confidence and can never settle its own race, while its fork verifies
    at 0.96 *and* runs ~30% faster — so first-finish racing genuinely
    shortens every problem-1 request. Problem 5 is the opposite (only the
    canonical verifies), which keeps racing honest: a scheduler that
    always waited for forks would lose on it.
    """
    dataset = build_dataset("amc23", seed=0, size=8)
    config = fasttts_config(memory_fraction=0.4, seed=0)
    fleet = TTSFleet(
        config, dataset, scheduler=scheduler,
        devices=["rtx4090", "rtx4090"], placement=placement,
        kv_sharing="prefix",
    )
    problems = list(dataset)
    for i, pick in enumerate([5, 5, 1, 1, 1, 1]):
        fleet.submit(problems[pick], build_algorithm("beam_search", 8), i * 6.5)
    return fleet.drain()


def racing():
    return FirstFinishScheduler(replicas=2, verify_threshold=0.95)


@pytest.fixture(scope="module")
def combined_run():
    """Racing scheduler *and* sharing-aware placement."""
    return sharing_pool_run(racing(), "prefix_affinity")


@pytest.fixture(scope="module")
def racing_alone_run():
    """Racing with the fleet's default placement (first_fit)."""
    return sharing_pool_run(racing(), "first_fit")


@pytest.fixture(scope="module")
def affinity_alone_run():
    """Sharing-aware placement without racing."""
    return sharing_pool_run("fifo", "prefix_affinity")


class TestPlacementRacingSynergy:
    """``first_finish`` racing plus ``prefix_affinity`` placement strictly
    beats either mechanism alone on p95 queue delay.

    Affinity keeps problem-5 canonicals clustered on the lane that holds
    their prefix and routes problem-1 work to the other lane, so the
    race-settling forks never queue behind an unrelated canonical stream;
    first_fit lumps every canonical onto lane 0 and every fork onto
    lane 1, and fifo forgoes the racing win on problem 1 entirely.

    It no longer wins p95 *sojourn* (42.58 s against 40.39 s racing alone
    and 42.40 s affinity alone; 52.85 s against 55.19 s and 55.90 s while
    every arrival preempted speculation on these ``off`` lanes): the old
    margin came from deeper single-lane queues shedding more speculation.
    """

    def test_combined_strictly_beats_both_baselines_on_p95(
        self, combined_run, racing_alone_run, affinity_alone_run
    ):
        p95 = combined_run.metrics.queue_delay_p95_s
        assert p95 < racing_alone_run.metrics.queue_delay_p95_s
        assert p95 < affinity_alone_run.metrics.queue_delay_p95_s

    def test_all_three_agree_on_every_answer(
        self, combined_run, racing_alone_run, affinity_alone_run
    ):
        # FFS records the *winning* replica's beams, fifo the canonical's;
        # beam signatures legitimately differ, majority answers must not.
        def answers(report):
            return {
                rid: majority_answer(res.beams)
                for rid, res in report.results.items()
            }

        assert (
            answers(combined_run)
            == answers(racing_alone_run)
            == answers(affinity_alone_run)
        )
        assert len(answers(combined_run)) == 6  # nothing rejected anywhere

    def test_affinity_metrics_populated_on_the_combined_run(
        self, combined_run
    ):
        m = combined_run.metrics
        # Repeat problems land on lanes already holding their prefix...
        assert 0.0 < m.affinity_hit_ratio <= 1.0
        # ...and dedup-aware admission billed less than the full plans.
        assert 0 < m.kv_unique_admitted_bytes < m.kv_planned_admitted_bytes
        rows = {row[0] for row in m.summary_rows()}
        assert {
            "affinity hit ratio",
            "kv planned admitted MB",
            "kv unique admitted MB",
            "kv migration saved MB",
        } <= rows

    def test_per_lane_affinity_counters_roll_up(self, combined_run):
        lanes = combined_run.devices
        assert sum(d.placements for d in lanes) == 6
        assert sum(d.affinity_hits for d in lanes) > 0
        assert sum(d.unique_admitted_bytes for d in lanes) == (
            combined_run.metrics.kv_unique_admitted_bytes
        )


class TestDedupAwareAdmission:
    """ISSUE 10: deny-mode admission bills *unique* planned bytes, so a
    same-prefix burst that full-footprint billing rejects is admitted."""

    @staticmethod
    def burst(kv_sharing):
        dataset = build_dataset("amc23", seed=0, size=8)
        config = fasttts_config(memory_fraction=0.6, seed=0)
        fleet = TTSFleet(
            config, dataset, scheduler="fifo", devices=["rtx4090"],
            kv_sharing=kv_sharing, oversubscription="deny",
        )
        lane = fleet.pool[0]
        problem = list(dataset)[1]
        footprint = lane.server.plan_allocation(8).kv_total_bytes
        overlap = sum(
            claim.num_bytes
            for claim in planned_claims(lane.server, problem)
        )
        # Room for one full plan plus one dedup-billed plan — and nothing
        # more: only prefix-aware billing can admit the second request.
        lane.ledger.resize(2 * footprint - overlap)
        fleet.submit(problem, build_algorithm("beam_search", 8), 0.0)
        fleet.submit(problem, build_algorithm("beam_search", 8), 0.0)
        return fleet.drain(), footprint, overlap

    def test_sharing_admits_the_burst_full_footprint_rejects_it(self):
        shared, footprint, overlap = self.burst("prefix")
        whole, _, _ = self.burst("off")
        assert [r.accepted for r in shared.records] == [True, True]
        assert [r.accepted for r in whole.records] == [True, False]
        assert "oversubscribe" in whole.records[1].reject_reason
        # The admission books say exactly what was deduplicated.
        assert shared.metrics.kv_planned_admitted_bytes == 2 * footprint
        assert shared.metrics.kv_unique_admitted_bytes == (
            2 * footprint - overlap
        )

    def test_whole_session_ledger_reports_no_dedup_billing(self):
        whole, _, _ = self.burst("off")
        assert whole.metrics.kv_planned_admitted_bytes == 0
        assert whole.metrics.kv_unique_admitted_bytes == 0
        assert whole.metrics.affinity_hit_ratio == 0.0


class TestConfiguration:
    def test_bad_kv_sharing_rejected(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        with pytest.raises(ConfigError, match="kv_sharing"):
            TTSFleet(
                baseline_config(memory_fraction=0.4), dataset, kv_sharing="on"
            )

    def test_pool_build_with_sharing(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        pool = DevicePool.build(
            baseline_config(memory_fraction=0.4), dataset, kv_sharing="prefix"
        )
        assert pool[0].kv_sharing == "prefix"
        # and a fleet on the same axis builds such lanes and reports the mode
        fleet = TTSFleet(
            baseline_config(memory_fraction=0.4), dataset, kv_sharing="prefix"
        )
        assert fleet.pool[0].kv_sharing == "prefix"
        fleet.submit(list(dataset)[0], build_algorithm("beam_search", 4), 0.0)
        assert fleet.drain().spec.kv_sharing == "prefix"

    def test_pooled_device_validates_mode(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        server = TTSServer(baseline_config(memory_fraction=0.4), dataset)
        with pytest.raises(ConfigError, match="kv_sharing"):
            PooledDevice(index=0, server=server, kv_sharing="dedup")


def sharing_drain_calls(requests=8):
    """Python calls of one small sharing drain: two ``prefix`` lanes,
    continuous batching, swap, and four ``kv_pressure`` storms that evict."""
    tenants = [
        TenantSpec.parse(
            "hot:arrival=poisson,rate=0.3,n=8,difficulty=hard,deadline=30,"
            f"requests={requests}"
        )
    ]
    trace = generate_trace(tenants, seed=0, base_dataset="amc23")
    problems = materialize_problems(trace)
    fleet = TTSFleet(
        fasttts_config(memory_fraction=0.4, seed=0),
        build_dataset(trace.base_dataset, seed=trace.seed),
        devices=["rtx4090"] * 2,
        scheduler="prefix_affinity",
        placement="prefix_affinity",
        kv_sharing="prefix",
        batching="continuous",
        oversubscription="swap",
        faults=";".join(
            f"kv_pressure:at={at},lane={lane},fraction=0.05,duration=5"
            for at, lane in ((5, 0), (10, 1), (15, 0), (20, 1))
        ),
    )
    for request in trace:
        fleet.submit(
            problems[request.request_id],
            build_algorithm(request.algorithm, request.n),
            arrival_s=request.arrival_s,
            deadline_s=request.deadline_s,
        )
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    report = fleet.drain()
    profiler.disable()
    assert len(report.records) == requests
    assert all(lane.kv_swap_s for lane in fleet.pool)  # storms hit
    return sum(entry.callcount for entry in profiler.getstats())


class TestLedgerWorksOnWhatChanged:
    """Sessions report claim deltas; the ledger evicts from a frontier."""

    #: ``sharing_drain_calls()``: 364 750 while every round rebuilt and
    #: re-registered each session's claims and each victim rescanned every
    #: segment; 195 867 once only the claims that changed were touched (the
    #: bound was 0.8 of 364 750); 118 186 before the lanes' shared step
    #: tables, 108 826 measured with them; 108 818 before each admission
    #: burst was pinned in one cache call, 103 456 measured after; 92 854
    #: measured once each launch was billed in one ``_charge`` call;
    #: 92 715 before the ledger's segments became its lane-tree nodes and
    #: canonical sessions derived each lane node id once, 80 751 after;
    #: 68 377 before a turn read the session's lifecycle as plain
    #: attributes, skipped swap charges with nothing to bill and planned
    #: each beam budget once per server, 63 093 after; 63 092 before each
    #: beam's jobs were built in the loop that holds it, a decode span
    #: grew its batch inline and a launch moved the clock itself, 53 386
    #: after; 53 400 before a decode round worked at events (a span pays
    #: for the beams that join, leave or cross a block), 50 576 after;
    #: 50 564 before preemption became one deadline and the clock handoff
    #: one anchor, 48 485 after; 47 981 before each speculation fill was
    #: one burst and a head start a bare pair, 47 571 after; 47 586
    #: before the ledger stopped keeping a frontier heap and resident-child
    #: counts current and built its frontier per evicting call, 45 559
    #: after (the bound keeps the 1 015 calls of headroom it had over
    #: 48 485).
    CALLS_NOW = 46_600

    def test_sharing_drain_calls_stay_derived_from_changes(self):
        assert sharing_drain_calls() <= self.CALLS_NOW

    def test_no_whole_claim_rebuild_in_a_drain_without_migration(self, monkeypatch):
        calls = []
        real = ClaimNames.resident

        def counted(names, session):
            calls.append(session.session_id)
            return real(names, session)

        monkeypatch.setattr(ClaimNames, "resident", counted)
        sharing_drain_calls()
        assert calls == []
