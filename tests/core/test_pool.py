"""Tests for DevicePool: placement, migration, and KV oversubscription.

The redesign's contract: a single-device pool with the fifo scheduler is a
strict superset of the old fleet (byte-identity is pinned by
``tests/goldens`` via test_scheduler.py); a heterogeneous pool beats
either device alone under load; and co-resident KV-heavy sessions now pay
swap time (or are refused admission) instead of contending for free.
"""

import pytest

from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.pool import PLACEMENTS, DevicePool, PooledDevice
from repro.core.scheduler import SessionHandle
from repro.engine.clock import ClockBinding
from repro.errors import CapacityError, ConfigError, SchedulingError
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.datasets import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("amc23", seed=0, size=8)


def drain(dataset, devices, rate, size=None, n=4, mf=0.9, scheduler="fifo",
          placement="least_loaded", **kwargs):
    size = len(dataset) if size is None else size
    config = fasttts_config(
        memory_fraction=mf, seed=0, device_name=devices[0]
    )
    fleet = TTSFleet(
        config, dataset, scheduler=scheduler,
        devices=list(devices), placement=placement, **kwargs
    )
    problems = list(dataset)[:size]
    arrivals = PoissonProcess(rate_rps=rate).times(KeyedRng(0), size)
    for problem, arrival in zip(problems, arrivals):
        fleet.submit(problem, build_algorithm("beam_search", n), arrival_s=arrival)
    return fleet.drain()


def make_handle(lane, problem, n=4):
    session = lane.server.session(problem, build_algorithm("beam_search", n))
    handle = SessionHandle(
        request_id="req-0000", arrival_s=0.0, seq=0, replica=0,
        session=session, binding=ClockBinding(session.clock), device=lane,
    )
    handle.binding.rebind(lane.clock)
    return handle


class TestDevicePool:
    def test_build_single_device_defaults_to_config_device(self, dataset):
        pool = DevicePool.build(baseline_config(memory_fraction=0.4), dataset)
        assert len(pool) == 1
        assert pool[0].device_id == "dev0:rtx4090"
        assert pool[0].server.device.name == "rtx4090"

    def test_build_heterogeneous(self, dataset):
        pool = DevicePool.build(
            fasttts_config(memory_fraction=0.9), dataset,
            ["rtx4090", "rtx4070ti"],
        )
        assert [lane.spec.name for lane in pool] == ["rtx4090", "rtx4070ti"]
        # per-device KV ledgers track each lane's own budget
        assert pool[0].ledger.capacity_bytes == pool[0].server.kv_budget_bytes
        assert pool[0].ledger.capacity_bytes > pool[1].ledger.capacity_bytes

    def test_empty_pool_rejected(self, dataset):
        with pytest.raises(ConfigError):
            DevicePool([])
        with pytest.raises(ConfigError):
            DevicePool.build(baseline_config(memory_fraction=0.4), dataset, [])

    def test_mismatched_lanes_rejected(self, dataset):
        a = DevicePool.build(
            baseline_config(memory_fraction=0.4, seed=0), dataset
        )[0]
        b = DevicePool.build(
            baseline_config(memory_fraction=0.4, seed=1), dataset
        )[0]
        with pytest.raises(ConfigError):
            DevicePool([a, b])


class TestPlacementRegistry:
    def test_policies_registered(self):
        assert PLACEMENTS.names() == [
            "first_fit", "kv_balanced", "least_loaded", "prefix_affinity"
        ]

    def test_descriptions_cover_every_policy(self):
        assert set(PLACEMENTS.descriptions()) == set(PLACEMENTS.names())
        assert all(PLACEMENTS.descriptions().values())

    def test_unknown_policy_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'least_loaded'"):
            PLACEMENTS.build("least_loadd")

    def test_first_fit_is_the_fleet_default(self, dataset):
        fleet = TTSFleet(baseline_config(memory_fraction=0.9), dataset)
        assert fleet.placement.name == "first_fit"


class TestPlacementPolicies:
    def test_first_fit_packs_device_zero(self, dataset):
        report = drain(dataset, ["rtx4090", "rtx4070ti"], rate=0.05,
                       placement="first_fit")
        assert all(r.device_id == "dev0:rtx4090" for r in report.records)
        idle = next(d for d in report.devices if d.device_id == "dev1:rtx4070ti")
        assert idle.requests == 0 and idle.busy_s == 0.0

    def test_least_loaded_spreads_requests(self, dataset):
        report = drain(dataset, ["rtx4090", "rtx4070ti"], rate=0.1,
                       placement="least_loaded")
        used = {r.device_id for r in report.records}
        assert used == {"dev0:rtx4090", "dev1:rtx4070ti"}
        assert sum(d.requests for d in report.devices) == len(report.records)

    def test_kv_balanced_spreads_requests(self, dataset):
        report = drain(dataset, ["rtx4090", "rtx4070ti"], rate=0.1,
                       placement="kv_balanced")
        assert {r.device_id for r in report.records} == {
            "dev0:rtx4090", "dev1:rtx4070ti"
        }

    def test_deterministic(self, dataset):
        a = drain(dataset, ["rtx4090", "rtx4070ti"], rate=0.1)
        b = drain(dataset, ["rtx4090", "rtx4070ti"], rate=0.1)
        assert a.records == b.records


class TestPrefixAffinityPlacement:
    """The placement-side prefix_affinity: route to the warm lane."""

    @staticmethod
    def prefix_pool():
        dataset = build_dataset("amc23", seed=0, size=2)
        pool = DevicePool.build(
            fasttts_config(memory_fraction=0.9, seed=0), dataset,
            ["rtx4090", "rtx4070ti"], kv_sharing="prefix",
        )
        return pool, list(dataset)

    @staticmethod
    def request(problem, n=4):
        from repro.core.fleet import FleetRequest

        return FleetRequest(
            request_id="req-0000", problem=problem,
            algorithm=build_algorithm("beam_search", n), arrival_s=0.0,
        )

    def test_routes_to_lane_holding_the_prefix(self):
        pool, problems = self.prefix_pool()
        # Warm the *higher-indexed* lane so the choice cannot be explained
        # by any index/load tie-break.
        warm = make_handle(pool[1], problems[0])
        for _ in range(4):
            warm.session.step()
        session = warm.session
        pool[1].ledger.charge_growth_segments(
            session.session_id, session.claim_names.resident(session)
        )
        policy = PLACEMENTS.build("prefix_affinity")
        chosen = policy.choose(self.request(problems[0]), list(pool), 0.0)
        assert chosen is pool[1]
        # a different problem shares nothing: falls back to least loaded
        other = policy.choose(self.request(problems[1]), list(pool), 0.0)
        assert other is pool[0]

    def test_pending_planned_claims_attract_before_any_kv_lands(self):
        """A same-prefix burst co-locates on planned claims alone."""
        from repro.core.claims import planned_claims

        pool, problems = self.prefix_pool()
        planned = planned_claims(pool[1].server, problems[0])
        pool[1].note_planned_segments(planned)
        policy = PLACEMENTS.build("prefix_affinity")
        assert policy.choose(self.request(problems[0]), list(pool), 0.0) is pool[1]
        pool[1].forget_planned_segments(planned)
        assert policy.choose(self.request(problems[0]), list(pool), 0.0) is pool[0]

    def test_cold_pool_ties_fall_to_least_loaded(self, dataset):
        affinity = drain(dataset, ["rtx4090", "rtx4070ti"], rate=0.1,
                         placement="prefix_affinity")
        least = drain(dataset, ["rtx4090", "rtx4070ti"], rate=0.1,
                      placement="least_loaded")
        # distinct problems, whole-session ledgers: every affinity score is
        # zero, so the policy is least_loaded — byte-identical records
        assert affinity.records == least.records

    def test_non_sharing_lanes_score_zero(self, dataset):
        pool = DevicePool.build(
            fasttts_config(memory_fraction=0.9, seed=0), dataset,
            ["rtx4090", "rtx4070ti"],
        )
        from repro.core.claims import planned_claims

        lane = pool[0]
        assert lane.kv_sharing == "off"
        claims = planned_claims(lane.server, list(dataset)[0])
        assert lane.prefix_affinity_bytes(claims) == 0
        assert lane.prefix_overlap_bytes(claims) == 0


class TestHeterogeneousPoolBeatsSingles:
    """Acceptance: the 2-device pool wins p95 sojourn at the same rate."""

    @pytest.mark.parametrize("placement", ["least_loaded", "kv_balanced"])
    def test_pool_p95_sojourn_below_either_device_alone(self, dataset, placement):
        rate = 0.1
        alone_4090 = drain(dataset, ["rtx4090"], rate).metrics
        alone_4070 = drain(dataset, ["rtx4070ti"], rate).metrics
        pool = drain(dataset, ["rtx4090", "rtx4070ti"], rate,
                     placement=placement).metrics
        assert pool.devices == 2
        assert pool.latency_p95_s < alone_4090.latency_p95_s
        assert pool.latency_p95_s < alone_4070.latency_p95_s

    def test_per_device_rollup_accounts_every_request(self, dataset):
        report = drain(dataset, ["rtx4090", "rtx4070ti"], rate=0.1)
        assert len(report.devices) == 2
        assert sum(d.requests for d in report.devices) == report.metrics.completed
        for d in report.devices:
            assert 0.0 <= d.busy_fraction <= 1.0
        assert "busy frac" in report.device_table()
        # pool-level busy fraction is normalized by lane count
        assert 0.0 < report.metrics.busy_fraction <= 1.0


class TestKvOversubscription:
    """Acceptance: concurrent KV-heavy sessions are no longer free."""

    def fleet(self, scheduler, **kwargs):
        # 0.3 of a 4090 leaves ~0.95 GB of KV; one n=16 beam_search on
        # amc23 peaks at ~0.89 GB, so two co-resident sessions thrash.
        dataset = build_dataset("amc23", seed=0, size=2)
        config = fasttts_config(memory_fraction=0.3, seed=0)
        fleet = TTSFleet(config, dataset, scheduler=scheduler, **kwargs)
        for problem, arrival in zip(dataset, (0.0, 1.0)):
            fleet.submit(
                problem, build_algorithm("beam_search", 16), arrival_s=arrival
            )
        return fleet.drain()

    def test_interleaved_sessions_pay_swap_time(self):
        fifo = self.fleet("fifo")
        rr = self.fleet("round_robin")
        # run-to-completion never co-resides KV: no contention charge
        assert fifo.metrics.kv_swap_s == 0.0
        # interleaving oversubscribes the ledger: every switch restores
        # evicted KV and evicts the neighbour — charged on the clock
        assert rr.metrics.kv_swap_s > 0.0
        assert all(r.kv_swap_s > 0.0 for r in rr.records)
        # the charged time is real simulated time: total device work grows
        assert rr.metrics.makespan_s > fifo.metrics.makespan_s
        # and lands in the requests' latency breakdown as swap
        for result in rr.results.values():
            assert result.latency.swap > 0.0
        # the device still cannot be more than fully busy
        assert rr.metrics.busy_fraction <= 1.0 + 1e-9

    def test_light_sessions_still_free(self):
        dataset = build_dataset("amc23", seed=0, size=2)
        config = fasttts_config(memory_fraction=0.4, seed=0)
        fleet = TTSFleet(config, dataset, scheduler="round_robin")
        for problem, arrival in zip(dataset, (0.0, 1.0)):
            fleet.submit(
                problem, build_algorithm("beam_search", 4), arrival_s=arrival
            )
        report = fleet.drain()
        # both sessions fit the ledger together: no contention, no charge
        assert report.metrics.kv_swap_s == 0.0

    def test_deny_mode_refuses_oversubscription(self):
        report = self.fleet("round_robin", oversubscription="deny")
        accepted = [r for r in report.records if r.accepted]
        rejected = [r for r in report.records if not r.accepted]
        assert len(accepted) == 1 and len(rejected) == 1
        assert "oversubscribe" in rejected[0].reject_reason
        assert report.metrics.kv_swap_s == 0.0

    def test_bad_oversubscription_mode_rejected(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        with pytest.raises(ConfigError):
            TTSFleet(
                baseline_config(memory_fraction=0.4), dataset,
                oversubscription="ignore",
            )


class TestMigration:
    def pool(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        pool = DevicePool.build(
            fasttts_config(memory_fraction=0.9, seed=0), dataset,
            ["rtx4090", "rtx4070ti"],
        )
        return pool, list(dataset)[0]

    def test_migrate_charges_pcie_and_hands_over(self):
        pool, problem = self.pool()
        src, dst = pool[0], pool[1]
        handle = make_handle(src, problem)
        session = handle.session
        for _ in range(5):
            session.step()
        handle.binding.sync(src.clock)
        src.ledger.charge_growth(session.session_id, session.resident_kv_bytes)
        moved = session.resident_kv_bytes
        assert moved > 0
        before = session.clock.now

        charged = pool.migrate(handle, dst)

        expected = src.link.transfer_time(moved) + dst.link.transfer_time(moved)
        assert charged == pytest.approx(expected)
        assert session.clock.now == pytest.approx(before + charged)
        # ledgers handed the footprint over
        assert src.ledger.resident_of(session.session_id) == 0
        assert dst.ledger.resident_of(session.session_id) == moved
        # destination cannot resume the session before the data lands
        assert dst.clock.now >= src.clock.now
        assert src.migrations_out == 1 and dst.migrations_in == 1
        assert handle.device is dst
        assert session.server is dst.server

    def test_migrated_session_finishes_on_destination_roofline(self):
        pool, problem = self.pool()
        handle = make_handle(pool[0], problem)
        for _ in range(5):
            handle.session.step()
        handle.binding.sync(pool[0].clock)
        pool.migrate(handle, pool[1])
        while handle.session.state.live:
            handle.session.step()
        migrated = handle.session.outcome.result

        # same problem solved wholly on the slower device: identical
        # search results (keyed draws), different timing
        solo = pool[1].server.solve(problem, build_algorithm("beam_search", 4))
        assert [b.answer for b in migrated.beams] == [b.answer for b in solo.beams]
        assert migrated.latency.total != solo.latency.total

    def test_migrate_unstarted_session_is_free(self):
        pool, problem = self.pool()
        handle = make_handle(pool[0], problem)
        charged = pool.migrate(handle, pool[1])
        assert charged == 0.0
        assert pool[1].clock.now == 0.0
        assert handle.device is pool[1]
        # still solvable end to end on the destination
        while handle.session.state.live:
            handle.session.step()
        assert handle.session.outcome.result.beams

    def test_migrate_same_device_is_noop(self):
        pool, problem = self.pool()
        handle = make_handle(pool[0], problem)
        assert pool.migrate(handle, pool[0]) == 0.0
        assert pool[0].migrations_out == 0

    def test_migrate_dead_session_rejected(self):
        pool, problem = self.pool()
        handle = make_handle(pool[0], problem)
        handle.session.cancel()
        with pytest.raises(SchedulingError):
            pool.migrate(handle, pool[1])

    def test_migrate_refused_when_kv_cannot_fit(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        problem = list(dataset)[0]
        # dev1 at 0.75 memory fraction: weights fit but its KV budget is
        # smaller than a 24 GB lane's resident n=16 session footprint...
        config = fasttts_config(memory_fraction=0.9, seed=0)
        pool = DevicePool.build(config, dataset, ["rtx4090", "rtx3070ti"])
        handle = make_handle(pool[0], problem, n=16)
        session = handle.session
        while (
            session.state.live
            and session.resident_kv_bytes <= pool[1].ledger.capacity_bytes
        ):
            session.step()
        if not session.state.live:
            pytest.skip("session never outgrew the small lane's budget")
        handle.binding.sync(pool[0].clock)
        pool[0].ledger.charge_growth(
            session.session_id, session.resident_kv_bytes
        )
        src_clock_before = pool[0].clock.now
        dst_clock_before = pool[1].clock.now
        session_clock_before = session.clock.now
        resident_before = pool[0].ledger.resident_of(session.session_id)
        assert resident_before > 0
        with pytest.raises(CapacityError):
            pool.migrate(handle, pool[1])
        # a refused migration is fully transactional: neither lane clock
        # advanced, the session was not charged, and the source ledger
        # still owns every byte (nothing leaked to the destination).
        assert pool[0].clock.now == src_clock_before
        assert pool[1].clock.now == dst_clock_before
        assert session.clock.now == session_clock_before
        assert pool[0].ledger.resident_of(session.session_id) == resident_before
        assert pool[1].ledger.resident_of(session.session_id) == 0
        assert session.session_id in pool[0].ledger.owners
        assert session.session_id not in pool[1].ledger.owners
        assert handle.device is pool[0]

    def test_migrate_refused_keeps_shared_ledger_segment_claims(self):
        """The transactional contract holds on the segment-claim path.

        With ``kv_sharing="prefix"`` each lane's ledger tracks refcounted
        prefix segments rather than opaque byte totals; a refused
        migration must leave the source's segment claims untouched and
        claim nothing on the destination.
        """
        dataset = build_dataset("amc23", seed=0, size=1)
        problem = list(dataset)[0]
        config = fasttts_config(memory_fraction=0.9, seed=0)
        pool = DevicePool.build(
            config, dataset, ["rtx4090", "rtx3070ti"], kv_sharing="prefix"
        )
        handle = make_handle(pool[0], problem, n=16)
        session = handle.session
        while (
            session.state.live
            and session.resident_kv_bytes <= pool[1].ledger.capacity_bytes
        ):
            session.step()
            pool[0].ledger.charge_growth_segments(
                session.session_id, session.claim_names.resident(session)
            )
        if not session.state.live:
            pytest.skip("session never outgrew the small lane's budget")
        handle.binding.sync(pool[0].clock)
        src_clock_before = pool[0].clock.now
        dst_clock_before = pool[1].clock.now
        resident_before = pool[0].ledger.resident_of(session.session_id)
        leaf_before = pool[0].ledger.owner_leaf(session.session_id)
        assert resident_before > 0
        with pytest.raises(CapacityError):
            pool.migrate(handle, pool[1])
        assert pool[0].clock.now == src_clock_before
        assert pool[1].clock.now == dst_clock_before
        assert pool[0].ledger.resident_of(session.session_id) == resident_before
        assert pool[0].ledger.owner_leaf(session.session_id) == leaf_before
        assert session.session_id in pool[0].ledger.owners
        assert session.session_id not in pool[1].ledger.owners
        assert handle.device is pool[0]

    def prefix_pool(self, size=1):
        dataset = build_dataset("amc23", seed=0, size=size)
        pool = DevicePool.build(
            fasttts_config(memory_fraction=0.9, seed=0), dataset,
            ["rtx4090", "rtx4070ti"], kv_sharing="prefix",
        )
        return pool, list(dataset)

    @staticmethod
    def warm(lane, problem, rounds, n=4):
        """Run a canonical session ``rounds`` steps and register its KV."""
        handle = make_handle(lane, problem, n=n)
        for _ in range(rounds):
            handle.session.step()
        session = handle.session
        lane.ledger.charge_growth_segments(
            session.session_id, session.claim_names.resident(session)
        )
        return handle

    def test_delta_migration_free_when_destination_fully_resident(self):
        """Same-progress canonical peer at the destination: nothing moves.

        Canonical sessions of one problem regenerate identical segment
        lineages on every lane (content-keyed draws), so the migrating
        session's whole footprint is already resident at the destination
        and the delta path charges zero PCIe time.
        """
        pool, problems = self.prefix_pool()
        src, dst = pool[0], pool[1]
        self.warm(dst, problems[0], rounds=5)
        handle = self.warm(src, problems[0], rounds=5)
        handle.binding.sync(src.clock)
        session = handle.session
        moved = session.resident_kv_bytes
        assert moved > 0
        full_cost = src.link.transfer_time(moved) + dst.link.transfer_time(moved)

        charged = pool.migrate(handle, dst)

        assert charged == 0.0 < full_cost
        assert dst.ledger.resident_of(session.session_id) == moved
        assert src.ledger.resident_of(session.session_id) == 0
        # every byte of both directions was saved, and the lanes say so
        assert src.migration_bytes_saved == moved
        assert dst.migration_bytes_saved == moved
        assert handle.device is dst

    def test_delta_migration_charges_strictly_less_on_partial_overlap(self):
        """A shallower peer shares only a lineage prefix: the delta pays
        for the missing suffix, strictly less than the full footprint."""
        pool, problems = self.prefix_pool()
        src, dst = pool[0], pool[1]
        self.warm(dst, problems[0], rounds=2)
        handle = self.warm(src, problems[0], rounds=6)
        handle.binding.sync(src.clock)
        session = handle.session
        moved = session.resident_kv_bytes
        full_cost = src.link.transfer_time(moved) + dst.link.transfer_time(moved)

        charged = pool.migrate(handle, dst)

        # The rng-independent prompt roots are shared at minimum, so the
        # delta is strictly cheaper than shipping the whole footprint;
        # the deeper rounds are not there, so it is not free either.
        assert 0.0 < charged < full_cost
        assert dst.ledger.resident_of(session.session_id) == moved
        assert src.ledger.resident_of(session.session_id) == 0
        assert src.migration_bytes_saved > 0
        assert dst.migration_bytes_saved > 0

    def test_whole_session_ledgers_still_ship_the_full_footprint(self):
        """kv_sharing off: byte path unchanged, nothing reported saved."""
        pool, problem = self.pool()
        src, dst = pool[0], pool[1]
        handle = make_handle(src, problem)
        for _ in range(5):
            handle.session.step()
        handle.binding.sync(src.clock)
        src.ledger.charge_growth(
            handle.session.session_id, handle.session.resident_kv_bytes
        )
        moved = handle.session.resident_kv_bytes
        charged = pool.migrate(handle, dst)
        assert charged == pytest.approx(
            src.link.transfer_time(moved) + dst.link.transfer_time(moved)
        )
        assert src.migration_bytes_saved == 0
        assert dst.migration_bytes_saved == 0

    def test_session_the_source_never_charged_moves_its_own_footprint(self):
        """The untracked fallback: out and in are the session's own bytes."""
        pool, problem = self.pool()
        src, dst = pool[0], pool[1]
        handle = make_handle(src, problem)
        for _ in range(5):
            handle.session.step()
        handle.binding.sync(src.clock)
        moved = handle.session.resident_kv_bytes
        assert moved > 0 and src.ledger.owners == []
        charged = pool.migrate(handle, dst)
        assert charged == pytest.approx(
            src.link.transfer_time(moved) + dst.link.transfer_time(moved)
        )
        assert dst.ledger.resident_of(handle.session.session_id) == moved

    @pytest.mark.parametrize("policies", [("off", "prefix"), ("prefix", "off")])
    def test_mixed_prepared_pool_migrates_by_private_claim(self, policies):
        """Delta-migration needs lineage names on both sides; a lane of
        private claims on either side ships the whole footprint."""
        reference, problem = self.pool()
        pool = DevicePool([
            PooledDevice(index=i, server=lane.server, kv_sharing=policy)
            for i, (lane, policy) in enumerate(zip(reference, policies))
        ])
        src, dst = pool[0], pool[1]
        # a same-problem peer already resident at the destination
        peer = dst.server.session(
            problem, build_algorithm("beam_search", 4), session_id="peer"
        )
        handle = make_handle(src, problem)
        for _ in range(5):
            peer.step()
            handle.session.step()
        handle.binding.sync(src.clock)
        session = handle.session
        dst.ledger.charge_growth_segments(peer.session_id, *dst.session_claims(peer))
        src.ledger.charge_growth_segments(
            session.session_id, *src.session_claims(session)
        )
        moved = session.resident_kv_bytes
        before = dst.ledger.resident_bytes

        charged = pool.migrate(handle, dst)

        assert charged == pytest.approx(
            src.link.transfer_time(moved) + dst.link.transfer_time(moved)
        )
        assert src.migration_bytes_saved == dst.migration_bytes_saved == 0
        assert dst.ledger.resident_bytes == before + moved  # nothing deduped
        assert src.ledger.owners == [] and len(src.ledger.tree) == 0

    def test_migrate_error_messages_name_lanes(self):
        pool, problem = self.pool()
        handle = make_handle(pool[0], problem)
        handle.session.cancel()
        with pytest.raises(
            SchedulingError,
            match=r"source dev0:rtx4090, destination dev1:rtx4070ti",
        ):
            pool.migrate(handle, pool[1])
        orphan = make_handle(pool[0], problem)
        orphan.device = None
        with pytest.raises(
            SchedulingError, match=r"destination dev1:rtx4070ti"
        ):
            pool.migrate(orphan, pool[1])

    def test_migrate_to_dead_lane_refused(self):
        pool, problem = self.pool()
        handle = make_handle(pool[0], problem)
        handle.session.step()
        pool[1].fail_lane(5.0)
        with pytest.raises(
            SchedulingError, match=r"dead lane dev1:rtx4070ti"
        ):
            pool.migrate(handle, pool[1])
