"""Tests for DevicePool: placement and KV oversubscription.

The redesign's contract: a single-device pool with the fifo scheduler is a
strict superset of the old fleet (byte-identity is pinned by
``tests/goldens`` via test_scheduler.py); a heterogeneous pool beats
either device alone under load; and co-resident KV-heavy sessions now pay
swap time (or are refused admission) instead of contending for free.
"""

import pytest

from repro.core.config import AXIS_CHOICES, baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.pool import PLACEMENTS, DevicePool
from repro.core.scheduler import SCHEDULERS, SessionHandle
from repro.engine.clock import ClockBinding
from repro.errors import ConfigError
from repro.faults import FAULTS
from repro.routing import ROUTERS, parse_lane_list
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

    def test_a_lane_is_billed_the_sessions_it_ran(self, dataset):
        """``first_finish`` races replicas on both lanes: each lane's busy
        time is the device time of the sessions that ran on it, not of the
        requests it settled, so no lane is busier than the run is long."""
        report = drain(
            dataset, ["rtx4090", "rtx4090"], rate=0.2, size=4,
            scheduler="first_finish", placement="prefix_affinity",
            kv_sharing="prefix",
        )
        accepted = [r for r in report.records if r.accepted]
        assert len(accepted) == 4 and report.metrics.requests_lost == 0
        assert all(d.busy_s > 0.0 for d in report.devices)
        for d in report.devices:
            assert d.busy_fraction <= 1.0
        assert sum(d.busy_s for d in report.devices) == pytest.approx(
            sum(r.device_seconds for r in accepted)
        )


#: What each fault kind needs beyond ``at=40,lane=0`` to be well-formed.
FAULT_PARAMS = {
    "crash": ",mttr=120",
    "stall": ",duration=60",
    "link_degrade": ",factor=0.25,duration=120",
    "kv_pressure": ",fraction=0.5,duration=120",
}
TWO_4090 = {"devices": ["rtx4090", "rtx4090"]}
TWO_CARDS = {"devices": ["rtx4090", "rtx4070ti"]}
FOUR_LANES = {"devices": ["rtx4090"] * 4, "size": 8}
BIG_AND_SMALL = {
    "lanes": "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8",
    "placement": "least_loaded",
}


def busy_cell(base, **axes):
    return pytest.param(
        base | axes, id=",".join(f"{axis}={value}" for axis, value in axes.items())
    )


BUSY_CELLS = [
    *(busy_cell(TWO_4090, scheduler=s, kv_sharing=kv)
      for s in SCHEDULERS.names() for kv in AXIS_CHOICES["kv_sharing"]),
    *(busy_cell(TWO_CARDS, placement=p) for p in PLACEMENTS.names()),
    *(busy_cell(TWO_4090 | {"scheduler": "round_robin", "rate": 1.0}, batching=b)
      for b in AXIS_CHOICES["batching"]),
    *(busy_cell(TWO_4090 | {"rate": 1.0}, oversubscription=o)
      for o in AXIS_CHOICES["oversubscription"]),
    *(busy_cell(FOUR_LANES, faults=f"{kind}:at=40,lane=0{FAULT_PARAMS[kind]}",
                recovery=recovery)
      for kind in FAULTS.names() for recovery in AXIS_CHOICES["recovery"]),
    *(busy_cell(BIG_AND_SMALL, router=r) for r in ROUTERS.names()),
]


class TestLaneBusyTime:
    """Every device second a session spends is billed to exactly one lane.

    The fleet adds a session's clock to the lane it ran on where the
    session ends: the winner and its cancelled siblings at settle, an
    abandoned cheap attempt at escalation, crash-voided work at recovery.
    Summed over the lanes that is the accepted records' device seconds
    plus what the unaccepted ones had redone or escalated.
    """

    @staticmethod
    def run(dataset, cell):
        cell = dict(cell)
        size, rate = cell.pop("size", 4), cell.pop("rate", 0.2)
        lanes = cell.get("lanes")
        device = parse_lane_list(lanes)[0].device_name if lanes else cell["devices"][0]
        config = fasttts_config(memory_fraction=0.9, seed=0, device_name=device)
        fleet = TTSFleet(config, dataset, **cell)
        arrivals = PoissonProcess(rate_rps=rate).times(KeyedRng(0), size)
        for problem, arrival in zip(list(dataset)[:size], arrivals):
            fleet.submit(problem, build_algorithm("beam_search", 4), arrival_s=arrival)
        return fleet.drain()

    @pytest.mark.parametrize("cell", BUSY_CELLS)
    def test_busy_time_is_conserved(self, dataset, cell):
        report = self.run(dataset, cell)
        billed = sum(
            r.device_seconds if r.accepted else r.redone_work_s + r.escalated_work_s
            for r in report.records
        )
        assert billed > 0.0
        assert sum(d.busy_s for d in report.devices) == pytest.approx(billed)
        if cell.get("batching", "off") == "off" and report.metrics.requests_lost == 0:
            # One session at a time per lane: no lane outworks the run.
            assert all(d.busy_fraction <= 1.0 for d in report.devices)

    def test_the_cells_reach_every_billing_site(self, dataset):
        """Settle's sibling loop, ``escalate`` and ``recover_request``."""
        def total(cell, field):
            return sum(getattr(r, field) for r in self.run(dataset, cell).records)

        assert total(TWO_4090 | {"scheduler": "first_finish"}, "cancelled_work_s") > 0
        assert total(BIG_AND_SMALL | {"router": "cascade"}, "escalated_work_s") > 0
        crash = FOUR_LANES | {"faults": "crash:at=40,lane=0,mttr=120"}
        assert total(crash, "redone_work_s") > 0


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
