"""The event-driven fleet kernel (``repro.core.fleet._FleetRun``).

Five contracts:

* the incremental per-lane indexes equal, *in order*, the brute-force
  scans over the request population they replaced — the runnable index
  sorted by the scheduler's ``order_key`` (placement order breaking
  ties) — checked after every ``step()`` across the policy axes (the
  scans live here, not in ``src/``);
* each handler (``settle``, ``drop``, ``escalate``, ``on_lane_crash``,
  ``recover_request``) can be called on a hand-built run state and leaves
  records, claims and indexes consistent;
* the one event heap orders simultaneous events restoration < fault <
  arrival;
* the loop's cost grows with the work served, not with the backlog:
  doubling an overload trace grows the drain's Python call count by at
  most 2.1x (2.9x with the finished-request rescan, 2.2x while ``pick``
  still keyed every runnable handle each turn);
* a drain keeps no launch log: no fleet session builds a ``UtilSpan``.

Two facts the fleet tells a session are checked where they are read: a
session's generation round is preempted (``preempt_at == -inf``) exactly
when it runs on a continuous-batching lane and an admission followed its
start (an ``off`` lane's sessions are never preempted), and a handle's
``anchor`` maps its session clock onto the lane clock turn by turn.
"""

import cProfile
import heapq
import math
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import _ARRIVAL, _FAULT, _RESTORE, TTSFleet, _FleetRun
from repro.core.pool import LeastLoadedPlacement
from repro.core.server import TTSServer
from repro.core.session import SessionState, SolveSession
from repro.engine.telemetry import UtilSpan
from repro.routing import parse_lane_list
from repro.search.registry import build_algorithm
from repro.workloads.datasets import build_dataset
from repro.workloads.tenants import TenantSpec, generate_trace
from repro.workloads.trace import materialize_problems

HETERO = "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8"


def build_fleet(arrivals, *, n=4, deadline_s=None, lanes=None, devices=2,
                memory_fraction=0.4, **policy):
    """A fleet with one beam-search request per arrival time, not drained."""
    dataset = build_dataset("amc23", seed=0, size=len(arrivals))
    config = baseline_config(memory_fraction=memory_fraction, seed=0)
    if lanes is not None:
        fleet = TTSFleet(config, dataset, lanes=parse_lane_list(lanes), **policy)
    else:
        fleet = TTSFleet(config, dataset, devices=["rtx4090"] * devices, **policy)
    for problem, arrival in zip(dataset, arrivals):
        fleet.submit(
            problem, build_algorithm("beam_search", n),
            arrival_s=arrival, deadline_s=deadline_s,
        )
    return fleet


# -- (a) indexes equal the scans they replaced ------------------------------


def same_objects(indexed, scanned):
    """Equal as sequences of *identical* objects (handles define no hash)."""
    indexed = list(indexed)
    return len(indexed) == len(scanned) and all(
        a is b for a, b in zip(indexed, scanned)
    )


def assert_indexes_match_scans(run):
    states = list(run.states.values())
    order_key = run.scheduler.order_key
    for lane in run.lanes:
        index = run.runnable[lane.index]
        placed = [  # the live handles in placement order
            h for s in states for h in s.handles
            if h.session.state.live and h.device is lane
        ]
        assert same_objects(index.handles, [
            h for _, h in sorted(
                enumerate(placed), key=lambda ih: (order_key(ih[1]), ih[0])
            )
        ])
        assert index.keys == [h.runnable_key for h in index.handles]
        assert index.keys == sorted(index.keys)
        assert same_objects(run.queued[lane.index].values(), [
            s for s in states if s.start_s is None and s.device is lane
        ])
        claimants = [s for s in states if lane.index in s.claim_bytes]
        assert same_objects(lane.claimants.values(), claimants)
        assert list(lane.claimants) == [s.seq for s in claimants]
    # What placement sees as a lane's load is its live claims.
    load = {
        lane.index: sum(1 for s in states if lane.index in s.claim_bytes)
        for lane in run.lanes
    }
    assert LeastLoadedPlacement().choose(None, run.lanes, 0.0) is min(
        run.lanes, key=lambda lane: (load[lane.index], lane.clock.now, lane.index)
    )
    assert all(
        h.runnable_key is None for s in states for h in s.handles if not h.session.state.live
    )
    # A request stays in the live map exactly as long as it can progress.
    assert all(any(h.session.state.live for h in s.handles) for s in states)
    assert not set(run.states) & set(run.records)
    assert run.arrivals_pending == sum(1 for e in run.events if e[1] == _ARRIVAL)


@contextmanager
def preemption_watch(run):
    """Check each generation round of ``run``'s sessions as it starts: its
    ``preempt_at`` is ``-inf`` exactly when the session runs on a
    continuous-batching lane and an admission (accepted or refused, not one
    waiting for a repair) followed its service start; on an ``off`` lane it
    is never set at all. Yields the count of rounds checked, keyed by the
    first verdict."""
    followed = set()  # continuous-lane sessions an admission found in service
    solo = set()  # sessions started on an ``off`` lane
    rounds = Counter()
    real_admit, real_start, real_step = run.admit, run.service_start, SolveSession.step

    def admit(seq, request, now):
        started = [
            h.session for s in run.states.values() for h in s.handles
            if h.start_s is not None and h.device.batching == "continuous"
        ]
        real_admit(seq, request, now)
        if seq in run.states or seq in run.records:
            followed.update(started)

    def service_start(lane, handle):
        real_start(lane, handle)
        if lane.batching == "off":
            solo.add(handle.session)

    def step(session, occupancy=1):
        if session.state is SessionState.GENERATING:
            preempted = session.preempt_at == -math.inf
            assert preempted == (session in followed)
            if session in solo:
                assert session.preempt_at == math.inf
            rounds[preempted] += 1
        return real_step(session, occupancy)

    run.admit = admit
    run.service_start = service_start
    with mock.patch.object(SolveSession, "step", step):
        yield rounds


FAULTS = (
    "off",
    "crash:at=40,lane=0,mttr=25",
    "crash:at=40,lane=0;stall:rate=0.02,duration=3",
    "crash:at=30,lane=0,mttr=20;crash:at=30,lane=1,mttr=40",
    "kv_pressure:at=35,lane=1,fraction=0.4,duration=30;link_degrade:at=20,factor=0.5",
)

policy_axes = st.fixed_dictionaries({
    "scheduler": st.sampled_from(
        ["fifo", "sjf", "round_robin", "first_finish", "prefix_affinity"]
    ),
    "placement": st.sampled_from(
        ["first_fit", "least_loaded", "kv_balanced", "prefix_affinity"]
    ),
    "batching": st.sampled_from(["off", "continuous"]),
    "kv_sharing": st.sampled_from(["off", "prefix"]),
    "late_policy": st.sampled_from(["serve_late", "drop"]),
    "faults": st.sampled_from(FAULTS),
    "recovery": st.sampled_from(["failover", "retry", "shed"]),
    "router": st.sampled_from(["off", "static", "cascade"]),
    "max_in_flight": st.sampled_from([None, 3]),
})


class TestIndexesMatchBruteForceScans:
    @given(policy_axes, st.lists(st.floats(0.0, 30.0), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_after_every_step(self, policy, arrivals):
        # A solve takes ~8 simulated seconds: arrivals inside 30 s queue up,
        # and a 3 s deadline makes the drop sweep fire whenever it is on.
        lanes = HETERO if policy["router"] != "off" else None
        fleet = build_fleet(
            arrivals, n=2, deadline_s=3.0, lanes=lanes,
            memory_fraction=0.9 if lanes else 0.4, **policy,
        )
        run = _FleetRun(fleet)
        assert_indexes_match_scans(run)
        with preemption_watch(run):
            while run.step():
                assert_indexes_match_scans(run)
        report = run.report()
        assert sorted(r.request_id for r in report.records) == [
            f"req-{i:04d}" for i in range(len(arrivals))
        ]
        assert not run.states
        assert not any(i.handles for i in run.runnable.values())
        assert not any(lane.claimants for lane in run.lanes)

    def test_an_admission_preempts_each_session_already_in_service(self):
        run = _FleetRun(build_fleet(
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], scheduler="round_robin",
            batching="continuous",
        ))
        with preemption_watch(run) as rounds:
            while run.step():
                pass
        assert rounds[True] and rounds[False]

    def test_an_admission_preempts_nothing_on_an_off_lane(self):
        """The same time-sliced arrivals without batching: a newcomer waits
        for the lane whatever its sessions speculate, so none is preempted."""
        run = _FleetRun(
            build_fleet([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], scheduler="round_robin")
        )
        with preemption_watch(run) as rounds:
            while run.step():
                pass
        assert rounds[False] and not rounds[True]

    def test_an_arrival_signals_each_started_session_once(self, monkeypatch):
        """The preemption deadline never clears: once an admission drops a
        session's ``preempt_at`` to ``-inf``, every later generation round
        of that session sees it, however many more requests arrive."""
        verdicts = {}  # keyed by the session object: ids are reused
        real_step = SolveSession.step

        def recording_step(session, occupancy=1):
            if session.state is SessionState.GENERATING:
                verdicts.setdefault(session, []).append(
                    session.preempt_at == -math.inf
                )
            return real_step(session, occupancy)

        monkeypatch.setattr(SolveSession, "step", recording_step)
        build_fleet(
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], scheduler="round_robin",
            batching="continuous",
        ).drain()
        assert any(any(seen) for seen in verdicts.values())
        assert all(seen == sorted(seen) for seen in verdicts.values())

    def test_step_by_step_equals_drain(self):
        kwargs = dict(
            scheduler="round_robin", placement="least_loaded",
            faults="crash:at=40,lane=0,mttr=25", devices=3,
        )
        arrivals = [0.0, 5.0, 5.0, 20.0, 41.0, 90.0]
        run = _FleetRun(build_fleet(arrivals, **kwargs))
        while run.step():
            pass
        assert run.report().records == build_fleet(arrivals, **kwargs).drain().records


class TestRestartPreemption:
    """Both requests start on lane 0 of a continuous two-lane FastTTS pool;
    the crash at 6 s fails them over to lane 1. A restart's speculation
    stops at the first arrival after its placement instant, not at the
    request behind it in arrival order, which arrived long before."""

    @pytest.mark.parametrize("arrivals, restart_preempt_at", [
        ([0.0, 0.5], math.inf),  # nobody arrives after the restart
        ([0.0, 0.5, 30.0], 30.0 - 6.0),
    ])
    def test_a_restart_waits_for_the_next_arrival_after_it(
        self, arrivals, restart_preempt_at
    ):
        dataset = build_dataset("amc23", seed=0, size=len(arrivals))
        fleet = TTSFleet(
            fasttts_config(memory_fraction=0.4, seed=0), dataset,
            devices=["rtx4090", "rtx4090"], batching="continuous",
            faults="crash:at=6,lane=0", recovery="failover",
        )
        for problem, arrival in zip(dataset, arrivals):
            fleet.submit(problem, build_algorithm("beam_search", 8), arrival_s=arrival)
        run = _FleetRun(fleet)
        starts = {}  # (seq, lane index) -> (start, preempt_at)
        real_start = run.service_start

        def service_start(lane, handle):
            real_start(lane, handle)
            starts[handle.seq, lane.index] = (handle.start_s, handle.session.preempt_at)

        run.service_start = service_start
        while run.step():
            pass
        assert starts[0, 0] == (0.0, 0.5)  # a first start: the next arrival
        assert starts[0, 1] == (6.0, restart_preempt_at)
        assert all(record.accepted for record in run.report().records)


# -- (b) handlers on a hand-built run state ---------------------------------


def place(run, seq=0, now=0.0):
    """Take ``seq``'s arrival off the heap and place it on any feasible lane."""
    run.events.remove(next(e for e in run.events if e[1:3] == (_ARRIVAL, seq)))
    heapq.heapify(run.events)
    run.arrivals_pending -= 1
    request = run.requests[seq]
    return run.place(request, seq, run._healthy_feasible(request), now=now)


def run_to_done(run, st_, replica=0):
    """Serve one handle to DONE the way a solo turn would, without settling."""
    handle = st_.handles[replica]
    lane = handle.device
    run.service_start(lane, handle)
    handle.anchor = lane.clock.now - handle.session.clock.now
    while handle.session.state is not SessionState.DONE:
        handle.session.step()
    lane.clock.advance_to(handle.anchor + handle.session.clock.now)
    return handle, lane


class TestHandlers:
    def placed(self, arrivals=(0.0, 1.0), **policy):
        fleet = build_fleet(arrivals, **policy)
        run = _FleetRun(fleet)
        return run, place(run)

    def test_place_registers_every_index(self):
        run, state = self.placed()
        lane = state.device
        assert run.states == {0: state}
        assert run.runnable[lane.index].handles == state.handles
        assert run.queued[lane.index] == {0: state}
        assert lane.claimants == {0: state}
        assert state.claim_bytes.keys() == {lane.index}
        assert run.carry[0].routed_class == lane.lane_class

    def test_settle_commits_and_clears(self):
        run, state = self.placed()
        handle, lane = run_to_done(run, state)
        assert handle.start_s == 0.0 and not run.queued[lane.index]
        run.settle(handle, lane)
        record = run.records[0]
        assert record.accepted and record.finish_s == lane.clock.now
        assert record.device_time_s == handle.session.clock.now
        assert run.results[record.request_id] is handle.session.outcome.result
        assert not run.states
        assert not run.runnable[lane.index].handles and not lane.claimants
        assert record.device_id == lane.device_id
        assert [r.finish_s for r in run.records.values() if r.accepted] == [
            lane.clock.now
        ]

    def test_settle_waits_for_an_undecided_race(self):
        run, state = self.placed(scheduler="first_finish")
        run.scheduler.race_decided = lambda finished, siblings: False
        handle, lane = run_to_done(run, state)
        run.settle(handle, lane)
        assert 0 in run.states and 0 not in run.records
        assert not any(h is handle for h in run.runnable[lane.index].handles)
        other = state.handles[1]
        assert any(h is other for h in run.runnable[other.device.index].handles)
        # The last replica finishing unverified settles on the canonical one.
        other_handle, other_lane = run_to_done(run, state, replica=1)
        run.settle(other_handle, other_lane)
        assert run.records[0].replicas == 2 and not run.states
        assert run.results["req-0000"] is handle.session.outcome.result

    def test_drop_stamps_the_expiry_and_releases(self):
        fleet = build_fleet([0.0, 1.0], deadline_s=5.0, late_policy="drop")
        run = _FleetRun(fleet)
        state = place(run)
        run.carry[0].retries = 2  # an earlier life's accounting rides along
        run.drop(state)
        record = run.records[0]
        assert record.dropped and not record.accepted
        assert record.finish_s == 5.0 and record.retries == 2
        assert record.routed_class == state.device.lane_class
        assert all(h.session.state is SessionState.CANCELLED for h in state.handles)
        assert not run.states and not any(run.queued.values())
        assert not any(i.handles for i in run.runnable.values())
        assert not any(lane.claimants for lane in run.lanes)

    def test_a_drop_after_a_crash_requeue_keeps_its_fault_accounting(self):
        """The crash at 2 s re-queues req-0000 (``retry``), and its deadline
        then expires in the queue: the dropped record still bills the retry
        and the work the crash voided, like every other terminal record."""
        fleet = build_fleet(
            [float(i) for i in range(12)], deadline_s=15.0, recovery="retry",
            late_policy="drop", faults="crash:at=2,lane=0,mttr=5",
        )
        run = _FleetRun(fleet)
        while run.step():
            pass
        first = run.records[0]
        assert first.dropped and first.retries == 1 and first.redone_work_s > 0
        for seq, record in run.records.items():
            carry = run.carry[seq]
            assert (record.retries, record.redone_work_s) == (
                carry.retries, carry.redone_work_s
            )

    def test_escalate_bills_the_attempt_and_replaces(self):
        run, state = self.placed()
        handle, lane = run_to_done(run, state)
        target = next(other for other in run.lanes if other is not lane)
        spent = handle.session.clock.now
        run.escalate(state, lane, [target])
        carry = run.carry[0]
        assert carry.escalations == 1 and carry.escalated_work_s == spent
        fresh = run.states[0]
        assert fresh is not state and fresh.device is target
        assert fresh.start_s == state.start_s  # service start carries over
        assert fresh.handles[0].arrival_s == lane.clock.now
        assert not run.runnable[lane.index].handles and not lane.claimants
        assert run.runnable[target.index].handles == fresh.handles
        assert not run.queued[target.index]  # already started once
        assert target.claimants == {0: fresh}

    def test_crash_fails_over_and_schedules_the_repair(self):
        run, state = self.placed(arrivals=(0.0,), recovery="failover")
        handle, lane = run_to_done(run, state)  # DONE work dies with the lane too
        survivor = next(other for other in run.lanes if other is not lane)
        run.on_lane_crash(lane, 7.0, mttr_s=10.0)
        assert not lane.serving and run.repairs == {lane.index: 17.0}
        assert (17.0, _RESTORE) in [e[:2] for e in run.events]
        carry = run.carry[0]
        # The voided work is billed up to the crash, not past it.
        assert handle.anchor + handle.session.clock.now > 7.0
        assert carry.failed_over and carry.redone_work_s == 7.0 - handle.anchor
        fresh = run.states[0]
        assert fresh.device is survivor and fresh.handles[0].arrival_s == 7.0
        assert not lane.claimants and lane.index not in fresh.claim_bytes
        run.on_lane_crash(lane, 8.0, mttr_s=10.0)  # coincident crash: no-op
        assert run.repairs == {lane.index: 17.0}
        run.pump(17.0)
        assert lane.serving and not run.repairs

    def test_crash_spares_a_request_with_a_live_replica(self):
        run, state = self.placed(scheduler="first_finish")
        dead, alive = state.handles[0], state.handles[1]
        assert dead.device is not alive.device
        run.on_lane_crash(dead.device, 3.0, mttr_s=None)
        assert run.states[0] is state and 0 not in run.records
        assert dead.session.state is SessionState.CANCELLED and alive.session.state.live
        assert state.claim_bytes.keys() == {alive.device.index}
        assert not dead.device.claimants and alive.device.claimants == {0: state}
        assert not run.runnable[dead.device.index].handles
        assert run.runnable[alive.device.index].handles == [alive]

    def test_recover_request_shed(self):
        run, state = self.placed(recovery="shed")
        run.recover_request(state, state.device, 4.0)
        record = run.records[0]
        assert record.lost and "recovery=shed" in record.reject_reason
        assert record.finish_s == 4.0 and record.device_id == state.device.device_id
        assert not run.states

    def test_recover_request_retry_requeues_then_exhausts(self):
        run, state = self.placed(recovery="retry", retry_budget=1)
        pending = run.arrivals_pending
        run.recover_request(state, state.device, 4.0)
        assert run.carry[0].retries == 1 and 0 not in run.records
        assert run.arrivals_pending == pending + 1
        assert (5.0, _ARRIVAL, 0) in [e[:3] for e in run.events]
        again = place(run, now=5.0)
        run.recover_request(again, again.device, 9.0)
        record = run.records[0]
        assert record.lost and record.retries == 1
        assert "retry budget exhausted" in record.reject_reason

    def test_recover_request_waits_for_a_repair_or_concedes(self):
        fleet = build_fleet([0.0], devices=1, recovery="failover")
        run = _FleetRun(fleet)
        (lane,) = run.lanes
        state = place(run)
        run.on_lane_crash(lane, 2.0, mttr_s=5.0)
        assert 0 not in run.records and run.carry[0].failed_over
        assert (7.0, _ARRIVAL, 0) in [e[:3] for e in run.events]
        while run.step():
            pass
        assert run.records[0].accepted and run.records[0].start_s >= 7.0

        run = _FleetRun(build_fleet([0.0], devices=1, recovery="failover"))
        state = place(run)
        run.on_lane_crash(run.lanes[0], 2.0, mttr_s=None)
        assert run.records[0].lost
        assert "no healthy lane remains" in run.records[0].reject_reason

    def test_admission_reject_is_a_terminal_record_too(self):
        fleet = build_fleet([0.0, 1.0], max_in_flight=1)
        run = _FleetRun(fleet)
        run.admit(0, run.requests[0], 0.0)
        run.admit(1, run.requests[1], 1.0)
        assert 0 in run.states and 1 not in run.states
        record = run.records[1]
        assert not record.accepted and "queue full" in record.reject_reason
        assert record.start_s == record.finish_s == 1.0


# -- the clock handoff -------------------------------------------------------


class TestHandleAnchor:
    """A handle's ``anchor`` is the lane time of its session clock's zero."""

    def test_a_turn_anchors_its_member_and_syncs_the_lane(self):
        """One round-robin lane interleaves three requests through a stall.
        A member that takes the lane from another is anchored at the lane
        time less the service it already had; the member the lane clock
        already sits on keeps its anchor; every turn leaves the lane at
        the member's anchor plus its session time, the exact float; and a
        stall re-anchors every resident at the post-stall instant."""
        run = _FleetRun(build_fleet(
            [0.0, 0.5, 1.0], devices=1, scheduler="round_robin",
            faults="stall:at=3,lane=0,duration=2",
        ))
        (lane,) = run.lanes
        switches = stalls = 0
        while True:
            handles = [h for s in run.states.values() for h in s.handles]
            before = {id(h): (h.anchor, h.session.clock.now, h.start_s) for h in handles}
            current, now, turn, stalled = run.current[0], lane.clock.now, run.turn, lane.stall_s
            if not run.step():
                break
            if run.turn == turn:  # an event, not a turn
                if lane.stall_s > stalled:
                    stalls += 1
                    for h in run.runnable[0].handles:
                        assert h.anchor == lane.clock.now - h.session.clock.now
                continue
            (h,) = [h for h in handles if h.last_stepped == turn]
            anchor, served, start_s = before[id(h)]
            if h is current:
                assert h.anchor == anchor
            elif start_s is None:  # first service, after any idle gap
                assert h.anchor == pytest.approx(h.start_s, abs=1e-12)
            else:
                switches += 1
                assert h.anchor == now - served
            assert lane.clock.now == max(now, h.anchor + h.session.clock.now)
        assert switches > 3 and stalls == 1


# -- the one event heap ------------------------------------------------------


class TestEventRanks:
    def test_a_fault_lands_before_a_simultaneous_arrival(self):
        fleet = build_fleet(
            [15.0], devices=1, faults="crash:at=15,lane=0,mttr=5",
        )
        (record,) = fleet.drain().records
        # Crash first (empty lane), then the arrival waits out the repair:
        # admitted the other way round it would have been failed over.
        assert record.accepted and not record.failed_over
        assert record.redone_work_s == 0.0 and record.start_s >= 20.0

    def test_a_restoration_lands_before_a_simultaneous_arrival(self):
        fleet = build_fleet(
            [20.0], devices=1, faults="crash:at=15,lane=0,mttr=5",
        )
        run = _FleetRun(fleet)
        assert run.step()  # the crash
        assert not run.lanes[0].serving
        assert run.step()  # the repair at t=20 ...
        assert run.lanes[0].serving and not run.states
        assert run.step()  # ... then the arrival at t=20, onto a serving lane
        assert run.states[0].handles[0].arrival_s == 20.0

    def test_trailing_faults_are_never_consumed(self):
        fleet = build_fleet([0.0], devices=1, faults="stall:rate=0.001,duration=1")
        run = _FleetRun(fleet)
        while run.step():
            pass
        # The unbounded clause's next onset is still armed, unapplied.
        assert [e[1] for e in run.events] == [_FAULT]
        assert run.records[0].accepted


# -- (c) the loop no longer rescans finished requests ------------------------


def overload_drain_calls(requests):
    """Python-level calls of one FIFO drain at ~1.5x a single lane's capacity."""
    tenants = [
        TenantSpec.parse(
            f"chat:arrival=poisson,rate=0.45,n=1,deadline=300,requests={requests}"
        )
    ]
    trace = generate_trace(tenants, seed=0, base_dataset="amc23")
    problems = materialize_problems(trace)
    fleet = TTSFleet(
        baseline_config(memory_fraction=0.4, seed=0),
        build_dataset(trace.base_dataset, seed=trace.seed),
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
    return sum(entry.callcount for entry in profiler.getstats())


#: ``overload_drain_calls(100)``: 101 775 while every turn read the
#: session's lifecycle through properties, billed swap time for rounds
#: that moved nothing and re-planned each session's allocation; 82 496
#: measured once those became plain attributes, skipped charges and one
#: plan per (server, n); 82 482 while each beam's jobs were built by a
#: helper and each launch called the clock, 72 765 measured once jobs were
#: built in the loop that holds the beam and a launch moved the clock;
#: 72 947 before a decode round worked at events, 71 328 measured after;
#: 71 330 before preemption became one deadline and the clock handoff one
#: anchor, 69 088 after; 64 038 before each baseline private segment id
#: became one ``_hash64`` call, 62 621 after (the bound keeps the 2 012
#: calls of headroom it had over 69 088).
OVERLOAD_DRAIN_CALLS_NOW = 64_650


def test_overload_drain_cost_scales_near_linearly():
    # Deterministic (a call count, not a timing): 1.952x at this commit
    # (62 621 -> 122 220; 1.942x before a private segment id stopped
    # paying a ``stable_hash64`` frame, whose saving is per request;
    # 1.948x, 69 088 -> 134 603, once preemption became one deadline;
    # 1.952x before preemption became one deadline,
    # 1.956x before a decode round worked at events,
    # 1.967x before a beam's round stopped paying for
    # per-beam frames, 1.977x before a turn stopped paying for its
    # plumbing). ``pick`` reads the front of an index kept in the
    # scheduler's order, so a backlog that deepens with the trace no
    # longer costs a key call per waiting handle per turn. The absolute
    # bound pins what one turn costs, as ``TestDeriveOnce.CALLS_NOW``
    # does for a solve.
    small, large = overload_drain_calls(100), overload_drain_calls(200)
    assert large <= 2.1 * small
    assert small <= OVERLOAD_DRAIN_CALLS_NOW


# -- (d) a drain keeps no launch log -----------------------------------------


def util_spans_built(call):
    """``call()``'s result and how many ``UtilSpan``s it constructed."""
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    result = call()
    profiler.disable()
    init = UtilSpan.__init__.__code__
    return result, sum(e.callcount for e in profiler.getstats() if e.code is init)


@pytest.mark.parametrize("scheduler", ["fifo", "first_finish"])
def test_a_drain_builds_no_launch_log(scheduler):
    """Both session factories (the canonical one and the racing
    replicas') give their workers no log; the solve path still keeps
    one span per launch of positive length."""
    fleet = build_fleet([0.0, 1.0, 2.0], scheduler=scheduler)
    report, built = util_spans_built(fleet.drain)
    assert built == 0
    assert len(report.results) == 3
    assert all(r.util_spans == () for r in report.results.values())

    dataset = build_dataset("amc23", seed=0, size=1)
    server = TTSServer(baseline_config(memory_fraction=0.4, seed=0), dataset)
    result, built = util_spans_built(
        lambda: server.solve(list(dataset)[0], build_algorithm("beam_search", 4))
    )
    assert built == len(result.util_spans) > 0
