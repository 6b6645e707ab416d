"""Multi-request serving: ``TTSFleet`` multiplexes queued solves on a device pool.

The figure experiments measure one solve at a time; a deployed edge system
sees a *stream* of requests. ``TTSFleet`` adds that serving dimension on
top of a :class:`~repro.core.pool.DevicePool` — one or many simulated
devices, each its own :class:`~repro.core.server.TTSServer`, clock lane
and per-device KV ledger. Every admitted request is placed on one device
(a :class:`~repro.core.pool.PlacementPolicy`) and becomes one or more
resumable :class:`~repro.core.session.SolveSession` objects; between
rounds a pluggable :class:`~repro.core.scheduler.RequestScheduler` policy
decides, per device, which session occupies it next. That makes
smarter-than-FIFO serving (SJF, round-robin time-slicing, First-Finish
racing with cancellation) *and* fleet scaling (heterogeneous pools,
placement) policy choices instead of architecture changes:

* requests carry **arrival times on the pool's shared timeline**; each
  session keeps its own service-time clock, and a
  :class:`~repro.engine.clock.ClockBinding` anchors it onto its device's
  lane whenever the scheduler hands it the device;
* an arrival that lands *during* a solve preempts Phase-2 speculation via
  the session's arrival hook (Sec. 4.1.2), so a busy fleet automatically
  sheds speculative work;
* **admission control**: a request whose beam budget cannot be planned
  inside any device's KV budget is rejected up front
  (:class:`CapacityError` from the allocator), as is any arrival beyond
  the spec's queue cap (replica sessions of one request count once) or,
  in deny mode, one whose planned KV would oversubscribe every eligible
  device's ledger;
* **KV contention is charged**: interleaved sessions whose combined KV
  oversubscribes a device's :class:`~repro.hardware.memory.KVLedger` pay
  PCIe swap time (prefix bytes shared across sessions count once when
  the lanes name claims by lineage, ``kv_sharing="prefix"``);
* the run aggregates into :class:`~repro.metrics.fleet.FleetMetrics` plus
  a per-device :class:`~repro.metrics.fleet.DeviceUtilization` rollup.

**The spec.** Every serving-policy axis is one field of the frozen
:class:`~repro.core.fleet_spec.FleetSpec` (its own module, with the CLI
hints); this module is the kernel that runs one.

**The kernel.** ``TTSFleet.drain()`` builds one :class:`_FleetRun` and
calls ``step()`` until it returns False. A step either applies the
earliest due *external event* or gives the runnable lane furthest behind
one scheduling turn. External events — arrivals (and re-queued retries),
fault onsets, restorations — sit on **one** heap keyed ``(time, rank,
key)`` with ranks restoration < fault < arrival, so at one instant a
repair lands before the next fault and both before a request. The cost of
a step does not depend on how many requests the run has seen: every
handler (``admit / place / settle / escalate / drop / on_lane_crash /
recover_request``) updates the per-lane indexes it affects — which
handles are runnable (sorted by the scheduler's declared
``order_key``, so an order-keyed ``pick`` reads the front), which
requests are still queued, which hold a claim — at the transition itself
(the :class:`_FleetRun` docstring lists who touches what), and finished
requests leave the live maps at settlement.

Everything stays simulated and deterministic: a fleet run is a pure
function of (config, dataset, spec, submitted requests), and the default
spec reproduces the pre-pool fleet byte for byte (pinned by
``tests/goldens/fleet_fifo_goldens.json``).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.core.batcher import RoundBatcher
from repro.core.config import ServerConfig
from repro.core.fleet_spec import FleetSpec
from repro.core.pool import PLACEMENTS, DevicePool, PlacementPolicy, PooledDevice
from repro.core.scheduler import SCHEDULERS, RequestScheduler, SessionHandle, arrival_key
from repro.core.session import SessionState
from repro.engine.clock import ClockBinding
from repro.errors import CapacityError, ConfigError, RetryExhaustedError
from repro.faults import (
    FaultInjector,
    RetryPolicy,
    check_lane_pins,
    parse_fault_spec,
)
from repro.metrics.fleet import DeviceUtilization, FleetMetrics, FleetRequestRecord
from repro.metrics.report import ProblemRunResult
from repro.routing.router import ROUTERS
from repro.search.base import SearchAlgorithm
from repro.utils.rng import KeyedRng
from repro.workloads.problem import Dataset, Problem
from repro.workloads.trace import check_request_times

__all__ = [
    "FleetRequest",
    "FleetReport",
    "TTSFleet",
    "run_trace",
]


@dataclass(frozen=True, slots=True)
class FleetRequest:
    """One queued solve: a problem, its search budget, and when it arrived.

    Open-loop trace requests additionally carry their latency contract —
    ``deadline_s`` / ``ttft_slo_s`` relative to arrival — and traffic
    provenance (``tenant``, ``slo_class``); closed-loop submissions leave
    them ``None`` and behave exactly as before.
    """

    request_id: str
    problem: Problem
    algorithm: SearchAlgorithm
    arrival_s: float
    deadline_s: float | None = None
    ttft_slo_s: float | None = None
    tenant: str | None = None
    slo_class: str | None = None

    def __post_init__(self) -> None:
        check_request_times(self.arrival_s, self.deadline_s, self.ttft_slo_s)


def _policy(axes: dict, spec: FleetSpec, axis: str, registry):
    """``axis``'s policy object: the prepared instance passed as a keyword, if
    one was, else the registry's for the name the spec records."""
    given = axes.get(axis)
    if given is None or isinstance(given, str):
        return registry.build(getattr(spec, axis))
    return given


@dataclass(frozen=True, slots=True)
class FleetReport:
    """Everything one drained fleet run produced, and the spec it ran under."""

    records: tuple[FleetRequestRecord, ...]
    spec: FleetSpec
    results: dict[str, ProblemRunResult] = field(default_factory=dict)
    devices: tuple[DeviceUtilization, ...] = ()

    @property
    def metrics(self) -> FleetMetrics:
        return FleetMetrics.aggregate(
            self.records,
            pool_size=len(self.devices) or None,
            devices=self.devices or None,
        )

    def table(self, title: str | None = None) -> str:
        return self.metrics.table(title=title)

    def device_table(self, title: str | None = None) -> str:
        from repro.metrics.fleet import device_table

        return device_table(self.devices, title=title)

    def _correct_by_request(self) -> dict[str, bool]:
        return {rid: res.top1_correct for rid, res in self.results.items()}

    def slo_summary(self):
        """Fleet-wide SLO attainment / goodput-under-deadline rollup."""
        from repro.metrics.fleet import SLOSummary

        return SLOSummary.aggregate(
            self.records,
            self._correct_by_request(),
            pool_size=len(self.devices) or None,
        )

    def tenant_slos(self):
        """Per-tenant SLO rows (records without a tenant group under '-')."""
        from repro.metrics.fleet import tenant_slo_rollup

        return tenant_slo_rollup(self.records, self._correct_by_request())

    def tenant_table(self, title: str | None = None) -> str:
        from repro.metrics.fleet import tenant_table

        return tenant_table(self.tenant_slos(), title=title)

    def lane_classes(self):
        """Per-lane-class accuracy/latency rollup (heterogeneous pools)."""
        from repro.metrics.fleet import lane_class_rollup

        return lane_class_rollup(self.records, self._correct_by_request())

    def lane_class_table(self, title: str | None = None) -> str:
        from repro.metrics.fleet import lane_class_table

        return lane_class_table(self.lane_classes(), title=title)

    def router_decisions(self) -> dict[str, int]:
        """Initial routing decisions: lane class → requests sent there."""
        from repro.metrics.fleet import router_decisions

        return router_decisions(self.records)

    def frontier_point(self, label: str):
        """This run's point on the accuracy-vs-cost frontier."""
        from repro.metrics.fleet import frontier_point

        return frontier_point(label, self.records, self._correct_by_request())


@dataclass(slots=True)
class _RequestState:
    """Fleet-side lifecycle of one live request (and its replicas).

    ``device`` is the placement-chosen primary lane; racing replicas may
    sit on other lanes (each handle's own ``device``). ``claim_lanes``
    tracks which lanes currently hold this request's live-count and
    planned-KV claims, so crash handling can release exactly the dead
    lane's share and settlement the rest — never double-counting.
    ``claim_bytes`` records what each lane was actually billed (unique
    planned bytes on sharing lanes, the full claim elsewhere) and
    ``claim_segs`` the planned segments noted there, so releases undo
    exactly what placement charged.
    """

    request: FleetRequest
    seq: int
    handles: list[SessionHandle]
    device: PooledDevice
    start_s: float | None = None
    claim_lanes: list[PooledDevice] = field(default_factory=list)
    claim_bytes: dict[int, int] = field(default_factory=dict)
    claim_segs: dict[int, tuple] = field(default_factory=dict)


@dataclass(slots=True)
class _Carry:
    """Per-request accounting that outlives any one ``_RequestState``.

    A crash (failover, retry) or an escalation tears the state down and
    builds a new one; what the request already cost, and where the
    router first sent it, rides along here until the terminal record.
    """

    retries: int = 0
    redone_work_s: float = 0.0
    failed_over: bool = False
    routed_class: str | None = None
    escalations: int = 0
    escalated_work_s: float = 0.0


class TTSFleet:
    """Scheduler-driven multiplexing of solve requests over a device pool.

    Queue requests with ``submit``, then ``drain()`` to simulate the whole
    run and collect the :class:`FleetReport`; :func:`run_trace` does both
    for a :class:`~repro.workloads.trace.Trace`, and is the one way both
    CLI serving commands reach the fleet (``fleet`` serves a one-tenant
    trace). Each pool lane owns a :class:`~repro.engine.clock.SimClock` on
    a shared time origin; sessions run on private clocks that a
    :class:`ClockBinding` stitches onto their lane round by round, so any
    :class:`RequestScheduler` policy — FIFO, SJF, round-robin,
    First-Finish racing — can interleave them, and any
    :class:`~repro.core.pool.PlacementPolicy` can spread requests across
    the lanes.

    Serving policy is one :class:`~repro.core.fleet_spec.FleetSpec`: pass
    ``spec=`` or, as shorthand for ``FleetSpec(**axes)``, its fields as
    keyword arguments (not both). As keywords, ``scheduler``, ``placement``
    and ``router`` also accept a prepared policy instance; ``self.spec``
    records its name. The spec's ``devices`` / ``lanes`` / ``kv_sharing`` /
    ``batching`` shape the pool built from ``(config, dataset)``.
    """

    def __init__(
        self,
        config: ServerConfig,
        dataset: Dataset,
        spec: FleetSpec | None = None,
        **axes,
    ) -> None:
        if spec is not None and axes:
            raise ConfigError("pass either spec=... or keyword axes, not both")
        spec = spec or FleetSpec(**axes)
        pool = DevicePool.build(
            config, dataset, device_names=spec.devices, lanes=spec.lanes,
            kv_sharing=spec.kv_sharing, batching=spec.batching,
        )
        self.spec = spec
        self._pool = pool
        self._fault_processes = parse_fault_spec(spec.faults)
        check_lane_pins(self._fault_processes, len(pool))
        self._retry_policy = RetryPolicy(budget=spec.retry_budget)
        self._scheduler = _policy(axes, spec, "scheduler", SCHEDULERS)
        self._placement = _policy(axes, spec, "placement", PLACEMENTS)
        # No router leaves the drain loop byte-identical to the routerless
        # fleet; a policy narrows admission's eligible lanes per request
        # and may escalate settled attempts to bigger-model lanes.
        self._router = None
        if spec.router != "off":
            self._router = _policy(axes, spec, "router", ROUTERS)
            self._router.bind(pool)
        self._queue: list[FleetRequest] = []
        self._next_id = 0
        # Allocation feasibility is a pure function of (device, n) for a
        # fixed dataset, so admission memoizes the (often expensive) plan
        # search; the planned on-device KV claim rides along for the
        # ledger bookkeeping and deny-mode admission.
        self._kv_verdicts: dict[tuple[int, int], str | None] = {}
        self._kv_claims: dict[tuple[int, int], int] = {}

    # -- submission ------------------------------------------------------

    @property
    def pool(self) -> DevicePool:
        return self._pool

    @property
    def scheduler(self) -> RequestScheduler:
        return self._scheduler

    @property
    def placement(self) -> PlacementPolicy:
        return self._placement

    def submit(
        self,
        problem: Problem,
        algorithm: SearchAlgorithm,
        arrival_s: float = 0.0,
        deadline_s: float | None = None,
        ttft_slo_s: float | None = None,
        tenant: str | None = None,
        slo_class: str | None = None,
    ) -> str:
        """Queue one request; returns its fleet-assigned id."""
        request_id = f"req-{self._next_id:04d}"
        self._next_id += 1
        self._queue.append(
            FleetRequest(
                request_id=request_id,
                problem=problem,
                algorithm=algorithm,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                ttft_slo_s=ttft_slo_s,
                tenant=tenant,
                slo_class=slo_class,
            )
        )
        return request_id

    # -- admission -------------------------------------------------------

    def _kv_verdict(self, lane: PooledDevice, n: int) -> str | None:
        """Can ``lane``'s allocator plan a beam budget of ``n``? Memoized."""
        key = (lane.index, n)
        if key not in self._kv_verdicts:
            try:
                plan = lane.server.plan_allocation(n)
            except CapacityError as error:
                self._kv_verdicts[key] = f"KV budget: {error}"
                self._kv_claims[key] = 0
            else:
                self._kv_verdicts[key] = None
                self._kv_claims[key] = plan.kv_total_bytes
        return self._kv_verdicts[key]

    def _billable_claim(self, lane: PooledDevice, request: FleetRequest) -> int:
        """The planned-KV bytes ``lane`` actually charges for ``request``.

        The *unique* planned bytes: the full claim minus the bytes of the
        request's planned claims already resident (or already planned by
        a co-admitted same-prefix request) on that lane. A lane that
        plans no claims (``--kv-sharing off``) has nothing to deduplicate
        against, so the full claim is billed.
        """
        claim = self._kv_claims[(lane.index, request.algorithm.n)]
        overlap = lane.prefix_overlap_bytes(lane.planned_claims(request.problem))
        return max(0, claim - overlap)

    def _admission(
        self,
        request: FleetRequest,
        finish_times: list[float],
        running_requests: int,
    ) -> tuple[str | None, list[PooledDevice]]:
        """Admission control at arrival.

        Returns ``(reject_reason, eligible_devices)``; exactly one of the
        two is meaningful. Checks run in the legacy order — queue depth
        first, then per-device KV feasibility, then (deny mode only)
        ledger headroom.
        """
        cap = self.spec.max_in_flight
        if cap is not None:
            in_flight = running_requests + sum(
                1 for f in finish_times if f > request.arrival_s
            )
            if in_flight >= cap:
                return f"queue full (max_in_flight={cap})", []
        n = request.algorithm.n
        eligible = [
            lane for lane in self._pool if self._kv_verdict(lane, n) is None
        ]
        if not eligible:
            # Every lane refused; surface the first lane's allocator error
            # (identical to the single-device fleet's reject reason).
            return self._kv_verdict(self._pool[0], n), []
        if self.spec.oversubscription == "deny":
            fitting = [
                lane for lane in eligible
                if lane.planned_kv_bytes + self._billable_claim(lane, request)
                <= lane.ledger.capacity_bytes
            ]
            if not fitting:
                return (
                    f"KV budget: admitting n={n} would oversubscribe every "
                    f"device's KV ledger (co-resident sessions hold the "
                    f"planned capacity)",
                    [],
                )
            eligible = fitting
        return None, eligible

    # -- the serving loop ------------------------------------------------

    def drain(self) -> FleetReport:
        """Serve every queued request through the scheduler and aggregate.

        The run is one :class:`_FleetRun` advanced by ``step()``: each
        step applies the earliest due external event (restoration, fault
        onset, arrival — one heap, ranked in that order at equal times)
        or lets the runnable lane furthest behind run one scheduling
        turn. An arrival is admitted as soon as every runnable lane has
        reached its arrival time — or immediately, when the whole pool is
        idle. Arrivals landing during a session's service reach its
        preemption hook, so speculation halts as soon as the fleet has a
        waiting customer — pool-globally (see ``service_start``).
        """
        run = _FleetRun(self)
        while run.step():
            pass
        return run.report()


# Tie ranks on the event heap: at one instant restorations apply before
# fault onsets, and both before arrivals — a lane repaired exactly when
# the next fault (or request) lands is already serving again.
_RESTORE, _FAULT, _ARRIVAL = 0, 1, 2


def _charge_swap(
    lane: PooledDevice,
    handle: SessionHandle,
    restored: int,
    evicted: list[tuple[str, int]],
) -> None:
    """Charge PCIe time for ledger traffic to the session that caused it."""
    dt = sum(lane.link.transfer_time(num_bytes) for _, num_bytes in evicted)
    if restored:
        dt += lane.link.transfer_time(restored)
    if dt == 0:
        return
    handle.session.charge_kv_swap(dt)
    handle.kv_swap_s += dt
    lane.kv_swap_s += dt


class _RunnableIndex:
    """One lane's live handles, sorted by ``(order_key(handle), placement no.)``.

    Parallel key / handle lists kept in order with ``bisect``; ``handles``
    is the sequence ``pick`` receives, with no per-turn copy. The
    placement number makes every key unique and a handle carries the key
    it is filed under (``SessionHandle.runnable_key``), so bisecting for
    that key finds exactly the handle's slot.
    """

    __slots__ = ("keys", "handles")

    def __init__(self) -> None:
        self.keys: list[tuple] = []
        self.handles: list[SessionHandle] = []

    def insert(self, handle: SessionHandle, key: tuple) -> None:
        at = bisect_left(self.keys, key)
        self.keys.insert(at, key)
        self.handles.insert(at, handle)
        handle.runnable_key = key

    def remove(self, handle: SessionHandle) -> None:
        """Take ``handle`` out; a no-op for one that already left."""
        key = handle.runnable_key
        if key is None:
            return
        at = bisect_left(self.keys, key)
        del self.keys[at]
        del self.handles[at]
        handle.runnable_key = None


class _FleetRun:
    """One drain: the run state, its indexes, and a handler per transition.

    Everything a drain accumulates lives here — live request states,
    terminal records, per-request carry-over accounting, the event heap —
    and every transition (``admit / place / settle / escalate / drop /
    on_lane_crash / recover_request``) is a method that updates the
    per-lane indexes at the point it changes what they describe, so no
    turn ever rescans the request population:

    ``runnable[lane]``
        live handles on the lane, a :class:`_RunnableIndex` sorted by
        ``(scheduler.order_key(handle), placement order)``; its
        ``handles`` list is exactly what ``pick`` sees. Grows in
        ``place``; shrinks in ``_retire`` — reached from the DONE edge at
        the top of ``settle`` and from every ``session.cancel()``
        (``_cancel``: race losers, escalation, drop, crash). Under a
        ``rekey_after_round`` policy, ``step`` re-files (``_rekey``) each
        surviving member of the iteration that wrote its ``last_stepped``.
    ``unsignalled``
        runnable handles whose service began and that no arrival has
        preempted yet (who the next arrival signals). Grows in
        ``service_start``; shrinks in ``_retire``; emptied by each
        ``admit``, since a signalled session stays signalled.
    ``queued[lane]``
        requests whose primary lane this is and whose service has not
        started (the ``late_policy=drop`` sweep's candidates). Grows in
        ``place``; shrinks in ``service_start`` and ``_forget``.
    ``claimed[lane]``
        requests holding a live-count / planned-KV claim on the lane
        (whom a crash of that lane must visit — including replicas that
        already finished there). Grows in ``place``; shrinks in
        ``release_claims``.

    ``states`` holds live requests only: settlement, drop and crash
    teardown remove the entry, so ``len(states)`` is the admission
    controller's running-request count.
    """

    def __init__(self, fleet: TTSFleet) -> None:
        self.fleet = fleet
        self.spec = fleet.spec
        self.scheduler = fleet._scheduler
        self.router = fleet._router
        queue = fleet._queue
        order = sorted(range(len(queue)), key=lambda i: (queue[i].arrival_s, i))
        self.requests = [queue[i] for i in order]
        fleet._queue = []
        self.lanes = list(fleet._pool)
        self.states: dict[int, _RequestState] = {}
        self.records: dict[int, FleetRequestRecord] = {}
        self.results: dict[str, ProblemRunResult] = {}
        self.finish_times: list[float] = []
        # Accounting that must survive a request's state being rebuilt
        # (failover, escalation) or re-queued (retry), one row per seq.
        self.carry = [_Carry() for _ in self.requests]
        self.current: dict[int, SessionHandle | None] = {
            lane.index: None for lane in self.lanes
        }
        self.turn = 0
        self.placed = 0  # handles placed so far: the index's tie-break
        self.runnable: dict[int, _RunnableIndex] = {
            lane.index: _RunnableIndex() for lane in self.lanes
        }
        self.unsignalled: dict[int, SessionHandle] = {}
        self.queued: dict[int, dict[int, _RequestState]] = {
            lane.index: {} for lane in self.lanes
        }
        self.claimed: dict[int, dict[int, _RequestState]] = {
            lane.index: {} for lane in self.lanes
        }
        # The event heap: (time, rank, key, payload). ``key`` is the
        # request seq for arrivals (retried requests merge back in at
        # their new times, ties in submission order) and a counter for
        # restorations, so comparison never reaches the payload.
        self.events: list[tuple] = [
            (request.arrival_s, _ARRIVAL, seq, request)
            for seq, request in enumerate(self.requests)
        ]
        heapq.heapify(self.events)
        self.arrivals_pending = len(self.requests)
        self.restorations = 0
        self.repairs: dict[int, float] = {}  # lane index -> scheduled recovery
        self.injector = (
            FaultInjector(
                fleet._fault_processes,
                KeyedRng(fleet._pool[0].server.config.seed).fork("faults"),
                len(self.lanes),
            )
            if fleet._fault_processes
            else None
        )
        self._arm_injector()

    # -- the loop --------------------------------------------------------

    def acting_lane(self) -> PooledDevice | None:
        """The runnable lane furthest behind (lowest index on ties)."""
        best = None
        for lane in self.lanes:
            if self.runnable[lane.index].handles and (
                best is None or lane.clock.now < best.clock.now
            ):
                best = lane
        return best

    def step(self) -> bool:
        """Apply one due event or run one scheduling turn; False when done."""
        act = self.acting_lane()
        if self.events:
            time_s, rank = self.events[0][0], self.events[0][1]
            if act is None or time_s <= act.clock.now:
                if rank == _ARRIVAL:
                    # Every lane with work has reached the arrival time (or
                    # the pool is idle — early admission: service still
                    # begins no sooner than the arrival itself).
                    _, _, seq, request = heapq.heappop(self.events)
                    self.arrivals_pending -= 1
                    self.admit(seq, request, time_s)
                    return True
                if act is not None or self.arrivals_pending:
                    # Faults are pumped only while a serving horizon exists
                    # — a runnable lane or a pending arrival the fault could
                    # land before. With neither the run is over: a
                    # rate-based (unbounded) clause must not keep the loop
                    # consuming its infinite Poisson stream.
                    self.pump(time_s)
                    return True
        if act is None:
            return False
        if self.spec.late_policy == "drop" and self.drop_expired(act):
            return True

        now = act.clock.now
        runnable = self.runnable[act.index].handles
        members = None
        if act.batching == "continuous":
            # Iteration-level admission: every runnable session that has
            # arrived (or already started) joins this iteration's
            # jointly-costed batch; later arrivals join the next one.
            members = [
                h for h in runnable if h.start_s is not None or h.arrival_s <= now
            ]
            members.sort(key=arrival_key)
        if not members:
            members = [self.scheduler.pick(runnable, now)]
        RoundBatcher.run_iteration(self, act, members)
        if self.scheduler.rekey_after_round:
            for handle in members:
                if handle.runnable_key is not None:
                    self._rekey(handle)
        if act.batching == "off":
            # The lane clock sits at this handle's position, so picking it
            # again needs no rebind; a batch horizon belongs to no member.
            self.current[act.index] = members[0]
        return True

    def report(self) -> FleetReport:
        records = tuple(self.records[seq] for seq in sorted(self.records))
        return FleetReport(
            records=records,
            spec=self.spec,
            results=self.results,
            devices=DeviceUtilization.rollup(records, self.lanes),
        )

    # -- index maintenance -----------------------------------------------

    def _retire(self, handle: SessionHandle) -> None:
        """A handle stopped being live: it leaves the scheduling indexes."""
        self.runnable[handle.device.index].remove(handle)
        self.unsignalled.pop(id(handle), None)

    def _rekey(self, handle: SessionHandle) -> None:
        """Re-file a live handle that just ran (``rekey_after_round``)."""
        index = self.runnable[handle.device.index]
        placed = handle.runnable_key[1]
        index.remove(handle)
        index.insert(handle, (self.scheduler.order_key(handle), placed))

    def _cancel(self, handle: SessionHandle) -> None:
        if handle.session.state.live:
            handle.session.cancel()
        self._retire(handle)

    def _forget(self, st: _RequestState) -> None:
        """A request's state ends (terminal record, or rebuilt elsewhere)."""
        del self.states[st.seq]
        self.queued[st.device.index].pop(st.seq, None)

    def _enqueue(self, time_s: float, seq: int, request: FleetRequest) -> None:
        heapq.heappush(self.events, (time_s, _ARRIVAL, seq, request))
        self.arrivals_pending += 1

    def _terminal_record(
        self, seq: int, request: FleetRequest, **outcome
    ) -> FleetRequestRecord:
        """Write ``seq``'s one terminal record: provenance, the carry-over
        accounting of every earlier life, and ``outcome``.

        Unserved outcomes default to the arrival instant for ``start_s``.
        """
        carry = self.carry[seq]
        fields = dict(
            request_id=request.request_id,
            arrival_s=request.arrival_s,
            start_s=request.arrival_s,
            routed_class=carry.routed_class,
            tenant=request.tenant,
            slo_class=request.slo_class,
            deadline_s=request.deadline_s,
            ttft_slo_s=request.ttft_slo_s,
            retries=carry.retries,
            redone_work_s=carry.redone_work_s,
            failed_over=carry.failed_over,
            escalations=carry.escalations,
            escalated_work_s=carry.escalated_work_s,
        )
        fields.update(outcome)
        record = self.records[seq] = FleetRequestRecord(**fields)
        return record

    # -- admission and placement -----------------------------------------

    def release_claims(
        self, st: _RequestState, only: PooledDevice | None = None
    ) -> None:
        """Return a request's live-count/planned-KV claims to its lanes.

        Idempotent per lane: ``claim_lanes`` shrinks as shares are
        returned, so a crash releasing the dead lane's share and a later
        settlement releasing the rest never double-count.
        """
        for lane in list(st.claim_lanes):
            if only is not None and lane is not only:
                continue
            lane.live_requests -= 1
            lane.planned_kv_bytes -= st.claim_bytes.pop(lane.index)
            segs = st.claim_segs.pop(lane.index, None)
            if segs is not None:
                lane.forget_planned_segments(segs)
            st.claim_lanes.remove(lane)
            del self.claimed[lane.index][st.seq]

    def place(
        self,
        request: FleetRequest,
        seq: int,
        eligible: list[PooledDevice],
        now: float,
        carry_start: float | None = None,
    ) -> _RequestState:
        """Create a request's sessions and bind them to pool lanes.

        The scheduler picks the primary lane (placement hook) and may
        spread racing replicas across further eligible lanes
        (``replica_lanes``); each replica's session is created on the
        server of the lane it will run on — identical search results
        either way, since every lane shares the pairing and seed.

        ``now`` is the placement instant; handles carry it as their
        effective (re-)arrival so a failover or retry restart never
        begins before the crash that caused it — even on an idle lane
        whose clock lags the fault time. First placements pass the
        arrival itself, so nothing changes without faults.
        """
        fleet, scheduler = self.fleet, self.scheduler
        rearrival = max(request.arrival_s, now)
        device = fleet._placement.choose(request, eligible, now)
        replica_lanes = scheduler.replica_lanes(request, device, eligible)
        sessions_by_lane = {
            device.index: scheduler.sessions_for(device.server, request)
        }
        handles = []
        for replica in range(len(sessions_by_lane[device.index])):
            lane = replica_lanes[replica % len(replica_lanes)]
            if lane.index not in sessions_by_lane:
                sessions_by_lane[lane.index] = scheduler.sessions_for(
                    lane.server, request
                )
            session = sessions_by_lane[lane.index][replica]
            handle = SessionHandle(
                request_id=request.request_id,
                arrival_s=rearrival,
                seq=seq,
                replica=replica,
                session=session,
                binding=ClockBinding(session.clock),
                device=lane,
            )
            handles.append(handle)
            self.placed += 1
            self.runnable[lane.index].insert(
                handle, (scheduler.order_key(handle), self.placed)
            )
        st = _RequestState(
            request=request, seq=seq, handles=handles, device=device,
            start_s=carry_start,
        )
        # Affinity accounting happens before any claim registration so
        # a request's own planned segments never count as a "hit".
        device.placements += 1
        if device.prefix_affinity_bytes(device.planned_claims(request.problem)) > 0:
            device.affinity_hits += 1
        for handle in handles:
            lane = handle.device
            if lane.index in st.claim_bytes:
                continue
            billed = fleet._billable_claim(lane, request)
            lane.live_requests += 1
            lane.planned_kv_bytes += billed
            st.claim_lanes.append(lane)
            st.claim_bytes[lane.index] = billed
            self.claimed[lane.index][seq] = st
            segs = lane.planned_claims(request.problem)
            if segs:
                lane.note_planned_segments(segs)
                st.claim_segs[lane.index] = segs
                lane.planned_admitted_bytes += fleet._kv_claims[
                    (lane.index, request.algorithm.n)
                ]
                lane.unique_admitted_bytes += billed
        carry = self.carry[seq]
        if carry.routed_class is None:
            # The router's *initial* decision: immutable through crashes
            # and escalations (it is the decision being audited).
            carry.routed_class = device.lane_class
        self.states[seq] = st
        if carry_start is None:
            self.queued[device.index][seq] = st
        return st

    def admit(self, seq: int, request: FleetRequest, now: float) -> None:
        reason, eligible = self.fleet._admission(
            request, self.finish_times, len(self.states)
        )
        lost = False
        if reason is None:
            healthy = [lane for lane in eligible if lane.serving]
            if not healthy:
                # Every eligible lane is down. Wait for a scheduled repair
                # if one exists; otherwise the request is lost to the
                # outage, not to admission policy.
                if self.repairs:
                    t_rec = min(self.repairs.values())
                    self._enqueue(max(request.arrival_s, t_rec), seq, request)
                    return
                reason = "no healthy device lane (pool lanes crashed)"
                lost = True
            else:
                eligible = healthy
                if self.router is not None:
                    # The router narrows to its preferred lane class;
                    # placement/scheduling pick the concrete lane within
                    # it. A policy returning nothing (defensive guard)
                    # falls back to every healthy lane.
                    eligible = self.router.route(request, eligible, now) or eligible
        if reason is not None:
            # Admission outcomes never report ``failed_over``: a restart
            # that waited for a repair and was then refused never happened.
            self._terminal_record(
                seq, request, finish_s=request.arrival_s, accepted=False,
                reject_reason=reason, lost=lost, failed_over=False,
            )
        else:
            self.place(request, seq, eligible, now=now)
        # Either way somebody new showed up: sessions in service must stop
        # speculating (round-granular analogue of the arrival offsets).
        # The signal never clears, so each session needs it once.
        for handle in self.unsignalled.values():
            handle.session.notify_arrival()
        self.unsignalled.clear()

    def service_start(self, lane: PooledDevice, handle: SessionHandle) -> None:
        """First pick of a handle: stamp service start, install the offset.

        Arrival preemption is deliberately *pool-global*: a session sheds
        speculative work when any later request arrives, even one placed
        on another lane. Per-lane preemption is not expressible here —
        the offset is installed at service start, when later requests'
        placements have not happened yet — and the global rule is the
        conservative reading of Sec. 4.1.2 (a busy fleet sheds
        speculation); it slightly understates multi-device speedups.
        """
        start = max(lane.clock.now, handle.arrival_s)
        handle.start_s = start
        self.unsignalled[id(handle)] = handle
        st = self.states[handle.seq]
        if st.start_s is None:
            st.start_s = start
            del self.queued[st.device.index][st.seq]
        # The next arrival on the session's own clock (t=0 at service
        # start). Sessions only use the earliest offset and ``requests``
        # is arrival-sorted, so one suffices; non-positive means someone
        # is already waiting and speculation never starts.
        if handle.seq + 1 < len(self.requests):
            handle.session.set_arrival_offsets(
                self.requests[handle.seq + 1].arrival_s - start
            )

    # -- KV ledger charging ----------------------------------------------

    @staticmethod
    def charge_restore(lane: PooledDevice, handle: SessionHandle) -> None:
        """Bring a resumed session's evicted KV back; charge the reads."""
        restored, evicted = lane.ledger.restore(handle.session.session_id)
        _charge_swap(lane, handle, restored, evicted)

    @staticmethod
    def charge_growth(lane: PooledDevice, handle: SessionHandle) -> None:
        """Post-round ledger update; the grower pays for evictions.

        The ledger gets what changed in the session's footprint since
        its last report, under the lane's claim names
        (:meth:`PooledDevice.session_claims`). It can report ``restored``
        bytes — KV the owner lost to eviction since it last ran that had
        to come back over PCIe before this round — and the grower pays
        for both directions.
        """
        session = handle.session
        if not session.state.live:
            return  # released in settle()
        restored, evicted = lane.ledger.charge_growth_segments(
            session.session_id, *lane.session_claims(session)
        )
        _charge_swap(lane, handle, restored, evicted)

    # -- settlement ------------------------------------------------------

    def escalate(
        self, st: _RequestState, lane: PooledDevice, targets: list[PooledDevice]
    ) -> None:
        """Abandon a settled cheap attempt and re-place on a bigger class.

        Every session of the attempt is cancelled and its device seconds
        billed as escalated work (the honest cost of trying small first)
        — disjoint from crash-voided ``redone_work_s`` by construction,
        since no session's clock can reach both; ledger claims are
        released on their lanes, and the request re-enters placement on
        the escalation targets — a full re-prefill through the bigger
        lane's ledger, exactly like a fresh admission. The escalation
        instant is the settling lane's clock, so the restart never
        predates the rejected attempt's finish.
        """
        abandoned = 0.0
        for h in st.handles:
            self._cancel(h)
            device_s = h.session.clock.now
            abandoned += device_s
            held = h.device or lane
            held.busy_s += device_s
            held.ledger.release(h.session.session_id)
        carry = self.carry[st.seq]
        carry.escalated_work_s += abandoned
        carry.escalations += 1
        self.release_claims(st)
        self._forget(st)
        self.place(
            st.request, st.seq, targets, now=lane.clock.now, carry_start=st.start_s
        )

    def settle(self, handle: SessionHandle, lane: PooledDevice) -> None:
        """A session reached DONE: decide its request's race, maybe commit."""
        self._retire(handle)
        st = self.states[handle.seq]
        siblings = st.handles
        if self.scheduler.race_decided(handle, siblings):
            winner = handle
        elif all(not h.session.state.live for h in siblings):
            # Nobody produced a verified finish: the lowest-replica
            # *finished* sibling stands — the canonical replica when it
            # survived (identical to what FIFO would have served), else
            # the surviving replica a lane crash left behind.
            finished = [
                h for h in siblings if h.session.state is SessionState.DONE
            ]
            if not finished:
                return  # every replica crashed; recovery owns this one
            winner = min(finished, key=lambda h: h.replica)
        else:
            return  # race continues
        request, carry = st.request, self.carry[st.seq]
        if self.router is not None and not self.router.accept(request, winner):
            # Verifier rejection: ask the router for bigger-class lanes
            # this request could still plan on. With nowhere to escalate
            # (already on the biggest class, or no feasible bigger lane),
            # the attempt commits as-is.
            targets = self.router.escalate_lanes(
                request,
                (winner.device or lane).model_cost_bytes,
                self._healthy_feasible(request),
            )
            if targets:
                self.escalate(st, lane, targets)
                return
        cancelled_work = 0.0
        for h in siblings:
            if h is not winner:
                self._cancel(h)
                device_s = h.session.clock.now
                cancelled_work += device_s
                (h.device or lane).busy_s += device_s
        winner_s = winner.session.clock.now
        (winner.device or lane).busy_s += winner_s
        for h in siblings:
            (h.device or lane).ledger.release(h.session.session_id)
        result = winner.session.outcome.result
        committed = result.tokens.committed
        self._terminal_record(
            st.seq,
            request,
            start_s=st.start_s,
            finish_s=lane.clock.now,
            latency=result.latency,
            replicas=len(siblings),
            cancelled_work_s=cancelled_work,
            # Device seconds across every session of the request; the
            # start→finish window also contains other requests' rounds
            # under interleaving schedulers. Work redone after a lane
            # crash (failover/retry restarts) counts, as do abandoned
            # cheaper attempts a cascade escalated past.
            device_time_s=(
                winner_s + cancelled_work
                + carry.redone_work_s + carry.escalated_work_s
            ),
            device_id=lane.device_id,
            lane_class=lane.lane_class,
            kv_swap_s=sum(h.kv_swap_s for h in siblings),
            ttft_s=(
                winner.first_token_s - request.arrival_s
                if winner.first_token_s is not None
                else None
            ),
            tpot_s=(
                result.latency.generation / committed if committed > 0 else None
            ),
        )
        self.results[request.request_id] = result
        self.finish_times.append(lane.clock.now)
        self.release_claims(st)
        self._forget(st)

    def drop(self, st: _RequestState) -> None:
        """Shed a still-queued request whose deadline expired.

        The drop is stamped at the deadline expiry itself (arrival +
        deadline), not at the lane-clock instant the sweep noticed it, so
        the drop instant does not depend on how far the lane's clock had
        jumped past the deadline. None of the request's sessions ran in
        this life, so there is no cancelled work to account; their ledger
        claims (if any) are released like a settled race's losers. Work an
        earlier life lost to a crash (a retry or failover re-queue) stays
        on the record through the carry-over.
        """
        request = st.request
        for h in st.handles:
            self._cancel(h)
            (h.device or st.device).ledger.release(h.session.session_id)
        self._terminal_record(
            st.seq, request,
            finish_s=request.arrival_s + request.deadline_s,
            accepted=False, dropped=True,
            reject_reason=(
                f"deadline expired after {request.deadline_s:g}s in queue "
                f"(late_policy=drop)"
            ),
        )
        self.release_claims(st)
        self._forget(st)

    def drop_expired(self, lane: PooledDevice) -> bool:
        """Open-loop shedding sweep: drop expired queued work on ``lane``.

        Only requests whose service has not started are candidates —
        once a request holds the device its lateness is the SLO metrics'
        problem, not admission's. Returns True when anything was dropped
        (the caller re-evaluates which lane acts next).
        """
        dropped_any = False
        now = lane.clock.now
        for st in list(self.queued[lane.index].values()):
            request = st.request
            if (
                request.deadline_s is not None
                and now >= request.arrival_s + request.deadline_s
            ):
                self.drop(st)
                dropped_any = True
        return dropped_any

    # -- faults and recovery ---------------------------------------------

    def _arm_injector(self) -> None:
        """Keep the injector's next onset time on the heap (lazy timeline)."""
        head = self.injector.peek() if self.injector is not None else None
        if head is not None:
            heapq.heappush(self.events, (head, _FAULT, 0, None))

    def schedule_restoration(
        self, time_s: float, kind: str, lane: PooledDevice
    ) -> None:
        heapq.heappush(
            self.events, (time_s, _RESTORE, self.restorations, (kind, lane))
        )
        self.restorations += 1
        if kind == "lane_recover":
            self.repairs[lane.index] = time_s

    def pump(self, up_to: float) -> None:
        """Apply every restoration and fault onset due by ``up_to``."""
        events = self.events
        while events and events[0][1] != _ARRIVAL and events[0][0] <= up_to:
            time_s, rank, _, payload = heapq.heappop(events)
            if rank == _RESTORE:
                self.apply_restoration(*payload, time_s)
            else:
                for event in self.injector.pop_due(time_s):
                    self.apply_fault(event)
                self._arm_injector()

    def _healthy_feasible(self, request: FleetRequest) -> list[PooledDevice]:
        """Serving lanes whose allocator can plan the request's budget."""
        n = request.algorithm.n
        return [
            lane for lane in self.lanes
            if lane.serving and self.fleet._kv_verdict(lane, n) is None
        ]

    def recover_request(
        self, st: _RequestState, lane: PooledDevice, now: float
    ) -> None:
        """Apply the recovery policy to a request the crash left session-less.

        All of the request's device seconds so far are charged as redone
        work — the crash voided them — and the state is torn down before
        the policy decides the request's next life: ``shed`` fails fast,
        ``retry`` re-queues after backoff (until the per-request budget
        runs out), ``failover`` re-places on a healthy lane immediately
        (checkpoint-free restart). A request no policy can keep leaves
        the system with a terminal ``lost`` record.
        """
        fleet = self.fleet
        seq, request, carry = st.seq, st.request, self.carry[st.seq]
        redone = 0.0
        for h in st.handles:
            device_s = h.session.clock.now
            redone += device_s
            (h.device or lane).busy_s += device_s
        carry.redone_work_s += redone
        self.release_claims(st)
        self._forget(st)
        if self.spec.recovery == "shed":
            reason = f"lane {lane.device_id} crashed (recovery=shed)"
        elif self.spec.recovery == "retry":
            try:
                delay = fleet._retry_policy.backoff(carry.retries + 1)
            except RetryExhaustedError as error:
                reason = f"lane {lane.device_id} crashed; {error}"
            else:
                carry.retries += 1
                self._enqueue(max(now + delay, request.arrival_s), seq, request)
                return
        elif healthy := self._healthy_feasible(request):
            # failover: restart on any healthy KV-feasible lane right now.
            # It honours the router: the restart lands on the policy's
            # preferred class among the survivors (falling through the
            # class order when the original class died with the lane).
            if self.router is not None:
                healthy = self.router.route(request, healthy, now) or healthy
            carry.failed_over = True
            self.place(request, seq, healthy, now=now, carry_start=st.start_s)
            return
        elif self.repairs:
            # ... or wait for a scheduled repair ...
            carry.failed_over = True
            t_rec = min(self.repairs.values())
            self._enqueue(max(t_rec, request.arrival_s), seq, request)
            return
        else:
            # ... or concede the request.
            reason = f"lane {lane.device_id} crashed and no healthy lane remains"
        self._terminal_record(
            seq, request, finish_s=max(now, request.arrival_s), accepted=False,
            lost=True, reject_reason=reason, device_id=lane.device_id,
        )

    def on_lane_crash(
        self, lane: PooledDevice, time_s: float, mttr_s: float | None
    ) -> None:
        """A lane dies: resident KV is gone, its sessions are voided.

        Requests racing replicas on surviving lanes keep running (the
        crash must not fail a request that still has a live replica);
        requests whose only sessions died go to the recovery policy.
        """
        if not lane.serving:
            return  # coincident crash on an already-dead lane
        lane.fail_lane(time_s)
        self.current[lane.index] = None
        if mttr_s is not None:
            self.schedule_restoration(time_s + mttr_s, "lane_recover", lane)
        for st in list(self.claimed[lane.index].values()):
            for h in st.handles:
                if h.device is lane:
                    self._cancel(h)
            self.release_claims(st, only=lane)
            survivors = [h for h in st.handles if h.device is not lane]
            if any(h.session.state.live for h in survivors):
                continue  # the race carries on without the dead replica
            done = [
                h for h in survivors if h.session.state is SessionState.DONE
            ]
            if done:
                self.settle(done[0], done[0].device)
            else:
                self.recover_request(st, lane, time_s)

    def reanchor_residents(self, lane: PooledDevice) -> None:
        """Shift resident sessions past a fault that ate lane time.

        A stall or forced eviction advances the lane clock underneath its
        live handles; without re-anchoring, their next ``sync`` would
        reconstruct a timeline *before* the fault and trip the clock's
        rewind guard. Rebinding preserves each session's accumulated
        service and resumes it at the post-fault instant.
        """
        for handle in self.runnable[lane.index].handles:
            handle.binding.rebind(lane.clock)

    def apply_fault(self, event) -> None:
        lane = self.lanes[event.lane]
        if event.kind == "crash":
            self.on_lane_crash(lane, event.time_s, event.mttr_s)
            return
        if not lane.serving:
            return  # non-crash faults have nothing to act on when down
        if event.kind == "stall":
            lane.clock.advance_to(max(lane.clock.now, event.time_s))
            lane.stall(event.duration_s)
            self.reanchor_residents(lane)
        elif event.kind == "link_degrade":
            lane.degrade_link(event.factor)
            if event.duration_s is not None:
                self.schedule_restoration(
                    event.time_s + event.duration_s, "link_restore", lane
                )
        elif event.kind == "kv_pressure":
            evicted = lane.apply_kv_pressure(event.factor)
            dt = sum(lane.link.transfer_time(num_bytes) for _, num_bytes in evicted)
            if dt:
                # The pressure spike's forced write-out is PCIe time on
                # the lane; victims pay their read-back on next resume.
                lane.clock.advance(dt)
                lane.kv_swap_s += dt
                self.reanchor_residents(lane)
            if event.duration_s is not None:
                self.schedule_restoration(
                    event.time_s + event.duration_s, "kv_relieve", lane
                )

    def apply_restoration(self, kind: str, lane: PooledDevice, time_s: float) -> None:
        if kind == "lane_recover":
            del self.repairs[lane.index]
            if not lane.serving:
                lane.recover_lane(time_s)
        elif kind == "link_restore":
            if lane.serving:
                lane.restore_link()
        elif kind == "kv_relieve":
            if lane.serving:
                lane.relieve_kv_pressure()


def run_trace(trace, config: ServerConfig, **axes) -> FleetReport:
    """Drive an open-loop :class:`~repro.workloads.trace.Trace` end to end.

    ``axes`` are forwarded to :class:`TTSFleet` untouched — ``spec=`` or
    :class:`FleetSpec` fields as keywords. Requests are submitted at
    their trace timestamps regardless of capacity — queues build,
    deadlines expire, and the spec's ``late_policy`` decides whether
    expired queued requests are shed (``"drop"``) or served anyway
    (``"serve_late"``). The serving dynamics (step-length model,
    termination) come from the trace's ``base_dataset`` profile; each
    request's *problem* is rebuilt from its own ``(dataset, seed,
    index)`` coordinates, so a serialized trace replays byte-identically
    to the in-memory one that produced it.
    """
    from repro.search.registry import build_algorithm
    from repro.workloads.datasets import build_dataset
    from repro.workloads.trace import materialize_problems

    problems = materialize_problems(trace)
    server_dataset = build_dataset(trace.base_dataset, seed=trace.seed)
    fleet = TTSFleet(config, server_dataset, **axes)
    for request in trace:
        fleet.submit(
            problems[request.request_id],
            build_algorithm(request.algorithm, request.n),
            arrival_s=request.arrival_s,
            deadline_s=request.deadline_s,
            ttft_slo_s=request.ttft_slo_s,
            tenant=request.tenant,
            slo_class=request.slo_class,
        )
    return fleet.drain()
