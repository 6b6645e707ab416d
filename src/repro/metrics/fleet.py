"""Fleet-level serving metrics: request throughput and queueing delay.

Single-request metrics (goodput, latency) describe how fast one solve is;
a serving system is judged by how it behaves under *load*. This module
aggregates a fleet run — many queued solve requests multiplexed over a
:class:`~repro.core.pool.DevicePool` — into the quantities a serving
evaluation reports: completed request throughput, the p50/p95 queueing
delay and sojourn distributions, the pool's busy fraction over the run's
makespan, cross-session KV contention (swap) time, and (for
redundancy-based schedulers such as ``first_finish``) how much device time
went into sessions whose results were cancelled or discarded.

:class:`DeviceUtilization` rolls the same run up per device lane —
requests served, busy fraction, KV swap traffic, and
the lane ledger's cross-session sharing stats (peak bytes saved by
prefix dedup, peak-logical-over-peak-physical ``kv_dedup_ratio``) — so a
heterogeneous pool's imbalance is visible at a glance
(:func:`device_table`).

:func:`compare_policies` renders several fleet runs of the same workload
under different :mod:`~repro.core.scheduler` policies side by side.

Open-loop trace runs add the latency-bounded view ("Are We Scaling the
Right Thing?"): requests carry deadlines and TTFT targets, so the same
records aggregate into **SLO attainment** (fraction of requests meeting
their targets — dropped and rejected requests count as misses),
**goodput under deadline** (:class:`SLOSummary`, :class:`TenantSLO`:
correct answers per second counting only in-deadline completions), and a
:func:`queue_depth_series` of how many admitted requests were waiting at
every instant — the overload picture a closed-loop run can never show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.metrics.latency import LatencyBreakdown
from repro.utils.stats import percentile
from repro.utils.tables import render_table

__all__ = [
    "FleetRequestRecord",
    "FleetMetrics",
    "DeviceUtilization",
    "TenantSLO",
    "SLOSummary",
    "LaneClassStats",
    "FrontierPoint",
    "device_table",
    "compare_policies",
    "tenant_slo_rollup",
    "tenant_table",
    "queue_depth_series",
    "ttft_p95",
    "latency_p95",
    "lane_class_rollup",
    "lane_class_table",
    "router_decisions",
    "frontier_point",
]


@dataclass(frozen=True, slots=True)
class FleetRequestRecord:
    """One request's life cycle on the fleet's shared clock.

    ``arrival_s``/``start_s``/``finish_s`` are times on the serving
    device's :class:`~repro.engine.clock.SimClock` lane (all lanes of a
    pool share one time origin). ``device_id`` names that lane (None for
    rejected requests, which never reach a device). ``kv_swap_s`` is the
    cross-session KV contention time charged to this request's sessions.
    Rejected requests (admission control) carry ``accepted=False`` and a
    ``reject_reason``; their ``start_s``/``finish_s`` equal the arrival
    time and they contribute to no latency statistic.
    """

    request_id: str
    arrival_s: float
    start_s: float
    finish_s: float
    accepted: bool = True
    reject_reason: str | None = None
    latency: LatencyBreakdown | None = None
    replicas: int = 1
    cancelled_work_s: float = 0.0
    device_time_s: float | None = None
    device_id: str | None = None
    kv_swap_s: float = 0.0
    #: Time to first token: arrival → first generated token on the fleet
    #: timeline (None for rejected requests, or records predating TTFT).
    ttft_s: float | None = None
    #: Time per output token: mean generation-phase seconds per committed
    #: token of the winning session (None when nothing was decoded).
    tpot_s: float | None = None
    #: Traffic provenance and latency contract (open-loop trace runs):
    #: the tenant stream the request belongs to, its SLO class label, and
    #: the deadline / TTFT targets relative to ``arrival_s`` (None when
    #: the request carries no such target — closed-loop runs).
    tenant: str | None = None
    slo_class: str | None = None
    deadline_s: float | None = None
    ttft_slo_s: float | None = None
    #: True when the open-loop driver shed this request because its
    #: deadline expired while it was still queued (``late_policy="drop"``);
    #: dropped requests also carry ``accepted=False``.
    dropped: bool = False
    #: Fault accounting. ``retries`` counts crash-triggered re-queues
    #: (recovery="retry"); ``redone_work_s`` is device time a crash voided
    #: that had to be re-run; ``failed_over`` marks a checkpoint-free
    #: re-placement onto a surviving lane; ``lost`` marks a request a
    #: fault removed from the system unserved (lost requests also carry
    #: ``accepted=False`` and a ``reject_reason`` naming the fault).
    retries: int = 0
    redone_work_s: float = 0.0
    failed_over: bool = False
    lost: bool = False
    #: Heterogeneous-pool routing. ``routed_class`` is the lane class the
    #: router's *initial* decision sent the request to (unchanged by
    #: crashes or escalations — it is the decision being audited);
    #: ``lane_class`` is the class of the lane that finally served it;
    #: ``escalations`` counts cascade re-placements onto bigger-model
    #: lanes, and ``escalated_work_s`` is the device time of the
    #: abandoned cheaper attempts (already included in
    #: ``device_time_s`` — the honest bill).
    routed_class: str | None = None
    lane_class: str | None = None
    escalations: int = 0
    escalated_work_s: float = 0.0

    def __post_init__(self) -> None:
        if self.escalations < 0:
            raise ValueError("escalations must be non-negative")
        if self.escalated_work_s < 0:
            raise ValueError("escalated_work_s must be non-negative")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ValueError("ttft_slo_s must be positive when set")
        if self.dropped and self.accepted:
            raise ValueError("a dropped request cannot also be accepted")
        if self.lost and self.accepted:
            raise ValueError("a lost request cannot also be accepted")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.redone_work_s < 0:
            raise ValueError("redone_work_s must be non-negative")
        if self.accepted and self.start_s < self.arrival_s:
            raise ValueError("service cannot start before arrival")
        if self.accepted and self.finish_s < self.start_s:
            raise ValueError("service cannot finish before it starts")
        if self.replicas < 1:
            raise ValueError("a request is served by at least one session")
        if self.cancelled_work_s < 0:
            raise ValueError("cancelled_work_s must be non-negative")
        if self.device_time_s is not None and self.device_time_s < 0:
            raise ValueError("device_time_s must be non-negative")
        if self.kv_swap_s < 0:
            raise ValueError("kv_swap_s must be non-negative")
        if self.ttft_s is not None and self.ttft_s < 0:
            raise ValueError("ttft_s must be non-negative")
        if self.tpot_s is not None and self.tpot_s < 0:
            raise ValueError("tpot_s must be non-negative")

    @property
    def queue_delay_s(self) -> float:
        """Seconds spent waiting for the device after arriving."""
        return self.start_s - self.arrival_s

    @property
    def service_s(self) -> float:
        """Wall-clock seconds between service start and finish.

        Under run-to-completion scheduling this equals device time; under
        an interleaving scheduler the window also contains other requests'
        rounds — use :attr:`device_seconds` for device-time accounting.
        """
        return self.finish_s - self.start_s

    @property
    def device_seconds(self) -> float:
        """Simulated device seconds this request actually consumed.

        Recorded by the fleet as the sum of all its sessions' private
        clocks (winner plus cancelled/discarded replicas). Falls back to
        the start→finish window for records predating the session
        redesign, where the two were the same thing.
        """
        if self.device_time_s is not None:
            return self.device_time_s
        return self.service_s

    @property
    def sojourn_s(self) -> float:
        """Arrival → finish on the fleet timeline (what the user feels)."""
        return self.finish_s - self.arrival_s

    @property
    def deadline_met(self) -> bool | None:
        """Did the request finish inside its deadline?

        ``None`` when no deadline was set (closed-loop requests stay out
        of SLO statistics). Dropped and rejected requests with a deadline
        count as misses — an overloaded fleet does not get credit for the
        work it shed.
        """
        if self.deadline_s is None:
            return None
        if not self.accepted:
            return False
        return self.sojourn_s <= self.deadline_s

    @property
    def ttft_slo_met(self) -> bool | None:
        """Did the first token arrive inside the TTFT target?

        ``None`` when no target was set; misses include dropped/rejected
        requests and completions that never produced a token.
        """
        if self.ttft_slo_s is None:
            return None
        if not self.accepted or self.ttft_s is None:
            return False
        return self.ttft_s <= self.ttft_slo_s


@dataclass(frozen=True, slots=True)
class FleetMetrics:
    """Aggregate serving behaviour of one fleet run."""

    requests: int
    completed: int
    rejected: int
    makespan_s: float
    throughput_rps: float
    queue_delay_mean_s: float
    queue_delay_p50_s: float
    queue_delay_p95_s: float
    service_mean_s: float
    latency_mean_s: float
    busy_fraction: float
    sessions: int = 0
    cancelled_work_s: float = 0.0
    latency_p95_s: float = 0.0
    kv_swap_s: float = 0.0
    devices: int = 1
    kv_shared_bytes: int = 0
    kv_dedup_ratio: float = 1.0
    #: SLO metrics: arrival → first generated token, and mean
    #: generation seconds per committed output token.
    ttft_mean_s: float = 0.0
    ttft_p95_s: float = 0.0
    tpot_mean_s: float = 0.0
    #: Mean members per batched generation iteration across the pool
    #: (1.0 when no lane ran the round batcher).
    batch_occupancy_mean: float = 1.0
    batch_occupancy_peak: int = 1
    #: Availability under faults. ``availability`` is served over offered
    #: (completed / requests — rejections, drops and losses all count
    #: against it); ``mttr_s`` is mean lane downtime per completed repair
    #: (None when no lane recovered); the rest total the per-request and
    #: per-lane fault accounting.
    requests_lost: int = 0
    availability: float = 1.0
    mttr_s: float | None = None
    retries_total: int = 0
    redone_work_s: float = 0.0
    failed_over: int = 0
    lane_failures: int = 0
    #: Cascade routing: total escalations to bigger-model lanes and the
    #: device time of the abandoned cheaper attempts they billed.
    escalations: int = 0
    escalated_work_s: float = 0.0
    #: Sharing-aware fleet quantities. ``affinity_hit_ratio`` is the
    #: fraction of primary placements that landed on a lane already
    #: holding (or planning) part of the request's KV prefix; the
    #: planned/unique pair contrasts full planned footprints with what
    #: dedup-aware admission actually billed. ``kv_migration_bytes_saved``
    #: reads 0: no fleet path moves a live session between lanes.
    affinity_hit_ratio: float = 0.0
    kv_planned_admitted_bytes: int = 0
    kv_unique_admitted_bytes: int = 0
    kv_migration_bytes_saved: int = 0

    @classmethod
    def aggregate(
        cls,
        records: Sequence[FleetRequestRecord],
        pool_size: int | None = None,
        devices: "Sequence[DeviceUtilization] | None" = None,
    ) -> "FleetMetrics":
        """Pool per-request records into the fleet-level quantities.

        ``pool_size`` is the number of device lanes the run had available;
        when omitted it is inferred from the records' device ids — which
        undercounts lanes a placement policy left idle, so callers that
        know the pool (``FleetReport.metrics``) pass it explicitly.
        ``devices`` (the per-lane rollup rows) supplies the cross-session
        KV sharing quantities, which live on the lane ledgers rather than
        the request records; without it ``kv_shared_bytes``/
        ``kv_dedup_ratio`` report the no-sharing defaults.
        """
        if not records:
            raise ValueError("cannot aggregate an empty fleet run")
        if pool_size is not None and pool_size < 1:
            raise ValueError("pool_size must be >= 1 when set")
        shared_bytes = 0
        dedup_ratio = 1.0
        occupancy_mean = 1.0
        occupancy_peak = 1
        lane_failures = 0
        mttr: float | None = None
        affinity_ratio = 0.0
        planned_admitted = unique_admitted = migration_saved = 0
        if devices:
            placements = sum(d.placements for d in devices)
            hits = sum(d.affinity_hits for d in devices)
            affinity_ratio = (hits / placements) if placements > 0 else 0.0
            planned_admitted = sum(d.planned_admitted_bytes for d in devices)
            unique_admitted = sum(d.unique_admitted_bytes for d in devices)
            migration_saved = sum(d.migration_bytes_saved for d in devices)
        if devices:
            lane_failures = sum(d.failures for d in devices)
            repairs = sum(d.recoveries for d in devices)
            if repairs > 0:
                mttr = sum(d.downtime_s for d in devices) / repairs
        if devices:
            shared_bytes = sum(d.kv_shared_bytes for d in devices)
            peak_resident = sum(d.kv_peak_resident_bytes for d in devices)
            if peak_resident > 0:
                # Weighted per-lane ratio: total peak logical bytes over
                # total peak physical bytes across the pool.
                logical = sum(
                    d.kv_dedup_ratio * d.kv_peak_resident_bytes for d in devices
                )
                dedup_ratio = logical / peak_resident
            iterations = sum(d.batch_iterations for d in devices)
            if iterations > 0:
                occupancy_mean = (
                    sum(d.batch_occupancy_mean * d.batch_iterations
                        for d in devices)
                    / iterations
                )
                occupancy_peak = max(d.batch_occupancy_peak for d in devices)
        accepted = [r for r in records if r.accepted]
        rejected = len(records) - len(accepted)
        makespan = max((r.finish_s for r in accepted), default=0.0)
        delays = [r.queue_delay_s for r in accepted]
        # Device time, not the start→finish window: interleaved requests'
        # windows overlap, and summing them would report busy fractions
        # beyond 1.0 on a single device.
        services = [r.device_seconds for r in accepted]
        # Sojourn time: arrival → finish, what an interactive user feels.
        sojourns = [r.finish_s - r.arrival_s for r in accepted]
        ttfts = [r.ttft_s for r in accepted if r.ttft_s is not None]
        tpots = [r.tpot_s for r in accepted if r.tpot_s is not None]
        busy = sum(services)
        # Busy fraction is normalized by pool size: N lanes offer N
        # device-seconds per wall second, so the ratio stays physical
        # (<= 1) on multi-device fleets, comparable across placement
        # policies (idle lanes still count), and unchanged on
        # single-device runs.
        pool_devices = pool_size or len(
            {r.device_id for r in accepted if r.device_id}
        ) or 1
        return cls(
            requests=len(records),
            completed=len(accepted),
            rejected=rejected,
            makespan_s=makespan,
            throughput_rps=(len(accepted) / makespan) if makespan > 0 else 0.0,
            queue_delay_mean_s=(sum(delays) / len(delays)) if delays else 0.0,
            queue_delay_p50_s=percentile(delays, 50.0) if delays else 0.0,
            queue_delay_p95_s=percentile(delays, 95.0) if delays else 0.0,
            service_mean_s=(sum(services) / len(services)) if services else 0.0,
            latency_mean_s=(sum(sojourns) / len(sojourns)) if sojourns else 0.0,
            busy_fraction=(busy / (makespan * pool_devices)) if makespan > 0 else 0.0,
            sessions=sum(r.replicas for r in accepted),
            cancelled_work_s=sum(r.cancelled_work_s for r in accepted),
            latency_p95_s=percentile(sojourns, 95.0) if sojourns else 0.0,
            kv_swap_s=sum(r.kv_swap_s for r in accepted),
            devices=pool_devices,
            kv_shared_bytes=shared_bytes,
            kv_dedup_ratio=dedup_ratio,
            ttft_mean_s=(sum(ttfts) / len(ttfts)) if ttfts else 0.0,
            ttft_p95_s=percentile(ttfts, 95.0) if ttfts else 0.0,
            tpot_mean_s=(sum(tpots) / len(tpots)) if tpots else 0.0,
            batch_occupancy_mean=occupancy_mean,
            batch_occupancy_peak=occupancy_peak,
            requests_lost=sum(r.lost for r in records),
            availability=len(accepted) / len(records),
            mttr_s=mttr,
            retries_total=sum(r.retries for r in records),
            redone_work_s=sum(r.redone_work_s for r in records),
            failed_over=sum(r.failed_over for r in records),
            lane_failures=lane_failures,
            escalations=sum(r.escalations for r in records),
            escalated_work_s=sum(r.escalated_work_s for r in records),
            affinity_hit_ratio=affinity_ratio,
            kv_planned_admitted_bytes=planned_admitted,
            kv_unique_admitted_bytes=unique_admitted,
            kv_migration_bytes_saved=migration_saved,
        )

    def summary_rows(self) -> list[list[object]]:
        return [
            ["requests", self.requests],
            ["completed", self.completed],
            ["rejected", self.rejected],
            ["makespan s", round(self.makespan_s, 2)],
            ["throughput req/s", round(self.throughput_rps, 4)],
            ["queue delay mean s", round(self.queue_delay_mean_s, 2)],
            ["queue delay p50 s", round(self.queue_delay_p50_s, 2)],
            ["queue delay p95 s", round(self.queue_delay_p95_s, 2)],
            ["service mean s", round(self.service_mean_s, 2)],
            ["latency mean s", round(self.latency_mean_s, 2)],
            ["latency p95 s", round(self.latency_p95_s, 2)],
            ["busy fraction", round(self.busy_fraction, 3)],
            ["devices", self.devices],
            ["sessions", self.sessions],
            ["cancelled work s", round(self.cancelled_work_s, 2)],
            ["kv swap s", round(self.kv_swap_s, 2)],
            ["kv shared MB", round(self.kv_shared_bytes / 1024**2, 2)],
            ["kv dedup ratio", round(self.kv_dedup_ratio, 3)],
            ["ttft mean s", round(self.ttft_mean_s, 2)],
            ["ttft p95 s", round(self.ttft_p95_s, 2)],
            ["tpot s", round(self.tpot_mean_s, 4)],
            ["batch occupancy", round(self.batch_occupancy_mean, 2)],
            ["availability", round(self.availability, 3)],
            ["requests lost", self.requests_lost],
            ["lane failures", self.lane_failures],
            ["mttr s", _opt(self.mttr_s)],
            ["retries", self.retries_total],
            ["redone work s", round(self.redone_work_s, 2)],
            ["failed over", self.failed_over],
            ["escalations", self.escalations],
            ["escalated work s", round(self.escalated_work_s, 2)],
            ["affinity hit ratio", round(self.affinity_hit_ratio, 3)],
            ["kv planned admitted MB",
             round(self.kv_planned_admitted_bytes / 1024**2, 2)],
            ["kv unique admitted MB",
             round(self.kv_unique_admitted_bytes / 1024**2, 2)],
            ["kv migration saved MB",
             round(self.kv_migration_bytes_saved / 1024**2, 2)],
        ]

    def table(self, title: str | None = None) -> str:
        return render_table(["metric", "value"], self.summary_rows(), title=title)


@dataclass(frozen=True, slots=True)
class DeviceUtilization:
    """One pool lane's share of a fleet run.

    Built by the fleet at drain time from its lane counters plus the
    per-request records; ``busy_fraction`` is the device seconds of every
    session that ran on this lane (:attr:`PooledDevice.busy_s
    <repro.core.pool.PooledDevice.busy_s>`) over the whole run's
    makespan, so an idle lane in a badly placed heterogeneous pool shows
    up as a near-zero row. ``migrations_in`` / ``migrations_out`` and
    ``migration_bytes_saved`` read 0: no fleet path moves a live session
    between lanes.
    """

    device_id: str
    device: str
    requests: int
    busy_s: float
    busy_fraction: float
    migrations_in: int = 0
    migrations_out: int = 0
    kv_swap_s: float = 0.0
    kv_swapped_out_bytes: int = 0
    kv_swapped_in_bytes: int = 0
    #: Peak bytes the lane ledger saved through cross-session prefix
    #: sharing (0 where every session holds one private claim).
    kv_shared_bytes: int = 0
    #: Peak logical over peak physical resident bytes (1.0 without sharing).
    kv_dedup_ratio: float = 1.0
    #: Peak physically resident KV bytes on the lane.
    kv_peak_resident_bytes: int = 0
    #: Batched generation iterations the lane's round batcher launched
    #: (0 with batching off).
    batch_iterations: int = 0
    #: Mean member sessions per batched generation iteration (1.0 when
    #: the lane never batched).
    batch_occupancy_mean: float = 1.0
    #: Widest generation batch the lane ran.
    batch_occupancy_peak: int = 1
    #: Fault lifecycle counters: the lane's health at drain end
    #: ("up"/"degraded"/"down"), crash and repair counts, total seconds
    #: spent dead, and injected transient-stall seconds.
    health: str = "up"
    failures: int = 0
    recoveries: int = 0
    downtime_s: float = 0.0
    stall_s: float = 0.0
    #: Sharing-aware placement/admission counters: primary placements the
    #: lane won, how many landed on already-resident prefix bytes, and the
    #: full-vs-unique planned bytes admission billed here.
    placements: int = 0
    affinity_hits: int = 0
    planned_admitted_bytes: int = 0
    unique_admitted_bytes: int = 0
    migration_bytes_saved: int = 0

    @classmethod
    def rollup(
        cls,
        records: Sequence[FleetRequestRecord],
        lanes: Sequence,
    ) -> tuple["DeviceUtilization", ...]:
        """Per-lane utilization from request records + pool lane counters.

        ``lanes`` are :class:`~repro.core.pool.PooledDevice` objects (typed
        loosely to keep metrics free of core imports).
        """
        makespan = max((r.finish_s for r in records if r.accepted), default=0.0)
        rows = []
        for lane in lanes:
            mine = [
                r for r in records if r.accepted and r.device_id == lane.device_id
            ]
            busy = lane.busy_s
            rows.append(
                cls(
                    device_id=lane.device_id,
                    device=lane.spec.name,
                    requests=len(mine),
                    busy_s=busy,
                    busy_fraction=(busy / makespan) if makespan > 0 else 0.0,
                    migrations_in=lane.migrations_in,
                    migrations_out=lane.migrations_out,
                    kv_swap_s=lane.kv_swap_s,
                    kv_swapped_out_bytes=lane.ledger.swapped_out_bytes,
                    kv_swapped_in_bytes=lane.ledger.swapped_in_bytes,
                    kv_shared_bytes=lane.ledger.peak_shared_bytes,
                    kv_dedup_ratio=lane.ledger.dedup_ratio,
                    kv_peak_resident_bytes=lane.ledger.peak_resident_bytes,
                    batch_iterations=lane.batch_iterations,
                    batch_occupancy_mean=(
                        lane.batch_member_rounds / lane.batch_iterations
                        if lane.batch_iterations > 0
                        else 1.0
                    ),
                    batch_occupancy_peak=max(lane.batch_peak_occupancy, 1),
                    health=lane.health.value,
                    failures=lane.failures,
                    recoveries=lane.recoveries,
                    downtime_s=lane.downtime_s,
                    stall_s=lane.stall_s,
                    placements=lane.placements,
                    affinity_hits=lane.affinity_hits,
                    planned_admitted_bytes=lane.planned_admitted_bytes,
                    unique_admitted_bytes=lane.unique_admitted_bytes,
                    migration_bytes_saved=lane.migration_bytes_saved,
                )
            )
        return tuple(rows)


def device_table(
    devices: Sequence[DeviceUtilization], title: str | None = None
) -> str:
    """Render the per-device rollup of one fleet run."""
    if not devices:
        raise ValueError("need at least one device to tabulate")
    rows = [
        [
            d.device_id,
            d.requests,
            round(d.busy_s, 2),
            round(d.busy_fraction, 3),
            d.migrations_in,
            d.migrations_out,
            round(d.kv_swap_s, 2),
            round(d.kv_shared_bytes / 1024**2, 2),
            round(d.kv_dedup_ratio, 3),
            round(d.batch_occupancy_mean, 2),
            d.batch_occupancy_peak,
            d.health,
            d.failures,
            round(d.downtime_s, 2),
        ]
        for d in devices
    ]
    return render_table(
        ["device", "requests", "busy s", "busy frac",
         "migr in", "migr out", "kv swap s", "kv shared MB", "dedup",
         "occ mean", "occ peak", "health", "fail", "down s"],
        rows,
        title=title,
    )


def compare_policies(
    metrics_by_policy: Mapping[str, FleetMetrics], title: str | None = None
) -> str:
    """Side-by-side table of one workload served under several schedulers.

    ``metrics_by_policy`` maps a scheduler policy name to the
    :class:`FleetMetrics` of the run it produced (same submitted requests,
    same seed). Rows keep the mapping's insertion order, so callers
    control which policy is the baseline on top.
    """
    if not metrics_by_policy:
        raise ValueError("need at least one policy to compare")
    rows = [
        [
            policy,
            m.completed,
            m.rejected,
            round(m.queue_delay_mean_s, 2),
            round(m.queue_delay_p95_s, 2),
            round(m.latency_mean_s, 2),
            round(m.latency_p95_s, 2),
            round(m.makespan_s, 2),
            round(m.cancelled_work_s, 2),
            round(m.kv_swap_s, 2),
            round(m.kv_dedup_ratio, 3),
            round(m.ttft_mean_s, 2),
        ]
        for policy, m in metrics_by_policy.items()
    ]
    return render_table(
        ["scheduler", "done", "rej", "queue mean s", "queue p95 s",
         "latency mean s", "p95 sojourn s", "makespan s", "cancelled s",
         "kv swap s", "kv dedup", "ttft s"],
        rows,
        title=title,
    )


# -- guarded percentile helpers -----------------------------------------


def _guarded_p95(values: Sequence[float]) -> float | None:
    """p95 of a sample that may be empty (None) or a singleton (itself).

    An overloaded open-loop trace can legitimately drop *every* request,
    leaving no latency samples at all — report ``None`` rather than
    raising, and skip the interpolation machinery for one sample.
    """
    if not values:
        return None
    if len(values) == 1:
        return float(values[0])
    return percentile(values, 95.0)


def ttft_p95(records: Sequence[FleetRequestRecord]) -> float | None:
    """p95 TTFT over the records that produced a first token, else None."""
    return _guarded_p95(
        [r.ttft_s for r in records if r.accepted and r.ttft_s is not None]
    )


def latency_p95(records: Sequence[FleetRequestRecord]) -> float | None:
    """p95 sojourn over the completed records, else None."""
    return _guarded_p95([r.sojourn_s for r in records if r.accepted])


# -- SLO attainment and goodput under deadline ---------------------------


def _attainment(flags: Sequence[bool | None]) -> float | None:
    """Fraction of non-None flags that are True; None without any target."""
    judged = [f for f in flags if f is not None]
    if not judged:
        return None
    return sum(judged) / len(judged)


@dataclass(frozen=True, slots=True)
class TenantSLO:
    """One tenant's share of an open-loop run, judged against its SLOs.

    ``slo_attainment`` / ``ttft_attainment`` are the fractions of the
    tenant's requests that met their deadline / TTFT target (misses
    include drops and rejections; ``None`` when the tenant set no such
    target). ``goodput_ud_rps`` is goodput under deadline — *correct*
    answers per second of the run's makespan, counting only completions
    that beat their deadline (requests without a deadline count when
    correct) — the latency-bounded metric test-time scaling systems
    should be judged on.
    """

    tenant: str
    requests: int
    completed: int
    dropped: int
    rejected: int
    slo_attainment: float | None
    ttft_attainment: float | None
    goodput_ud_rps: float
    queue_delay_mean_s: float
    ttft_p95_s: float | None
    latency_p95_s: float | None

    @classmethod
    def aggregate(
        cls,
        tenant: str,
        records: Sequence[FleetRequestRecord],
        correct_by_request: Mapping[str, bool],
        makespan_s: float,
    ) -> "TenantSLO":
        accepted = [r for r in records if r.accepted]
        delays = [r.queue_delay_s for r in accepted]
        in_deadline_correct = sum(
            1
            for r in accepted
            if r.deadline_met is not False
            and correct_by_request.get(r.request_id, False)
        )
        return cls(
            tenant=tenant,
            requests=len(records),
            completed=len(accepted),
            dropped=sum(r.dropped for r in records),
            rejected=sum(not r.accepted and not r.dropped for r in records),
            slo_attainment=_attainment([r.deadline_met for r in records]),
            ttft_attainment=_attainment([r.ttft_slo_met for r in records]),
            goodput_ud_rps=(
                in_deadline_correct / makespan_s if makespan_s > 0 else 0.0
            ),
            queue_delay_mean_s=(sum(delays) / len(delays)) if delays else 0.0,
            ttft_p95_s=ttft_p95(records),
            latency_p95_s=latency_p95(records),
        )


def tenant_slo_rollup(
    records: Sequence[FleetRequestRecord],
    correct_by_request: Mapping[str, bool],
) -> tuple[TenantSLO, ...]:
    """Per-tenant SLO rows over one run's records, sorted by tenant name.

    Records without a tenant label (closed-loop submissions) group under
    ``"-"``. Every tenant's goodput is normalized by the same fleet-wide
    makespan, so the rows add up to the fleet's goodput under deadline.
    """
    makespan = max((r.finish_s for r in records if r.accepted), default=0.0)
    by_tenant: dict[str, list[FleetRequestRecord]] = {}
    for record in records:
        by_tenant.setdefault(record.tenant or "-", []).append(record)
    return tuple(
        TenantSLO.aggregate(tenant, rows, correct_by_request, makespan)
        for tenant, rows in sorted(by_tenant.items())
    )


def _pct(value: float | None) -> object:
    return "-" if value is None else f"{100.0 * value:.1f}%"


def _opt(value: float | None, digits: int = 2) -> object:
    return "-" if value is None else round(value, digits)


def tenant_table(
    slos: Sequence[TenantSLO], title: str | None = None
) -> str:
    """Side-by-side per-tenant SLO table (compare_policies-style)."""
    if not slos:
        raise ValueError("need at least one tenant to tabulate")
    rows = [
        [
            s.tenant,
            s.requests,
            s.completed,
            s.dropped,
            s.rejected,
            _pct(s.slo_attainment),
            _pct(s.ttft_attainment),
            round(s.goodput_ud_rps, 4),
            round(s.queue_delay_mean_s, 2),
            _opt(s.ttft_p95_s),
            _opt(s.latency_p95_s),
        ]
        for s in slos
    ]
    return render_table(
        ["tenant", "req", "done", "drop", "rej", "slo att", "ttft att",
         "goodput/ddl", "queue mean s", "ttft p95 s", "p95 sojourn s"],
        rows,
        title=title,
    )


def queue_depth_series(
    records: Sequence[FleetRequestRecord],
) -> tuple[tuple[float, int], ...]:
    """Step series ``(time, waiting)`` of admitted-but-unserved requests.

    A request waits from its arrival until service starts (or until it is
    dropped at deadline expiry); admission-rejected requests never enter
    the queue. Ties resolve departures before arrivals, so the depth at a
    shared timestamp is the post-transition value. The series is the
    overload picture of an open-loop run: closed-loop drains keep it at
    ~pool size, a 2x-oversubscribed trace grows it without bound.
    """
    events: list[tuple[float, int]] = []
    for record in records:
        if record.dropped:
            events.append((record.arrival_s, +1))
            events.append((record.finish_s, -1))
        elif record.accepted:
            events.append((record.arrival_s, +1))
            events.append((record.start_s, -1))
    events.sort()
    series: list[tuple[float, int]] = []
    depth = 0
    for time, delta in events:
        depth += delta
        if series and series[-1][0] == time:
            series[-1] = (time, depth)
        else:
            series.append((time, depth))
    return tuple(series)


def _depth_stats(
    series: Sequence[tuple[float, int]], horizon_s: float, threshold: int
) -> tuple[int, float, float]:
    """(peak, time-weighted mean, fraction of horizon at >= threshold)."""
    if not series or horizon_s <= 0:
        return 0, 0.0, 0.0
    peak = max(depth for _, depth in series)
    weighted = 0.0
    above = 0.0
    for (t0, depth), (t1, _) in zip(series, series[1:]):
        weighted += depth * (t1 - t0)
        if depth >= threshold:
            above += t1 - t0
    tail = horizon_s - series[-1][0]
    if tail > 0:
        weighted += series[-1][1] * tail
        if series[-1][1] >= threshold:
            above += tail
    return peak, weighted / horizon_s, above / horizon_s


@dataclass(frozen=True, slots=True)
class SLOSummary:
    """Fleet-wide SLO view of one (typically open-loop) run.

    ``overload_fraction`` is the fraction of the makespan with at least
    ``devices`` requests waiting — sustained demand beyond what the pool
    can start, the signature of an open-loop trace above the sustainable
    rate.
    """

    requests: int
    completed: int
    dropped: int
    rejected: int
    slo_attainment: float | None
    ttft_attainment: float | None
    goodput_ud_rps: float
    queue_depth_peak: int
    queue_depth_mean: float
    overload_fraction: float
    makespan_s: float
    #: Fault-induced losses and the served-over-offered ratio — the
    #: availability the SLO view is judged against under fault injection.
    requests_lost: int = 0
    availability: float = 1.0

    @classmethod
    def aggregate(
        cls,
        records: Sequence[FleetRequestRecord],
        correct_by_request: Mapping[str, bool],
        pool_size: int | None = None,
    ) -> "SLOSummary":
        if not records:
            raise ValueError("cannot aggregate an empty fleet run")
        accepted = [r for r in records if r.accepted]
        makespan = max((r.finish_s for r in accepted), default=0.0)
        if makespan == 0.0 and records:
            # Every request shed: the run still spans until the last drop.
            makespan = max(r.finish_s for r in records)
        in_deadline_correct = sum(
            1
            for r in accepted
            if r.deadline_met is not False
            and correct_by_request.get(r.request_id, False)
        )
        series = queue_depth_series(records)
        peak, mean, overload = _depth_stats(
            series, makespan, max(1, pool_size or 1)
        )
        return cls(
            requests=len(records),
            completed=len(accepted),
            dropped=sum(r.dropped for r in records),
            rejected=sum(not r.accepted and not r.dropped for r in records),
            slo_attainment=_attainment([r.deadline_met for r in records]),
            ttft_attainment=_attainment([r.ttft_slo_met for r in records]),
            goodput_ud_rps=(
                in_deadline_correct / makespan if makespan > 0 else 0.0
            ),
            queue_depth_peak=peak,
            queue_depth_mean=mean,
            overload_fraction=overload,
            makespan_s=makespan,
            requests_lost=sum(r.lost for r in records),
            availability=len(accepted) / len(records),
        )

    def summary_rows(self) -> list[list[object]]:
        return [
            ["requests", self.requests],
            ["completed", self.completed],
            ["dropped", self.dropped],
            ["rejected", self.rejected],
            ["lost", self.requests_lost],
            ["availability", _pct(self.availability)],
            ["slo attainment", _pct(self.slo_attainment)],
            ["ttft attainment", _pct(self.ttft_attainment)],
            ["goodput under deadline /s", round(self.goodput_ud_rps, 4)],
            ["queue depth peak", self.queue_depth_peak],
            ["queue depth mean", round(self.queue_depth_mean, 2)],
            ["overload fraction", round(self.overload_fraction, 3)],
            ["makespan s", round(self.makespan_s, 2)],
        ]

    def table(self, title: str | None = None) -> str:
        return render_table(["metric", "value"], self.summary_rows(), title=title)


# -- heterogeneous routing: per-lane-class rollups and the frontier -------


@dataclass(frozen=True, slots=True)
class LaneClassStats:
    """One lane class's share of a heterogeneous fleet run.

    ``routed`` counts requests the router's initial decision sent to the
    class; ``completed``/``escalated_in`` count requests that *settled*
    on it (an escalated request settles on a bigger class than it was
    routed to). ``accuracy`` is judged over the class's settled requests
    (None when the class settled nothing).
    """

    lane_class: str
    routed: int
    completed: int
    escalated_in: int
    correct: int
    accuracy: float | None
    latency_mean_s: float
    latency_p95_s: float | None
    device_time_mean_s: float

    @classmethod
    def aggregate(
        cls,
        lane_class: str,
        routed: int,
        records: Sequence[FleetRequestRecord],
        correct_by_request: Mapping[str, bool],
    ) -> "LaneClassStats":
        sojourns = [r.sojourn_s for r in records]
        correct = sum(
            1 for r in records if correct_by_request.get(r.request_id, False)
        )
        return cls(
            lane_class=lane_class,
            routed=routed,
            completed=len(records),
            escalated_in=sum(1 for r in records if r.escalations > 0),
            correct=correct,
            accuracy=(correct / len(records)) if records else None,
            latency_mean_s=(
                sum(sojourns) / len(sojourns) if sojourns else 0.0
            ),
            latency_p95_s=_guarded_p95(sojourns),
            device_time_mean_s=(
                sum(r.device_seconds for r in records) / len(records)
                if records else 0.0
            ),
        )


def lane_class_rollup(
    records: Sequence[FleetRequestRecord],
    correct_by_request: Mapping[str, bool],
) -> tuple[LaneClassStats, ...]:
    """Per-lane-class accuracy/latency rows, sorted by class name.

    Records that never reached a lane (rejected, dropped before service)
    contribute to their routed class's ``routed`` count but to no class's
    completion statistics.
    """
    classes = sorted(
        {r.lane_class for r in records if r.lane_class is not None}
        | {r.routed_class for r in records if r.routed_class is not None}
    )
    return tuple(
        LaneClassStats.aggregate(
            cls_name,
            sum(1 for r in records if r.routed_class == cls_name),
            [r for r in records if r.accepted and r.lane_class == cls_name],
            correct_by_request,
        )
        for cls_name in classes
    )


def lane_class_table(
    stats: Sequence[LaneClassStats], title: str | None = None
) -> str:
    """Render the per-lane-class rollup of one heterogeneous fleet run."""
    if not stats:
        raise ValueError("need at least one lane class to tabulate")
    rows = [
        [
            s.lane_class,
            s.routed,
            s.completed,
            s.escalated_in,
            _pct(s.accuracy),
            round(s.latency_mean_s, 2),
            _opt(s.latency_p95_s),
            round(s.device_time_mean_s, 2),
        ]
        for s in stats
    ]
    return render_table(
        ["lane class", "routed", "done", "escal in", "accuracy",
         "latency mean s", "latency p95 s", "device s"],
        rows,
        title=title,
    )


def router_decisions(
    records: Sequence[FleetRequestRecord],
) -> dict[str, int]:
    """Initial routing decisions: lane class → requests sent there.

    Escalations and crash failovers do not move a request between keys —
    the map audits what the router decided at admission, sorted by class
    name for stable rendering.
    """
    counts: dict[str, int] = {}
    for record in records:
        if record.routed_class is not None:
            counts[record.routed_class] = counts.get(record.routed_class, 0) + 1
    return dict(sorted(counts.items()))


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    """One serving configuration's position on the accuracy-cost plane.

    ``accuracy`` is correct answers over *all* offered requests (shed or
    rejected work scores zero — a pool does not get accuracy credit for
    requests it refused); the cost axes are mean sojourn latency and mean
    device seconds per completed request.
    """

    label: str
    requests: int
    accuracy: float
    latency_mean_s: float
    device_time_mean_s: float

    def dominates(
        self, other: "FrontierPoint", accuracy_tolerance: float = 0.0
    ) -> bool:
        """Pareto dominance with an accuracy tolerance.

        True when this point is at least as accurate as ``other`` (within
        ``accuracy_tolerance``), no slower on mean latency, and strictly
        better on at least one of the two axes.
        """
        at_least_as_accurate = (
            self.accuracy >= other.accuracy - accuracy_tolerance
        )
        no_slower = self.latency_mean_s <= other.latency_mean_s
        strictly_better = (
            self.accuracy > other.accuracy
            or self.latency_mean_s < other.latency_mean_s
        )
        return at_least_as_accurate and no_slower and strictly_better


def frontier_point(
    label: str,
    records: Sequence[FleetRequestRecord],
    correct_by_request: Mapping[str, bool],
) -> FrontierPoint:
    """Collapse one run into its accuracy-vs-cost frontier point."""
    if not records:
        raise ValueError("cannot place an empty run on the frontier")
    accepted = [r for r in records if r.accepted]
    correct = sum(
        1 for r in accepted if correct_by_request.get(r.request_id, False)
    )
    sojourns = [r.sojourn_s for r in accepted]
    return FrontierPoint(
        label=label,
        requests=len(records),
        accuracy=correct / len(records),
        latency_mean_s=(sum(sojourns) / len(sojourns)) if sojourns else 0.0,
        device_time_mean_s=(
            sum(r.device_seconds for r in accepted) / len(accepted)
            if accepted else 0.0
        ),
    )
