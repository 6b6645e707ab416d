"""Multi-device serving: ``DevicePool`` lanes and placement policies.

The fleet used to be hard-wired to one :class:`~repro.core.server.TTSServer`.
A :class:`DevicePool` generalizes that to N simulated devices, each a
:class:`PooledDevice` lane holding

* its own :class:`~repro.core.server.TTSServer` (the pool only requires a
  shared dataset and seed; model pairing, dtype, device spec and memory
  fraction are per-lane axes via :class:`~repro.routing.lanes.LaneSpec` —
  lanes of one *lane class*, same deployed pairing, are interchangeable
  for a session, and the router decides which class sees a request),
* its own :class:`~repro.engine.clock.SimClock` timeline (all lanes share
  one time origin, so lane times are directly comparable and the fleet can
  interleave them deterministically), and
* a per-device :class:`~repro.hardware.memory.KVLedger` that accounts the
  KV of the sessions co-resident on that device as refcounted segment
  claims against a lane-wide radix tree. Interleaving schedulers pause
  sessions with KV still resident; when co-residents oversubscribe the
  budget, the ledger swaps the least-recently-touched KV to host memory
  and the fleet charges the PCIe time — closing the "paused KV is free"
  simplification flagged in the ROADMAP. The lane's ``kv_sharing``
  policy decides only how it *names* a session's claims
  (:meth:`PooledDevice.session_claims`): ``"off"`` — one private claim
  per session, so sessions are evicted, restored and billed whole;
  ``"prefix"`` — the session's segment lineage, so prefix bytes shared
  by co-resident sessions (racing replicas, same-problem requests) are
  billed once and swapped only in unique bytes.

Placement — *which device serves a new request* — is a policy axis
orthogonal to request scheduling (*which session gets the next round on a
device*). :class:`PlacementPolicy` implementations are registered in
:data:`PLACEMENTS` (``first_fit``, ``least_loaded``, ``kv_balanced``,
``prefix_affinity``), a :class:`~repro.utils.registry.Registry` like
:data:`~repro.core.scheduler.SCHEDULERS`. Note that ``prefix_affinity``
names *two* policies on purpose: the scheduler of that name
(``--scheduler prefix_affinity``) orders the sessions already resident on
one lane so consecutive rounds share maximal KV prefixes, while the
placement of that name (``--placement prefix_affinity``,
:class:`PrefixAffinityPlacement`) decides which lane a request lands on
in the first place — it routes to the lane already holding the most of
the request's planned prefix bytes, with a least-loaded tie-break. Both
argmaxes go through :func:`~repro.core.prefix_sched.max_overlap_choice`
so the two notions of affinity cannot drift apart.

A single-device pool with the fifo scheduler is byte-identical to the
pre-pool fleet (pinned by ``tests/goldens/fleet_fifo_goldens.json``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Collection, Sequence

from repro.core import claims as lane_claims
from repro.core.config import check_axis
from repro.core.server import TTSServer
from repro.engine.clock import SimClock
from repro.errors import ConfigError, FaultError
from repro.hardware.memory import KVLedger, KVSegment
from repro.hardware.offload import OffloadLink
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ServerConfig
    from repro.core.fleet import FleetRequest, _RequestState
    from repro.core.session import SolveSession
    from repro.routing.lanes import LaneSpec
    from repro.workloads.problem import Dataset, Problem

__all__ = [
    "LaneHealth",
    "PooledDevice",
    "DevicePool",
    "PlacementPolicy",
    "FirstFitPlacement",
    "LeastLoadedPlacement",
    "KvBalancedPlacement",
    "PrefixAffinityPlacement",
    "PLACEMENTS",
]


class LaneHealth(Enum):
    """Lifecycle state of one pool lane.

    ``UP`` serves normally, ``DEGRADED`` serves with a handicap (scaled
    PCIe link and/or a shrunk KV budget), ``DOWN`` serves nothing — its
    resident KV is gone and placement must route around it until
    :meth:`PooledDevice.recover_lane` brings it back empty.
    """

    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


@dataclass
class PooledDevice:
    """One device lane of a :class:`DevicePool`.

    Owns the lane's server, clock and KV ledger, plus the load statistics
    placement policies read (maintained by the fleet as requests are
    placed and settled) and the swap and busy-time counters the
    per-device metrics rollup reports.
    """

    index: int
    server: TTSServer
    clock: SimClock = field(default=None)  # type: ignore[assignment]
    #: Sized from ``server.kv_budget_bytes``.
    ledger: KVLedger = field(init=False)
    #: How the lane names a session's KV to its ledger: ``"off"`` as one
    #: private claim (every co-resident session is billed its full
    #: footprint), ``"prefix"`` as the session's segment lineage (prefix
    #: segments shared across sessions are billed once). See
    #: :meth:`session_claims` / :meth:`planned_claims`.
    kv_sharing: str = "off"
    #: Who joins each iteration of the fleet's
    #: :class:`~repro.core.batcher.RoundBatcher` on this lane: ``"off"``
    #: runs the scheduler's single pick (time-slicing), ``"continuous"``
    #: every co-resident session that has arrived — their rounds run as
    #: one jointly-costed batch.
    batching: str = "off"
    # -- fleet-maintained load state (placement inputs) -------------------
    #: Requests holding a claim here, by seq (a crash visits them all);
    #: its size is the load placement reads.
    claimants: dict[int, "_RequestState"] = field(
        default_factory=dict, init=False, compare=False
    )
    planned_kv_bytes: int = 0
    #: Planned-claim refcounts of admitted-but-live requests: lane-tree
    #: node id → ``[refcount, claim bytes]``. Lets dedup-aware admission
    #: and ``prefix_affinity`` placement see a same-prefix *burst* —
    #: requests admitted back to back before any of them has registered
    #: real KV on the ledger. Maintained symmetrically by the fleet's
    #: place/release paths; empty on lanes that plan no claims
    #: (``kv_sharing="off"``).
    planned_segments: dict[int, list[int]] = field(default_factory=dict)
    #: :meth:`planned_claims` by problem id.
    _planned: dict[str, tuple[KVSegment, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # -- rollup counters ---------------------------------------------------
    kv_swap_s: float = 0.0
    #: Placement decisions that landed a request here, and how many of
    #: them found some of the request's planned prefix already on the
    #: lane (their ratio is the fleet's affinity hit ratio).
    placements: int = 0
    affinity_hits: int = 0
    #: Admission accounting of requests that planned claims: full planned
    #: footprints versus the unique bytes actually billed after dedup.
    planned_admitted_bytes: int = 0
    unique_admitted_bytes: int = 0
    #: Device seconds of every session that ran here, whichever request
    #: it served and however that request ended (settled, escalated past
    #: or voided by a crash): the lane's share of the records'
    #: ``device_seconds``.
    busy_s: float = 0.0
    #: Batched-iteration rollups (filled by the round batcher on a
    #: ``"continuous"`` lane only, so an ``"off"`` lane reports none): how
    #: many generation sub-batches the lane launched, the total member
    #: rounds they contained, and the widest batch seen.
    batch_iterations: int = 0
    batch_member_rounds: int = 0
    batch_peak_occupancy: int = 0
    # -- fault state (driven by the fleet's fault injector) ----------------
    #: Multiplier on the lane's PCIe bandwidth (1.0 = nominal).
    link_scale: float = 1.0
    #: Current KV-budget shrink factor (1.0 = full budget).
    kv_pressure_fraction: float = 1.0
    failures: int = 0
    recoveries: int = 0
    downtime_s: float = 0.0
    #: The crash instant while DOWN, else None (:attr:`health` reads it).
    failed_at_s: float | None = None
    stall_s: float = 0.0

    def __post_init__(self) -> None:
        check_axis("kv_sharing", self.kv_sharing)
        check_axis("batching", self.batching)
        if self.clock is None:
            self.clock = SimClock(label=self.device_id)
        self.ledger = KVLedger(self.server.kv_budget_bytes)

    @cached_property
    def device_id(self) -> str:
        """Stable lane identifier, e.g. ``"dev0:rtx4090"``.

        The ``dev{index}:`` prefix keeps ids unique even when several
        lanes share one device spec (``--devices rtx4090,rtx4090``).
        Built once per lane (``index`` and ``server`` are never
        reassigned), so every record the lane writes shares one string.
        """
        return f"dev{self.index}:{self.spec.name}"

    @cached_property
    def lane_class(self) -> str:
        """The deployed model pairing this lane serves, e.g.
        ``"qwen2.5-math-1.5b-int8+skywork-o1-prm-1.5b-int8"``.

        Lanes of one class are interchangeable for a session (same search
        results); routing and per-class metrics key off this. Built once
        per lane, like :attr:`device_id`.
        """
        return f"{self.server.gen_model.name}+{self.server.ver_model.name}"

    @property
    def model_cost_bytes(self) -> int:
        """Deployed weight bytes of the lane's pairing — the routers' cost axis."""
        return self.server.gen_model.weight_bytes + self.server.ver_model.weight_bytes

    @property
    def spec(self):
        return self.server.device

    @property
    def link(self):
        if self.link_scale == 1.0:
            return self.server.link
        base = self.server.link
        return OffloadLink(
            device=replace(
                base.device,
                pcie_bandwidth=base.device.pcie_bandwidth * self.link_scale,
            ),
            fixed_latency=base.fixed_latency,
        )

    @property
    def kv_load_fraction(self) -> float:
        """Planned KV claims of live requests over the lane's KV budget."""
        return self.planned_kv_bytes / self.ledger.capacity_bytes

    # -- claim naming: the one place ``kv_sharing`` becomes claims ----------

    def session_claims(
        self, session: "SolveSession"
    ) -> tuple[Sequence[KVSegment], Collection[int] | None]:
        """What changed in ``session``'s KV since its last report, as this
        lane names it to its ledger: ``(upserts, vanished)``, for
        :meth:`KVLedger.charge_growth_segments`.

        The lane only chooses between the session's two namings. A
        ``"prefix"`` lane relays its lineage changes
        (:meth:`~repro.core.claims.ClaimNames.changes`); ``vanished`` is
        None when the session can only report its whole lineage (it was
        just rebound, or switched models under offloading), which then
        replaces every claim the ledger holds for it. An ``"off"`` lane
        sends its private claim, or none
        (:meth:`~repro.core.claims.ClaimNames.private`).
        """
        if self.kv_sharing == "prefix":
            return session.claim_names.changes(session)
        return session.claim_names.private(session)

    def planned_claims(self, problem: "Problem") -> tuple[KVSegment, ...]:
        """The claims a session for ``problem`` would register at setup.

        The prompt roots on a ``"prefix"`` lane — computable before any
        session exists, so admission and placement can probe with them
        (memoised per problem: they are a pure function of it). None on an
        ``"off"`` lane: a private claim is named after a session that does
        not exist yet and could overlap nothing anyway.
        """
        if self.kv_sharing != "prefix":
            return ()
        claims = self._planned.get(problem.problem_id)
        if claims is None:
            claims = self._planned[problem.problem_id] = lane_claims.planned_claims(
                self.server, problem
            )
        return claims

    # -- sharing-aware placement/admission probes --------------------------

    def prefix_overlap_bytes(self, claims: Sequence[KVSegment]) -> int:
        """Bytes of ``claims`` this lane holds or is committed to hold.

        The *guaranteed* overlap dedup-aware admission bills against: per
        claim, the larger of the ledger's resident copy and a co-admitted
        request's planned claim (:attr:`planned_segments`), never more
        than the claim itself. Zero when nothing on the lane answers to
        the claims' names — always, where sessions hold private claims.
        """
        total = 0
        for claim in claims:
            held = self.ledger.resident_segment_bytes(claim.node_id)
            planned = self.planned_segments.get(claim.node_id)
            if planned is not None and planned[1] > held:
                held = planned[1]
            total += min(claim.num_bytes, held)
        return total

    def prefix_affinity_bytes(self, claims: Sequence[KVSegment]) -> int:
        """Affinity score of this lane for a request planning ``claims``.

        The *opportunistic* overlap ``prefix_affinity`` placement ranks
        lanes by: everything resident under each planned root's lane-tree
        subtree (same-problem canonical sessions re-derive identical step
        content, so their whole resident lineage is shareable), or a
        co-admitted request's still-pending planned claim when that is
        larger. A score, not a bill — admission uses the conservative
        :meth:`prefix_overlap_bytes` instead.
        """
        total = 0
        for claim in claims:
            held = self.ledger.resident_subtree_bytes(claim.node_id)
            planned = self.planned_segments.get(claim.node_id)
            if planned is not None and planned[1] > held:
                held = planned[1]
            total += held
        return total

    def note_planned_segments(self, claims: Sequence[KVSegment]) -> None:
        """Refcount a placed request's planned claims (burst dedup)."""
        for claim in claims:
            entry = self.planned_segments.setdefault(claim.node_id, [0, 0])
            entry[0] += 1
            if claim.num_bytes > entry[1]:
                entry[1] = claim.num_bytes

    def forget_planned_segments(self, claims: Sequence[KVSegment]) -> None:
        """Drop one placed request's planned-claim refcounts."""
        for claim in claims:
            entry = self.planned_segments.get(claim.node_id)
            if entry is None:
                continue
            entry[0] -= 1
            if entry[0] <= 0:
                del self.planned_segments[claim.node_id]

    # -- fault lifecycle ---------------------------------------------------

    @property
    def health(self) -> LaneHealth:
        """DOWN from a crash until its repair, DEGRADED while the link is
        cut or the KV budget shrunk, else UP."""
        if self.failed_at_s is not None:
            return LaneHealth.DOWN
        if self.link_scale != 1.0 or self.kv_pressure_fraction != 1.0:
            return LaneHealth.DEGRADED
        return LaneHealth.UP

    @property
    def serving(self) -> bool:
        """Whether the lane can run or accept sessions (not DOWN)."""
        return self.failed_at_s is None

    def fail_lane(self, now: float | None = None) -> list[str]:
        """Kill the lane: mark it DOWN and drop every resident KV owner.

        The lane clock advances to the crash instant (a dead lane cannot
        be behind the failure it suffered); the ledger releases every
        owner — walking the refcounted segment claims, so shared segments
        are freed exactly when their last co-resident owner dies. Returns
        the released owner ids: sessions that held KV here (the fleet
        finds the requests to void through :attr:`claimants`).
        """
        if self.failed_at_s is not None:
            raise FaultError(f"lane {self.device_id} is already down")
        if now is not None:
            self.clock.advance_to(max(now, self.clock.now))
        self.failures += 1
        # The outage starts at the crash, which a lane clock that ran past
        # it must not move: the repair window is the configured MTTR.
        self.failed_at_s = self.clock.now if now is None else now
        released = list(self.ledger.owners)
        for owner in released:
            self.ledger.release(owner)
        return released

    def recover_lane(self, now: float | None = None) -> None:
        """Bring a DOWN lane back UP, empty, at time ``now``.

        The repair window (``now - failed_at``) accrues to ``downtime_s``
        — the numerator of the fleet's MTTR metric. Degradations do not
        survive a rebuild: link scale and KV budget reset to nominal.
        """
        if self.failed_at_s is None:
            raise FaultError(
                f"lane {self.device_id} is {self.health.value}, not down"
            )
        if now is not None:
            self.clock.advance_to(max(now, self.clock.now))
        self.downtime_s += self.clock.now - self.failed_at_s
        self.recoveries += 1
        self.failed_at_s = None
        self.link_scale = 1.0
        if self.kv_pressure_fraction != 1.0:
            self.ledger.resize(self.server.kv_budget_bytes)
            self.kv_pressure_fraction = 1.0

    def stall(self, duration_s: float) -> None:
        """Freeze the lane for ``duration_s``: its clock jumps, work waits."""
        if duration_s <= 0:
            raise FaultError(f"stall duration must be > 0 (got {duration_s})")
        self.clock.advance(duration_s)
        self.stall_s += duration_s

    def degrade_link(self, factor: float) -> None:
        """Scale the lane's PCIe bandwidth by ``factor``."""
        if not 0.0 < factor <= 1.0:
            raise FaultError(f"link factor must be in (0, 1] (got {factor})")
        self.link_scale = factor

    def restore_link(self) -> None:
        """Return the PCIe link to nominal bandwidth."""
        self.link_scale = 1.0

    def apply_kv_pressure(self, fraction: float) -> list[tuple[int, int]]:
        """Shrink the KV budget to ``fraction`` of capacity; returns evictions.

        Resident KV above the shrunk budget is evicted immediately (LRU,
        shared segments by leaf frontier) — the eviction storm's PCIe
        write-out is the caller's to charge; victims pay their restores
        through the ordinary resume path.
        """
        if not 0.0 < fraction < 1.0:
            raise FaultError(f"kv fraction must be in (0, 1) (got {fraction})")
        evicted = self.ledger.resize(
            max(1, int(self.server.kv_budget_bytes * fraction))
        )
        self.kv_pressure_fraction = fraction
        return evicted

    def relieve_kv_pressure(self) -> None:
        """Restore the full KV budget after a pressure window."""
        if self.kv_pressure_fraction == 1.0:
            return
        self.ledger.resize(self.server.kv_budget_bytes)
        self.kv_pressure_fraction = 1.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PooledDevice({self.device_id}, t={self.clock.now:.3f}, "
            f"live={len(self.claimants)}, health={self.health.value})"
        )


class DevicePool:
    """N simulated devices a fleet schedules sessions across.

    Build one from a shared config with :meth:`build` (one server per
    device name, identical models/dataset/seed), or from per-lane
    :class:`~repro.routing.lanes.LaneSpec`s (``lanes=``) for a
    *heterogeneous* pool — big-model lanes next to quantized small-model
    lanes — or hand in prepared :class:`PooledDevice` lanes. The pool only
    validates that every lane shares the seed and dataset: search results
    are content-keyed, so any lane of one *lane class* (same deployed
    pairing) serves a request identically, and the router decides which
    class sees it.
    """

    def __init__(self, devices: Sequence[PooledDevice]) -> None:
        if not devices:
            raise ConfigError("a DevicePool needs at least one device")
        reference = devices[0].server
        for lane in devices[1:]:
            server = lane.server
            if (
                server.config.seed != reference.config.seed
                or server.dataset is not reference.dataset
            ):
                raise ConfigError(
                    "every pool device must share the seed and dataset so "
                    "answers stay content-keyed; models, dtypes and device "
                    "specs may differ per lane "
                    f"(lane {lane.device_id} disagrees with "
                    f"{devices[0].device_id})"
                )
        self._devices = tuple(devices)

    @classmethod
    def build(
        cls,
        config: "ServerConfig",
        dataset: "Dataset",
        device_names: Sequence[str] | None = None,
        kv_sharing: str = "off",
        batching: str = "off",
        lanes: "Sequence[LaneSpec] | None" = None,
    ) -> "DevicePool":
        """One lane per device name, servers sharing everything but the device.

        ``device_names=None`` builds the single-device pool of
        ``config.device_name`` — the exact pre-pool fleet.
        ``kv_sharing="prefix"`` makes every lane name sessions' KV by
        segment lineage, so its ledger dedups prefix segments across
        co-resident sessions.
        ``batching="continuous"`` has each iteration of the fleet's
        :class:`~repro.core.batcher.RoundBatcher` coalesce every lane's
        co-resident sessions' rounds into jointly-costed batches (under
        ``"off"`` an iteration runs the scheduler's single pick).
        ``lanes=[LaneSpec(...), ...]`` builds a *heterogeneous* pool
        instead: each lane gets its own model pairing, device, dtype
        (via :func:`~repro.models.quantize.quantized`) and optional
        per-lane memory fraction, all anchored on ``config``'s seed and
        remaining knobs. Mutually exclusive with ``device_names``.
        Lanes whose seed and model pair match share one generator/PRM pair,
        and with it the step values it derives; two pools share nothing.
        """
        if lanes is not None:
            if device_names is not None:
                raise ConfigError(
                    "pass either lanes=[LaneSpec...] or device_names, not both"
                )
            if not lanes:
                raise ConfigError("lanes must not be empty")
            overrides = []
            for spec in lanes:
                lane = {
                    "device_name": spec.device_name,
                    "model_config": spec.model_config,
                    "quantization": spec.dtype,
                }
                if spec.memory_fraction is not None:
                    lane["memory_fraction"] = spec.memory_fraction
                overrides.append(lane)
        elif device_names is None:
            overrides = [{}]
        else:
            overrides = [{"device_name": name} for name in device_names]
            if not overrides:
                raise ConfigError("device_names must not be empty")
        pairs: dict = {}
        return cls([
            PooledDevice(
                index=index,
                server=TTSServer(config.with_overrides(**lane), dataset, pairs),
                kv_sharing=kv_sharing,
                batching=batching,
            )
            for index, lane in enumerate(overrides)
        ])

    # -- container surface -------------------------------------------------

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self):
        return iter(self._devices)

    def __getitem__(self, index: int) -> PooledDevice:
        return self._devices[index]

    @property
    def devices(self) -> tuple[PooledDevice, ...]:
        return self._devices


# -- placement policies ------------------------------------------------------


class PlacementPolicy(ABC):
    """Which pool device serves a newly admitted request.

    Policies see only lanes *eligible* for the request (devices whose
    allocator can plan its beam budget inside their KV budget; the fleet
    filters first) and must be deterministic functions of lane state.
    """

    name: str = "abstract"
    description: str = ""

    @abstractmethod
    def choose(
        self,
        request: "FleetRequest",
        devices: Sequence[PooledDevice],
        now: float,
    ) -> PooledDevice:
        """Pick the lane that will serve ``request`` (``devices`` is non-empty)."""


class FirstFitPlacement(PlacementPolicy):
    """Lowest-indexed eligible device — the single-device-compatible default.

    With one lane this degenerates to the pre-pool fleet exactly; with
    many it packs everything onto the first device that can plan the
    request, leaving the rest idle (a baseline for the balancing
    policies to beat).
    """

    name = "first_fit"
    description = "lowest-indexed device able to serve the request"

    def choose(self, request, devices, now):
        return min(devices, key=lambda lane: lane.index)


class LeastLoadedPlacement(PlacementPolicy):
    """Fewest live requests; ties go to the lane furthest behind in time.

    The classic join-the-shortest-queue heuristic: spreading arrivals
    across lanes drains the pool in parallel and cuts mean sojourn versus
    any single device at the same arrival rate. It counts requests, not
    device speed, so on a heterogeneous pool the slow lane's share can
    set the tail.
    """

    name = "least_loaded"
    description = "device with the fewest live requests (ties: earliest clock)"

    def choose(self, request, devices, now):
        return min(
            devices,
            key=lambda lane: (len(lane.claimants), lane.clock.now, lane.index),
        )


class KvBalancedPlacement(PlacementPolicy):
    """Lowest planned-KV pressure relative to each lane's KV budget.

    Heterogeneous pools have unequal budgets: a 24 GB lane should absorb
    more KV-heavy requests than a 12 GB one before either starts swapping.
    Balancing the *fraction* (planned claims / budget) rather than raw
    bytes keeps both lanes equally far from their oversubscription cliff.
    """

    name = "kv_balanced"
    description = "device with the lowest planned-KV fraction of its budget"

    def choose(self, request, devices, now):
        return min(
            devices,
            key=lambda lane: (lane.kv_load_fraction, len(lane.claimants), lane.index),
        )


class PrefixAffinityPlacement(PlacementPolicy):
    """Route to the lane already holding the most of the request's prefix.

    Scores each eligible lane by :meth:`PooledDevice.prefix_affinity_bytes`
    over the request's *planned* claims (the prompt-root segments both
    model caches would register at admission, per
    :meth:`PooledDevice.planned_claims`) — counting the whole
    resident lineage under those roots, since same-problem canonical
    sessions regenerate identical step KV. The argmax goes through the
    same :func:`repro.core.prefix_sched.max_overlap_choice` helper as the
    ``prefix_affinity`` *scheduler*, with a least-loaded tie-break so a
    sharing-free pool degenerates to :class:`LeastLoadedPlacement`.
    """

    name = "prefix_affinity"
    description = "device holding the most of the request's planned KV prefix (ties: least loaded)"

    def choose(self, request, devices, now):
        # Deferred import: prefix_sched imports pool's siblings.
        from repro.core.prefix_sched import max_overlap_choice

        return max_overlap_choice(
            devices,
            lambda lane: lane.prefix_affinity_bytes(
                lane.planned_claims(request.problem)
            ),
            lambda lane: (len(lane.claimants), lane.clock.now, lane.index),
        )


PLACEMENTS: Registry[Callable[[], PlacementPolicy]] = Registry("placement", {
    FirstFitPlacement.name: FirstFitPlacement,
    LeastLoadedPlacement.name: LeastLoadedPlacement,
    KvBalancedPlacement.name: KvBalancedPlacement,
    PrefixAffinityPlacement.name: PrefixAffinityPlacement,
})
