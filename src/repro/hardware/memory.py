"""GPU memory ledgers.

:class:`MemoryLedger` tracks how a device's usable VRAM is split between
model weights, per-model KV cache partitions, and the reserved slice
(Fig. 9 of the paper). The asymmetric allocator (Sec. 4.3) decides the KV
split; this ledger enforces that the decision is feasible and answers "how
much KV memory is left?".

:class:`KVLedger` tracks the *runtime* KV of the sessions co-resident on
one device of a :class:`~repro.core.pool.DevicePool`. A single session's
plan is guaranteed to fit the device's KV budget by admission control,
but interleaving schedulers pause sessions with their KV still resident —
two KV-heavy sessions can together oversubscribe the device. The ledger
models that contention: when the active session's growth (or a paused
session's restore) does not fit, the least-recently-touched KV of its
neighbours is swapped out to host memory, and the fleet charges the PCIe
write/read time on the device clock. Eviction is bookkeeping here; *time*
is charged by the caller via :class:`~repro.hardware.offload.OffloadLink`.

There is one mechanism — refcounted :class:`KVSegment` claims over a
per-lane :class:`~repro.kvcache.radix.RadixTree` (the paper's Sec. 4.2
structure, lifted from one request's beams to the whole lane) — and
sharing falls out of which claims collide. A lane that names a session's
KV as its segment lineage lets racing replicas (First Finish Search) and
same-problem tenants hold a common prefix once: it is charged once,
evicted leaf-frontier first, and restored in unique bytes only. A lane
that names the same KV as one private claim per session gets whole-session
accounting from the same code, because a private claim collides with
nobody.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import CapacityError
from repro.hardware.device import DeviceSpec
from repro.kvcache.radix import RadixTree
from repro.utils.rng import stable_hash64

__all__ = [
    "KVLedger",
    "KVSegment",
    "MemoryLedger",
    "MemoryReservation",
    "SharedKVLedger",
]


@dataclass(frozen=True, slots=True)
class MemoryReservation:
    """One named allocation inside the ledger."""

    owner: str
    kind: str  # "weights" | "kv"
    num_bytes: int


@dataclass
class MemoryLedger:
    """Accounting of VRAM across weights and KV partitions.

    The ledger is intentionally strict: over-allocation raises
    :class:`~repro.errors.CapacityError` instead of silently clamping,
    because a real serving system would fail to initialize in the same
    situation.
    """

    device: DeviceSpec
    _reservations: dict[tuple[str, str], MemoryReservation] = field(default_factory=dict)

    @property
    def capacity_bytes(self) -> int:
        """Usable VRAM (device capacity minus the reserved fraction)."""
        return self.device.usable_bytes

    @property
    def allocated_bytes(self) -> int:
        return sum(r.num_bytes for r in self._reservations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def reserve(self, owner: str, kind: str, num_bytes: int) -> MemoryReservation:
        """Reserve ``num_bytes`` for ``(owner, kind)``.

        Re-reserving the same key replaces the prior amount (the allocator
        re-partitions KV at runtime when system state changes, Sec. 4.3.1).
        """
        if kind not in ("weights", "kv"):
            raise ValueError("kind must be 'weights' or 'kv'")
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        key = (owner, kind)
        previous = self._reservations.get(key)
        available = self.free_bytes + (previous.num_bytes if previous else 0)
        if num_bytes > available:
            raise CapacityError(
                f"cannot reserve {num_bytes} bytes for {owner}/{kind}: "
                f"only {available} of {self.capacity_bytes} bytes available"
            )
        reservation = MemoryReservation(owner=owner, kind=kind, num_bytes=num_bytes)
        self._reservations[key] = reservation
        return reservation

    def release(self, owner: str, kind: str) -> None:
        """Drop a reservation; releasing a missing key is an error."""
        try:
            del self._reservations[(owner, kind)]
        except KeyError:
            raise CapacityError(f"no reservation for {owner}/{kind}") from None

    def reserved_for(self, owner: str, kind: str) -> int:
        """Bytes currently reserved under ``(owner, kind)`` (0 if none)."""
        reservation = self._reservations.get((owner, kind))
        return reservation.num_bytes if reservation else 0

    def breakdown(self) -> dict[str, int]:
        """Human-readable split: ``{"owner/kind": bytes, ..., "free": bytes}``."""
        result = {f"{o}/{k}": r.num_bytes for (o, k), r in sorted(self._reservations.items())}
        result["free"] = self.free_bytes
        return result


@dataclass(frozen=True, slots=True)
class KVSegment:
    """One claim an owner reports to a :class:`KVLedger`.

    ``node_id``/``parent_id`` are lane-tree node ids — for a lineage
    claim, derived by the session from the stable ``(problem, lineage,
    step)`` segment hashes, namespaced so only sessions whose sampled
    content is actually identical collide; for a private claim, from the
    owner id (:meth:`KVLedger.private_claim`). ``num_bytes`` is this
    owner's KV bytes for the segment. Claims arrive parent-before-child.
    """

    node_id: int
    parent_id: int | None
    num_bytes: int

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")


@dataclass(slots=True)
class _Segment:
    """Ledger-side state of one claimed lane-tree node.

    A segment exists while somebody claims it and is created resident,
    so ``not resident`` always means *swapped out to host*. Owners can
    disagree on length (a shared step one session has fully decoded
    while another still holds a truncated speculative head); the
    physical copy covers the longest claim.
    """

    resident: bool = False
    stamp: int = 0
    owners: dict[str, int] = field(default_factory=dict)  # owner -> bytes
    num_bytes: int = 0  # unique device bytes when resident: longest claim
    logical: int = 0  # sum of the owners' claims


class KVLedger:
    """Runtime accounting of co-resident sessions' KV on one device.

    One mechanism: owners (session ids) hold :class:`KVSegment` claims
    on the nodes of a per-lane :class:`~repro.kvcache.radix.RadixTree`;
    a node claimed by N owners occupies device bytes **once** (sized by
    its longest claim) and carries the refcount. What differs between
    serving policies is only how a lane *names* a session's claims
    (:class:`~repro.core.pool.PooledDevice` decides):

    * a **lineage** — the session's resident cache segments under stable
      content ids — collides with every other session holding the same
      prefix, so racing replicas and same-problem requests bill shared
      bytes once (``kv_sharing="prefix"``);
    * one **private claim** (:meth:`private_claim`) — a root node derived
      from the owner id — collides with nobody, so the owner's whole
      footprint is evicted, restored and billed as a unit
      (``kv_sharing="off"``). The byte-level :meth:`charge_growth` /
      :meth:`admit` are that spelling.

    Invariants the fleet relies on:

    * ``resident_bytes`` is the sum of *unique* resident segment bytes —
      never double-billed across co-resident owners — and an owner's
      logical footprint (``resident_of + swapped_of``) is conserved
      however much of it is physically shared;
    * an owner's KV is fully device-resident while it runs (the fleet
      calls :meth:`restore` before resuming a paused owner, and a growth
      report brings anything swapped back first);
    * when residency would exceed capacity, segments are swapped out
      least-recently-touched first, leaf-frontier first (a prefix never
      leaves before its suffix) and never one the *running* owner's
      claims name;
    * eviction never raises: a lone owner whose plan legitimately fills
      the budget simply occupies it. Oversubscription costs swap *time*
      (charged by the caller from the returned byte counts), never
      correctness;
    * :meth:`restore` re-charges PCIe only for unique bytes actually
      swapped out — segments a co-resident owner kept alive come back
      for free, which is the replica-racing dedup win.

    Evictions are reported as ``(label, bytes)``: a private claim under
    its owner id (never for zero bytes — an owner holding nothing is not
    a write-out), a lineage segment as ``seg:<node>``. All byte movements
    are tallied (``swapped_out_bytes`` / ``swapped_in_bytes`` and the
    ``peak_*`` running peaks) for the per-device fleet metrics rollup.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        self._tree = RadixTree()
        self._segments: dict[int, _Segment] = {}
        self._owner_segs: dict[str, set[int]] = {}
        self._private: dict[str, int] = {}  # owner -> its private node id
        self._labels: dict[int, str] = {}  # private node id -> owner
        self._tick = 0
        # Running totals, updated wherever a claim or a residency bit
        # changes (the property tests recompute them from the segments).
        self._resident = 0  # unique resident bytes
        self._logical = 0  # sum of every claim on a resident segment
        self.swapped_out_bytes = 0
        self.swapped_in_bytes = 0
        self.peak_resident_bytes = 0
        self.peak_logical_bytes = 0
        self.peak_shared_bytes = 0

    # -- introspection ---------------------------------------------------

    @property
    def tree(self) -> RadixTree:
        """The lane's radix tree over currently claimed segments."""
        return self._tree

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def resident_bytes(self) -> int:
        """Unique device-resident bytes."""
        return self._resident

    @property
    def free_bytes(self) -> int:
        return self._capacity - self._resident

    @property
    def logical_resident_bytes(self) -> int:
        """Sum of every owner's resident claims (what no sharing would bill)."""
        return self._logical

    @property
    def shared_bytes(self) -> int:
        """Bytes saved right now by claims colliding on one physical copy."""
        return self._logical - self._resident

    @property
    def dedup_ratio(self) -> float:
        """Logical over physical bytes at the run's resident peak (>= 1)."""
        if self.peak_logical_bytes == 0 or self.peak_resident_bytes == 0:
            return 1.0
        return self.peak_logical_bytes / self.peak_resident_bytes

    @property
    def owners(self) -> list[str]:
        return sorted(self._owner_segs)

    def resident_of(self, owner: str) -> int:
        return sum(
            seg.owners[owner]
            for node in self._owner_segs.get(owner, ())
            if (seg := self._segments[node]).resident
        )

    def swapped_of(self, owner: str) -> int:
        return sum(
            seg.owners[owner]
            for node in self._owner_segs.get(owner, ())
            if not (seg := self._segments[node]).resident
        )

    def segment_owners(self, node_id: int) -> list[str]:
        """Owners currently claiming a segment (for tests/debugging)."""
        seg = self._segments.get(node_id)
        return sorted(seg.owners) if seg else []

    def owner_leaf(self, owner: str) -> int | None:
        """The owner's deepest claimed lane-tree node (None if none).

        Deterministic: maximal depth, ties broken by ascending node id.
        The prefix-affinity scheduler anchors its successor choice here.
        """
        nodes = self._owner_segs.get(owner)
        if not nodes:
            return None
        return min(nodes, key=lambda n: (-self._tree.get(n).depth, n))

    # -- planned-overlap probes (read-only) ------------------------------
    #
    # Sharing-aware placement and dedup-aware admission ask a lane "how
    # much of this request's planned KV do you already hold?" *before*
    # any session exists. Probing never touches stamps, refcounts or
    # peaks, so callers can ask freely without perturbing LRU order.

    def resident_segment_bytes(self, node_id: int) -> int:
        """Resident device bytes of one lane-tree segment (0 if absent/swapped)."""
        seg = self._segments.get(node_id)
        return seg.num_bytes if seg is not None and seg.resident else 0

    def resident_overlap_bytes(self, claims: Iterable[KVSegment]) -> int:
        """Bytes of ``claims`` this lane already holds device-resident.

        The *guaranteed* overlap, safe to bill against: per claim it is
        capped at the claim's own length (a longer resident copy shares
        only the prefix the claimant needs).
        """
        return sum(
            min(claim.num_bytes, self.resident_segment_bytes(claim.node_id))
            for claim in claims
        )

    def resident_subtree_bytes(self, node_id: int) -> int:
        """Resident device bytes at or below ``node_id`` in the lane tree.

        The *opportunistic* overlap probe behind ``prefix_affinity``
        placement: a canonical session re-derives the same step content
        as resident same-problem sessions (draws are keyed), so every
        resident byte under the request's planned root is potentially
        shareable — not just the root itself. Includes namespaced replica
        branches, which only share the root; placement treats the result
        as an affinity *score*, while admission bills the guaranteed
        :meth:`resident_overlap_bytes` only.
        """
        if node_id not in self._tree:
            return 0
        total = 0
        stack = [node_id]
        while stack:
            node = stack.pop()
            total += self.resident_segment_bytes(node)
            stack.extend(self._tree.get(node).children)
        return total

    def unique_planned_bytes(
        self, planned_bytes: int, claims: Iterable[KVSegment]
    ) -> int:
        """A request's planned footprint minus what this lane already holds.

        Dedup-aware admission bills this instead of ``planned_bytes``:
        segments of ``claims`` resident on the lane are shared, not
        duplicated, so only the remainder competes for ledger headroom.
        """
        if planned_bytes < 0:
            raise ValueError("planned_bytes must be non-negative")
        return max(0, planned_bytes - self.resident_overlap_bytes(claims))

    # -- claim naming ----------------------------------------------------

    def private_claim(self, owner: str, num_bytes: int) -> KVSegment:
        """``owner``'s whole footprint as one root claim nobody else can name.

        The node id is a stable function of the owner id (the same on
        every lane, so a migrating owner keeps its name) and memoised
        until :meth:`release`.
        """
        node = self._private.get(owner)
        if node is None:
            node = self._private[owner] = stable_hash64("kv-private", owner)
            self._labels[node] = owner
        return KVSegment(node, None, num_bytes)

    # -- mutation --------------------------------------------------------

    def _drop_claim(self, owner: str, node_id: int) -> None:
        """Remove one owner's claim; free and prune the segment when orphaned."""
        seg = self._segments[node_id]
        if seg.resident:
            self._resident -= seg.num_bytes
            self._logical -= seg.logical
        seg.logical -= seg.owners.pop(owner)
        if seg.owners:
            seg.num_bytes = max(seg.owners.values())
            if seg.resident:
                self._resident += seg.num_bytes
                self._logical += seg.logical
            return
        # Nobody needs it: the bytes are freed, not swapped — there is no
        # PCIe traffic for discarding dead KV. Drop the entry and prune
        # the node with any now-childless, claim-less ancestors, so the
        # books scale with live sessions, not requests ever served
        # (claims arrive parent-first: re-registration rebuilds lineage).
        del self._segments[node_id]
        node: int | None = node_id
        while node is not None and node not in self._segments:
            radix_node = self._tree.get(node)
            if radix_node.children:
                break
            self._tree.remove_leaf(node)
            node = radix_node.parent_id

    def _register(
        self, owner: str, claims: list[KVSegment], new_ids: set[int]
    ) -> int:
        """Replace ``owner``'s claims with ``claims``, all device-resident.

        Returns the host bytes of segments that had been swapped out: the
        host copy holds the pre-growth length, so only those bytes cross
        PCIe — growth beyond them is decoded on device.
        """
        self._tick += 1
        for node in self._owner_segs.get(owner, set()) - new_ids:
            self._drop_claim(owner, node)
        self._owner_segs[owner] = new_ids
        from_host = 0
        for claim in claims:
            node, num_bytes = claim.node_id, claim.num_bytes
            self._tree.ensure_node(node, claim.parent_id, num_bytes)
            seg = self._segments.get(node)
            if seg is None:
                seg = self._segments[node] = _Segment()
            elif seg.resident:
                self._resident -= seg.num_bytes
                self._logical -= seg.logical
            else:
                from_host += seg.num_bytes
            seg.logical += num_bytes - seg.owners.get(owner, 0)
            seg.owners[owner] = num_bytes
            seg.num_bytes = (
                num_bytes if num_bytes >= seg.num_bytes else max(seg.owners.values())
            )
            seg.resident = True
            seg.stamp = self._tick
            self._resident += seg.num_bytes
            self._logical += seg.logical
        return from_host

    def _evictable(self, node_id: int, keep: set[int]) -> bool:
        seg = self._segments[node_id]
        if not seg.resident or node_id in keep:
            return False
        # Leaf-frontier only: a resident child pins its prefix (a KV
        # suffix without its prefix is useless to attention).
        return not any(
            child in self._segments and self._segments[child].resident
            for child in self._tree.get(node_id).children
        )

    def _evict_for(self, need: int, keep: set[int]) -> list[tuple[str, int]]:
        """Swap out LRU leaf-frontier segments until ``need`` bytes are free.

        Returns ``(label, bytes)`` per eviction so the caller can charge
        the PCIe writes. Stops when the deficit is covered or no victims
        remain (only ``keep`` — the running owner's own claims — is left).
        """
        evicted: list[tuple[str, int]] = []
        while need > 0:
            candidates = [
                node for node in self._segments if self._evictable(node, keep)
            ]
            if not candidates:
                break
            victim = min(candidates, key=lambda n: (self._segments[n].stamp, n))
            seg = self._segments[victim]
            seg.resident = False
            self._resident -= seg.num_bytes
            self._logical -= seg.logical
            self.swapped_out_bytes += seg.num_bytes
            need -= seg.num_bytes
            owner = self._labels.get(victim)
            if owner is None:
                # Even when empty: callers bill the link's fixed latency
                # per reported segment, and always have.
                evicted.append((f"seg:{victim}", seg.num_bytes))
            elif seg.num_bytes:
                evicted.append((owner, seg.num_bytes))
        return evicted

    def _note_peaks(self) -> None:
        if self._resident > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident
        if self._logical > self.peak_logical_bytes:
            self.peak_logical_bytes = self._logical
        if self._logical - self._resident > self.peak_shared_bytes:
            self.peak_shared_bytes = self._logical - self._resident

    def charge_growth_segments(
        self, owner: str, segments: Iterable[KVSegment]
    ) -> tuple[int, list[tuple[str, int]]]:
        """Replace ``owner``'s claims with its post-round footprint.

        Called after every round the owner runs (its KV is fully resident
        while it executes). Returns ``(restored_bytes, evictions)``:
        ``restored_bytes`` are unique bytes of previously swapped-out
        segments that had to come back over PCIe before the owner could
        run (segments a co-resident owner kept alive cost nothing) — the
        caller bills that read exactly as for an explicit :meth:`restore`
        — and the evictions are what the growth displaced, billed to the
        *running* session.
        """
        claims = list(segments)
        keep = {claim.node_id for claim in claims}
        restored = self._register(owner, claims, keep)
        self.swapped_in_bytes += restored
        evicted = self._evict_for(self._resident - self._capacity, keep)
        self._note_peaks()
        return restored, evicted

    def charge_growth(
        self, owner: str, total_bytes: int
    ) -> tuple[int, list[tuple[str, int]]]:
        """:meth:`charge_growth_segments` with one private claim."""
        return self.charge_growth_segments(
            owner, [self.private_claim(owner, total_bytes)]
        )

    def restore(self, owner: str) -> tuple[int, list[tuple[str, int]]]:
        """Bring ``owner``'s swapped-out segments back before it resumes.

        Returns ``(restored_bytes, evictions)``; both are zero/empty — and
        no LRU stamp moves — when nothing of the owner's is swapped out,
        so run-to-completion schedules pass through without any
        accounting (or cost).
        """
        nodes = self._owner_segs.get(owner, ())
        restored = 0
        for node in nodes:
            seg = self._segments[node]
            if not seg.resident:
                seg.resident = True
                restored += seg.num_bytes
                self._logical += seg.logical
        if not restored:
            return 0, []
        self._tick += 1
        for node in nodes:
            self._segments[node].stamp = self._tick
        self._resident += restored
        self.swapped_in_bytes += restored
        evicted = self._evict_for(self._resident - self._capacity, nodes)
        self._note_peaks()
        return restored, evicted

    def admit_segments(
        self, owner: str, segments: Iterable[KVSegment]
    ) -> list[tuple[str, int]]:
        """Place a migrated-in owner's claims (delta-aware); evicts to fit.

        Claims whose segments are already resident here gain a refcount
        instead of a second copy — only the rest becomes newly resident,
        and only *that* much room is made. The handoff is transactional:
        the whole-footprint capacity check raises
        :class:`~repro.errors.CapacityError` before anything mutates, and
        room is evicted *before* the first claim registers — an eviction
        failure mid-handoff leaves every refcount (here and, because the
        caller releases the source only after this returns, at the
        source) untouched. No swap counters move for the incoming bytes
        themselves; migration traffic is the caller's to charge.
        """
        claims = list(segments)
        total = sum(claim.num_bytes for claim in claims)
        if total > self._capacity:
            raise CapacityError(
                f"cannot admit {total} B of KV for {owner!r}: device KV "
                f"budget is {self._capacity} B"
            )
        keep = {claim.node_id for claim in claims}
        incoming = sum(
            max(0, claim.num_bytes - self.resident_segment_bytes(claim.node_id))
            for claim in claims
        )
        evicted = self._evict_for(self._resident + incoming - self._capacity, keep)
        # Past this point nothing can fail: register the claims.
        self._register(owner, claims, keep)
        self._note_peaks()
        return evicted

    def admit(self, owner: str, num_bytes: int) -> list[tuple[str, int]]:
        """:meth:`admit_segments` with one private claim."""
        return self.admit_segments(owner, [self.private_claim(owner, num_bytes)])

    def release(self, owner: str) -> int:
        """Drop every claim of ``owner`` (finished or migrated away).

        Returns the unique device bytes freed.
        """
        before = self._resident
        for node in self._owner_segs.pop(owner, ()):
            self._drop_claim(owner, node)
        node = self._private.pop(owner, None)
        if node is not None:
            del self._labels[node]
        return before - self._resident

    def resize(self, capacity_bytes: int) -> list[tuple[str, int]]:
        """Change the budget at runtime; shrinking evicts segments to fit.

        Models a KV pressure spike (a co-tenant claiming VRAM): residents
        above the new budget are swapped out immediately, LRU
        leaf-frontier first with no path pinned — a spike spares nobody;
        the returned evictions are the storm the caller charges — and
        victims pay restores when their owners next run. Growing the
        budget evicts nothing.
        """
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        return self._evict_for(self._resident - self._capacity, set())


#: Alias kept only for ``benchmarks/perf`` (``fleetperf/micro.py`` imports
#: this name, and this PR may not edit the harness); a later
#: ``[benchmark]`` PR drops it.
SharedKVLedger = KVLedger
