"""The lane KV ledger.

A request's static weights / KV split (Fig. 9) is the Sec. 4.3
allocator's plan (:mod:`repro.core.allocator`); nothing books it again
at runtime.

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
structure, lifted from one request's beams to the whole lane), booked
under node ids that :mod:`repro.core.claims` names — and sharing falls
out of which claims collide (:class:`KVLedger`).

The lane tree is kept once: each segment *is* its lane-tree node (the
ledger's segment table is the tree's own node dict, as in
:class:`~repro.kvcache.cache.PagedKVCache`). A node is as long as its
physical copy: its ``token_len``, in bytes, is the longest claim on it.
A node whose last claim is dropped stays only while it is the ancestor
of a claimed node, with no owners and length 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Container, Iterable, Sequence

from repro.errors import CapacityError
from repro.kvcache.radix import RadixNode, RadixTree

__all__ = [
    "KVLedger",
    "KVSegment",
    "SharedKVLedger",
]


@dataclass(frozen=True, slots=True)
class KVSegment:
    """One claim an owner reports to a :class:`KVLedger`.

    ``node_id``/``parent_id`` are lane-tree node ids, all made by
    :mod:`repro.core.claims`: for a lineage claim, from the stable
    ``(problem, lineage, step)`` segment hashes, namespaced so only
    sessions whose sampled content is actually identical collide; for a
    private claim, from the session id. ``num_bytes`` is this owner's KV
    bytes for the segment. Claims arrive parent-before-child.
    """

    node_id: int
    parent_id: int | None
    num_bytes: int

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")


_NODE_ID = attrgetter("node_id")


@dataclass(slots=True)
class _Segment(RadixNode):
    """One lane-tree node and the ledger's state of it.

    A node is created resident by its first claim, so ``not resident``
    on a claimed node always means *swapped out to host*. Owners can
    disagree on length (a shared step one session has fully decoded
    while another still holds a truncated speculative head); the one
    physical copy covers the longest claim, and ``token_len`` is that
    copy's size in bytes. A node whose last claim is dropped stays only
    as the ancestor of claimed nodes: no owners, not resident,
    ``token_len = floor = 0``.
    """

    resident: bool = False
    #: The latest tick of owners that dropped their claim: the segment's
    #: LRU stamp is the maximum of this and its owners' ticks.
    floor: int = 0
    owners: dict[str, int] = field(default_factory=dict)  # owner -> bytes
    logical: int = 0  # sum of the owners' claims


@dataclass(slots=True, eq=False)
class _Owner:
    """One owner's claims, kept current by the deltas it reports."""

    nodes: set[int] = field(default_factory=set)  # every node it claims
    #: When all of its segments were last touched (the LRU clock).
    tick: int = 0


class KVLedger:
    """Runtime accounting of co-resident sessions' KV on one device.

    One mechanism: owners (session ids) hold :class:`KVSegment` claims
    on the nodes of a per-lane :class:`~repro.kvcache.radix.RadixTree`;
    a node claimed by N owners occupies device bytes **once** (sized by
    its longest claim) and carries the refcount. Only how a session's
    claims are *named* (:mod:`repro.core.claims`, chosen per lane by
    :meth:`~repro.core.pool.PooledDevice.session_claims`) differs
    between serving policies:

    * a **lineage** — the session's resident cache segments under stable
      content ids — collides with every other session holding the same
      prefix, so racing replicas and same-problem requests bill shared
      bytes once (``kv_sharing="prefix"``);
    * one **private claim** — a root node derived from the session id —
      collides with nobody, so the owner's whole footprint is evicted,
      restored and billed as a unit (``kv_sharing="off"``); a session
      with no KV on the device claims nothing and is no owner.

    **Deltas.** An owner reports what *changed* after each round it runs
    (:meth:`charge_growth_segments`): claims that appeared or changed
    length, and node ids it no longer claims. Everything else it claimed
    stands. The report is applied against running totals, so a round
    re-books only what changed; what of the rest is swapped out is read
    off each claimed node's ``resident`` bit. Re-sending an unchanged
    claim is a no-op, so a full claim list is a valid delta only if it
    drops nothing; a report without ``vanished`` says the list is *all*
    of the owner's claims and drops every other one. A report means "all
    of this owner's claims are on the device now": whatever of them had
    been swapped out comes back and is billed — also when the report
    leaves the owner no claim, since it ran on what it held.

    **Per-owner ticks.** Every report (and every :meth:`restore` that
    moves bytes) touches all of the owner's segments, so the ledger
    advances one tick for the owner instead of stamping each segment. A
    segment's LRU stamp is the maximum of its owners' ticks and a floor
    kept from owners that dropped it — exactly the last time any claim on
    it was touched.

    **The eviction frontier** (resident, no resident child) is built by
    each call that must evict, and only then: one pass over the segments
    counts resident children, the frontier's exact ``(stamp, node)`` keys
    are heapified, and a parent joins once its last resident child
    leaves. No stamp moves during an eviction, so nothing popped is
    stale. A storm of V victims costs one pass plus O(V log segments),
    not a rescan per victim. Few calls evict: of the perf workloads only
    ``sharing_batched``'s do, 7 calls over at most 334 lane-tree nodes
    in a seed-0 drain against some 4 400 residency flips, so building
    the frontier per evicting call costs less than keeping it current on
    every flip (``tools/kv_books.py`` counts the calls that evict and
    the nodes they scan).

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

    Evictions are reported as ``(node_id, bytes)``, one per victim
    segment, zero-byte ones included: callers bill the link's fixed
    latency per reported segment. The ``peak_*`` running peaks feed the
    per-device fleet metrics rollup.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        self._tree = RadixTree(_Segment)
        # The tree's own node dict: a segment is its lane-tree node, so
        # nothing is synced between the tree and a side table.
        self._segments: dict[int, _Segment] = self._tree._nodes
        self._owners: dict[str, _Owner] = {}
        self._tick = 0
        # Running totals, updated wherever a claim or a residency bit
        # changes (the property tests recompute them from the segments).
        self._resident = 0  # unique resident bytes
        self._logical = 0  # sum of every claim on a resident segment
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
        return sorted(self._owners)

    def resident_of(self, owner: str) -> int:
        state = self._owners.get(owner)
        if state is None:
            return 0
        segments = self._segments
        return sum(
            segments[node].owners[owner]
            for node in state.nodes
            if segments[node].resident
        )

    def swapped_of(self, owner: str) -> int:
        state = self._owners.get(owner)
        if state is None:
            return 0
        segments = self._segments
        return sum(
            segments[node].owners[owner]
            for node in state.nodes
            if not segments[node].resident
        )

    def claims_of(self, owner: str) -> list[KVSegment]:
        """The claims held for ``owner``, parents first (for tests/debugging).

        Ordered by ``(depth, node id)``; empty for an unknown owner.
        """
        state = self._owners.get(owner)
        if state is None:
            return []
        segments = self._segments
        nodes = sorted(state.nodes, key=lambda n: (segments[n].depth, n))
        return [
            KVSegment(n, segments[n].parent_id, segments[n].owners[owner])
            for n in nodes
        ]

    def owner_leaf(self, owner: str) -> int | None:
        """The owner's deepest claimed lane-tree node (None if none).

        Deterministic: maximal depth, ties broken by ascending node id.
        The prefix-affinity scheduler anchors its successor choice here.
        """
        state = self._owners.get(owner)
        if state is None or not state.nodes:
            return None
        segments = self._segments
        return min(state.nodes, key=lambda n: (-segments[n].depth, n))

    # -- planned-overlap probes (read-only) ------------------------------
    #
    # Sharing-aware placement and dedup-aware admission ask a lane "how
    # much of this request's planned KV do you already hold?" *before*
    # any session exists. Probing never touches stamps, refcounts or
    # peaks, so callers can ask freely without perturbing LRU order.

    def resident_segment_bytes(self, node_id: int) -> int:
        """Resident device bytes of one lane-tree segment (0 if absent/swapped)."""
        seg = self._segments.get(node_id)
        return seg.token_len if seg is not None and seg.resident else 0

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
        segments = self._segments
        if node_id not in segments:
            return 0
        total = 0
        stack = [node_id]
        while stack:
            seg = segments[stack.pop()]
            if seg.resident:
                total += seg.token_len
            stack.extend(seg.children)
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

    # -- mutation --------------------------------------------------------

    def _stamp(self, seg: _Segment) -> int:
        """A segment's LRU stamp: the last tick any claim on it was touched."""
        stamp = seg.floor
        owners = self._owners
        for owner in seg.owners:
            tick = owners[owner].tick
            if tick > stamp:
                stamp = tick
        return stamp

    def _make_resident(self, seg: _Segment) -> None:
        """Flip a new or swapped-out segment to device-resident, totals too."""
        seg.resident = True
        self._resident += seg.token_len
        self._logical += seg.logical

    def _drop_claim(self, owner: str, tick: int, node_id: int) -> None:
        """Remove one owner's claim; free and prune the segment when orphaned.

        ``tick`` is the owner's last touch, which the segment keeps.
        """
        segments = self._segments
        seg = segments[node_id]
        if tick > seg.floor:
            seg.floor = tick
        if seg.resident:
            self._resident -= seg.token_len
            self._logical -= seg.logical
        seg.logical -= seg.owners.pop(owner)
        if seg.owners:
            seg.token_len = max(seg.owners.values())
            if seg.resident:
                self._resident += seg.token_len
                self._logical += seg.logical
            return
        # Nobody needs it: the bytes are freed, not swapped — there is no
        # PCIe traffic for discarding dead KV. The node stays only as an
        # ancestor of claimed nodes; otherwise it goes, with any now
        # childless, claim-less ancestors, so the books scale with live
        # sessions, not requests ever served (claims arrive parent-first:
        # a later claim rebuilds lineage).
        seg.token_len = seg.floor = 0
        seg.resident = False
        while not seg.children and not seg.owners:
            del segments[seg.node_id]
            if seg.parent_id is None:
                break
            parent = segments[seg.parent_id]
            parent.children.discard(seg.node_id)
            seg = parent

    def _apply(
        self,
        owner: str,
        state: _Owner,
        upserts: Sequence[KVSegment],
        vanished: Iterable[int] | None,
    ) -> int:
        """Bring ``owner``'s claims up to date, all of them device-resident.

        Drops ``vanished`` (ids it does not claim are ignored; None means
        every claim not in ``upserts``), registers ``upserts`` (new or
        re-sized claims, parents before children) and brings back
        whatever else it claims that was swapped out. One tick touches
        every segment it claims. Returns the host bytes of segments that
        had been swapped out: the host copy holds the pre-growth length,
        so only those bytes cross PCIe — growth beyond them is decoded on
        device. A report that leaves the owner no claim at all still ran
        on what it held (a private claim that shrank to nothing), so the
        swapped-out claims it drops count too.
        """
        self._tick += 1
        tick = self._tick
        segments, nodes = self._segments, state.nodes
        if vanished is None:  # the upserts are all of its claims
            upserts = list(upserts)
            vanished = nodes.difference(map(_NODE_ID, upserts))
        from_host = 0
        for node in vanished:
            if node in nodes:
                seg = segments[node]
                if not seg.resident:  # billed if nothing is left
                    from_host += seg.token_len
                self._drop_claim(owner, state.tick, node)
                nodes.discard(node)
        if nodes or upserts:
            from_host = 0  # it still claims KV: what it dropped stays on host
        for claim in upserts:
            node, num_bytes = claim.node_id, claim.num_bytes
            seg = segments.get(node)
            if seg is None:
                parent_id = claim.parent_id
                if parent_id is None:
                    seg = segments[node] = _Segment(node, None, 0, 0)
                else:
                    parent = segments.get(parent_id)
                    if parent is None:
                        raise KeyError(f"unknown radix node {parent_id}")
                    seg = segments[node] = _Segment(
                        node, parent_id, 0, parent.depth + 1
                    )
                    parent.children.add(node)
            elif seg.parent_id != claim.parent_id:  # claimed, or an ancestor
                raise ValueError(
                    f"node {node} already exists under parent "
                    f"{seg.parent_id}, not {claim.parent_id}"
                )
            if seg.resident:
                self._resident -= seg.token_len
                self._logical -= seg.logical
            else:
                from_host += seg.token_len
            seg.logical += num_bytes - seg.owners.get(owner, 0)
            seg.owners[owner] = num_bytes
            seg.token_len = (
                num_bytes if num_bytes >= seg.token_len else max(seg.owners.values())
            )
            if seg.resident:
                self._resident += seg.token_len
                self._logical += seg.logical
            else:
                self._make_resident(seg)
            nodes.add(node)
        for node in nodes:  # claimed, not re-sent, on host
            seg = segments[node]
            if not seg.resident:
                from_host += seg.token_len
                self._make_resident(seg)
        state.tick = tick
        return from_host

    def _evict_for(self, need: int, keep: Container[int]) -> list[tuple[int, int]]:
        """Swap out LRU leaf-frontier segments until ``need`` bytes are free.

        Returns ``(node_id, bytes)`` per eviction so the caller can charge
        the PCIe writes. Stops when the deficit is covered or no victims
        remain (only ``keep`` — the running owner's own claims — is left).
        """
        evicted: list[tuple[int, int]] = []
        if need <= 0:
            return evicted
        segments = self._segments
        resident = [seg for seg in segments.values() if seg.resident]
        children = Counter([seg.parent_id for seg in resident])  # on device
        heap = [
            (self._stamp(seg), seg.node_id)
            for seg in resident
            if seg.node_id not in children and seg.node_id not in keep
        ]
        heapify(heap)
        while need > 0 and heap:
            _, victim = heappop(heap)
            seg = segments[victim]
            seg.resident = False
            self._resident -= seg.token_len
            self._logical -= seg.logical
            need -= seg.token_len
            evicted.append((victim, seg.token_len))
            parent_id = seg.parent_id
            children[parent_id] -= 1
            if not children[parent_id] and parent_id not in keep:
                parent = segments.get(parent_id)  # None for a root
                if parent is not None and parent.resident:
                    heappush(heap, (self._stamp(parent), parent_id))
        return evicted

    def _note_peaks(self) -> None:
        if self._resident > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident
        if self._logical > self.peak_logical_bytes:
            self.peak_logical_bytes = self._logical
        if self._logical - self._resident > self.peak_shared_bytes:
            self.peak_shared_bytes = self._logical - self._resident

    def charge_growth_segments(
        self,
        owner: str,
        upserts: Sequence[KVSegment],
        vanished: Iterable[int] | None = None,
    ) -> tuple[int, list[tuple[int, int]]]:
        """Apply ``owner``'s post-round claim delta.

        ``upserts`` are the claims that appeared or changed length since
        its last report (parents before children), ``vanished`` the node
        ids it no longer claims; every other claim stands. Without
        ``vanished``, ``upserts`` are all of the owner's claims and every
        other one it held is dropped; an unknown owner claiming nothing
        stays unknown and moves no tick. Called after every round the
        owner runs (its KV is fully resident while it executes). Returns
        ``(restored_bytes, evictions)``:
        ``restored_bytes`` are unique bytes of previously swapped-out
        segments that had to come back over PCIe before the owner could
        run (segments a co-resident owner kept alive cost nothing) — the
        caller bills that read exactly as for an explicit :meth:`restore`
        — and the evictions are what the growth displaced, billed to the
        *running* session.
        """
        state = self._owners.get(owner)
        if state is None:
            if not upserts:  # no owner, no tick; an over-budget lane still sheds
                need = self._resident - self._capacity
                return 0, self._evict_for(need, ()) if need > 0 else []
            state = self._owners[owner] = _Owner()
        restored = self._apply(owner, state, upserts, vanished)
        need = self._resident - self._capacity
        evicted = self._evict_for(need, state.nodes) if need > 0 else []
        self._note_peaks()
        return restored, evicted

    def restore(self, owner: str) -> tuple[int, list[tuple[int, int]]]:
        """Bring ``owner``'s swapped-out segments back before it resumes.

        Returns ``(restored_bytes, evictions)``; both are zero/empty — and
        no LRU stamp moves — when nothing of the owner's is swapped out,
        so run-to-completion schedules pass through without any
        accounting (or cost).
        """
        state = self._owners.get(owner)
        if state is None:
            return 0, []
        segments = self._segments
        restored = 0
        for node in state.nodes:
            seg = segments[node]
            if not seg.resident:
                restored += seg.token_len
                self._make_resident(seg)
        if not restored:
            return 0, []
        self._tick += 1
        state.tick = self._tick
        evicted = self._evict_for(self._resident - self._capacity, state.nodes)
        self._note_peaks()
        return restored, evicted

    def admit_segments(
        self, owner: str, segments: Iterable[KVSegment]
    ) -> list[tuple[int, int]]:
        """Place all of an owner's claims at once (delta-aware); evicts to fit.

        ``segments`` are all of the owner's claims here: any other it held
        on this lane is dropped first (freed, never written out). Claims
        whose segments are already resident here gain a refcount instead
        of a second copy — only the rest becomes newly resident, and only
        *that* much room is made: a claim's bytes beyond the resident copy,
        or all of a swapped-out segment, which comes back at its longest
        claim.
        The admission is transactional: the whole-footprint capacity check
        raises :class:`~repro.errors.CapacityError` before anything
        mutates, and room is evicted *before* the first claim registers —
        an eviction failure mid-admission leaves every claim it brings
        unregistered. The footprint checked is what the claimed segments
        will occupy, which eviction cannot touch: each at its longest
        claim once this one lands, a co-owner's longer copy included.
        Moving the incoming bytes is the caller's to charge.
        """
        claims = list(segments)
        keep = {claim.node_id for claim in claims}
        footprint = incoming = 0
        for claim in claims:
            seg = self._segments.get(claim.node_id)
            if seg is None:
                size = incoming_bytes = claim.num_bytes
            else:
                others = (b for o, b in seg.owners.items() if o != owner)
                size = max(claim.num_bytes, max(others, default=0))
                # A resident copy only grows; a swapped-out one comes back whole.
                incoming_bytes = (
                    max(0, claim.num_bytes - seg.token_len) if seg.resident else size
                )
            footprint += size
            incoming += incoming_bytes
        if footprint > self._capacity:
            raise CapacityError(
                f"cannot admit {footprint} B of KV for {owner!r}: device KV "
                f"budget is {self._capacity} B"
            )
        state = self._owners.get(owner)
        for node in () if state is None else state.nodes - keep:
            self._drop_claim(owner, state.tick, node)
            state.nodes.discard(node)
        evicted = self._evict_for(self._resident + incoming - self._capacity, keep)
        # Past this point nothing can fail: register the claims.
        if state is None:
            state = self._owners[owner] = _Owner()
        self._apply(owner, state, claims, None)
        self._note_peaks()
        return evicted

    def release(self, owner: str) -> int:
        """Drop every claim of ``owner`` (finished, cancelled or crashed).

        Returns the unique device bytes freed.
        """
        before = self._resident
        state = self._owners.get(owner)
        if state is not None:
            for node in state.nodes:
                self._drop_claim(owner, state.tick, node)
            del self._owners[owner]
        return before - self._resident

    def resize(self, capacity_bytes: int) -> list[tuple[int, int]]:
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
        return self._evict_for(self._resident - self._capacity, ())


#: Alias kept only for ``benchmarks/perf`` (``fleetperf/micro.py`` imports
#: this name, and this PR may not edit the harness); a later
#: ``[benchmark]`` PR drops it.
SharedKVLedger = KVLedger
