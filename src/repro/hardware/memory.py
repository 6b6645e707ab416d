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
from heapq import heapify, heappop, heappush, heapreplace
from operator import attrgetter
from typing import Container, Iterable

from repro.errors import CapacityError
from repro.kvcache.radix import RadixNode, RadixTree
from repro.utils.rng import stable_hash64

__all__ = [
    "KVLedger",
    "KVSegment",
    "SharedKVLedger",
]


@dataclass(frozen=True, slots=True)
class KVSegment:
    """One claim an owner reports to a :class:`KVLedger`.

    ``node_id``/``parent_id`` are lane-tree node ids — for a lineage
    claim, derived (:mod:`repro.core.claims`) from the stable ``(problem,
    lineage, step)`` segment hashes, namespaced so only sessions whose sampled
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


_NODE_ID = attrgetter("node_id")


@dataclass(slots=True)
class _Segment:
    """Ledger-side state of one claimed lane-tree node.

    A segment exists while somebody claims it and is created resident,
    so ``not resident`` always means *swapped out to host*. Owners can
    disagree on length (a shared step one session has fully decoded
    while another still holds a truncated speculative head); the
    physical copy covers the longest claim.
    """

    node: RadixNode  # its lane-tree node
    resident: bool = False
    #: The latest tick of owners that dropped their claim: the segment's
    #: LRU stamp is the maximum of this and its owners' ticks.
    floor: int = 0
    owners: dict[str, int] = field(default_factory=dict)  # owner -> bytes
    num_bytes: int = 0  # unique device bytes when resident: longest claim
    logical: int = 0  # sum of the owners' claims
    resident_children: int = 0  # claimed lane-tree children on device


@dataclass(slots=True, eq=False)
class _Owner:
    """One owner's claims, kept current by the deltas it reports."""

    nodes: set[int] = field(default_factory=set)  # every node it claims
    swapped: set[int] = field(default_factory=set)  # those swapped out
    #: Claimed nodes whose lane-tree length is another owner's claim.
    stale: set[int] = field(default_factory=set)
    #: When all of its segments were last touched (the LRU clock).
    tick: int = 0


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
      (``kv_sharing="off"``).

    **Deltas.** An owner reports what *changed* after each round it runs
    (:meth:`charge_growth_segments`): claims that appeared or changed
    length, and node ids it no longer claims. Everything else it claimed
    stands. The report is applied against running totals, so a round
    costs what changed, not what the owner holds. Re-sending an unchanged
    claim is a no-op, so a full claim list is a valid delta only if it
    drops nothing; a report without ``vanished`` says the list is *all*
    of the owner's claims and drops every other one. A report means "all
    of this owner's claims are on the device now": whatever of them had
    been swapped out comes back and is billed.

    **Per-owner ticks.** Every report (and every :meth:`restore` that
    moves bytes) touches all of the owner's segments, so the ledger
    advances one tick for the owner instead of stamping each segment. A
    segment's LRU stamp is the maximum of its owners' ticks and a floor
    kept from owners that dropped it — exactly the last time any claim on
    it was touched. Likewise the lane-tree node's length is the claim of
    whoever reported it last: an owner's report re-asserts its lengths
    only where a co-owner has since registered another one.

    **The eviction frontier.** Each segment counts its resident claimed
    children; the leaf frontier (resident, no resident child) sits in a
    heap of ``(stamp, node)`` entries pushed when a segment joins it —
    a residency flip, never a growth. Stamps only grow, so an entry is a
    lower bound of its segment's key: a popped entry is checked, and
    re-filed if its stamp moved, before its segment is chosen. A storm
    of V victims costs O(V log segments) (plus the re-filing), not a
    rescan of every segment per victim.

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
        self._owners: dict[str, _Owner] = {}
        self._private: dict[str, int] = {}  # owner -> its private node id
        self._labels: dict[int, str] = {}  # private node id -> owner
        self._tick = 0
        # The eviction frontier: (stamp lower bound, node), validated when
        # popped. Entries of segments that left it are dropped then.
        self._frontier: list[tuple[int, int]] = []
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
        return sorted(self._owners)

    def resident_of(self, owner: str) -> int:
        state = self._owners.get(owner)
        if state is None:
            return 0
        return sum(
            self._segments[node].owners[owner]
            for node in state.nodes
            if node not in state.swapped
        )

    def swapped_of(self, owner: str) -> int:
        state = self._owners.get(owner)
        if state is None:
            return 0
        return sum(self._segments[node].owners[owner] for node in state.swapped)

    def claims_of(self, owner: str) -> list[KVSegment]:
        """The claims held for ``owner``, parents first (for tests/debugging).

        Ordered by ``(depth, node id)``; empty for an unknown owner.
        """
        state = self._owners.get(owner)
        if state is None:
            return []
        segments = self._segments
        nodes = sorted(state.nodes, key=lambda n: (segments[n].node.depth, n))
        return [
            KVSegment(n, segments[n].node.parent_id, segments[n].owners[owner])
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
        return min(state.nodes, key=lambda n: (-segments[n].node.depth, n))

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
        every lane) and memoised until :meth:`release`.
        """
        node = self._private.get(owner)
        if node is None:
            node = self._private[owner] = stable_hash64("kv-private", owner)
            self._labels[node] = owner
        return KVSegment(node, None, num_bytes)

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

    def _push(self, stamp: int, node_id: int) -> None:
        """File a segment that joined the frontier; ``stamp`` may be low.

        Entries of segments that left the frontier wait to be popped, so
        the heap is rebuilt from the segments once they outnumber them
        (filed at their floors: low is allowed).
        """
        heap = self._frontier
        heappush(heap, (stamp, node_id))
        if len(heap) > 2 * len(self._segments) + 64:
            heap[:] = [  # in place: an eviction loop may hold the list
                (seg.floor, node)
                for node, seg in self._segments.items()
                if seg.resident and not seg.resident_children
            ]
            heapify(heap)

    def _make_resident(self, node_id: int, seg: _Segment, stamp: int) -> None:
        """Flip a new or swapped-out segment to device-resident, totals too.

        ``stamp`` is a lower bound of the segment's stamp once the caller
        is done.
        """
        seg.resident = True
        self._resident += seg.num_bytes
        self._logical += seg.logical
        owners = self._owners
        for owner in seg.owners:
            owners[owner].swapped.discard(node_id)
        parent = self._segments.get(seg.node.parent_id)  # None for a root
        if parent is not None:
            parent.resident_children += 1
        if not seg.resident_children:
            self._push(stamp, node_id)

    def _lost_resident_child(self, parent_id: int | None) -> None:
        """A resident child of ``parent_id`` left the device or the ledger."""
        parent = self._segments.get(parent_id)  # None for a root
        if parent is not None:
            parent.resident_children -= 1
            if parent.resident and not parent.resident_children:
                self._push(self._stamp(parent), parent_id)

    def _set_length(
        self, node_id: int, seg: _Segment, owner: str, num_bytes: int
    ) -> None:
        """Make ``owner``'s claim the lane-tree length of ``node_id``.

        Co-owners claiming another length turn stale: their next report
        re-asserts theirs, as re-registering every claim once did.
        """
        seg.node.token_len = num_bytes
        owners = self._owners
        for other, claimed in seg.owners.items():
            if other != owner:
                if claimed != num_bytes:
                    owners[other].stale.add(node_id)
                else:
                    owners[other].stale.discard(node_id)

    def _drop_claim(self, owner: str, tick: int, node_id: int) -> None:
        """Remove one owner's claim; free and prune the segment when orphaned.

        ``tick`` is the owner's last touch, which the segment keeps.
        """
        seg = self._segments[node_id]
        if tick > seg.floor:
            seg.floor = tick
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
        # (claims arrive parent-first: a later claim rebuilds lineage).
        del self._segments[node_id]
        if seg.resident:
            self._lost_resident_child(seg.node.parent_id)
        node: int | None = node_id
        while node is not None and node not in self._segments:
            radix_node = self._tree.get(node)
            if radix_node.children:
                break
            self._tree.remove_leaf(node)
            node = radix_node.parent_id

    def _apply(
        self,
        owner: str,
        state: _Owner,
        upserts: Iterable[KVSegment],
        vanished: Iterable[int] | None,
    ) -> int:
        """Bring ``owner``'s claims up to date, all of them device-resident.

        Drops ``vanished`` (ids it does not claim are ignored; None means
        every claim not in ``upserts``), registers ``upserts`` (new or
        re-sized claims, parents before children) and brings back
        whatever else it claims that was swapped out. One tick touches
        every segment it claims, and every node it claims takes its claim
        as the lane-tree length. Returns the host bytes of segments that
        had been swapped out: the host copy holds the pre-growth length,
        so only those bytes cross PCIe — growth beyond them is decoded on
        device.
        """
        self._tick += 1
        tick = self._tick
        segments, nodes = self._segments, state.nodes
        if vanished is None:  # the upserts are all of its claims
            upserts = list(upserts)
            vanished = nodes.difference(map(_NODE_ID, upserts))
        for node in vanished:
            if node in nodes:
                self._drop_claim(owner, state.tick, node)
                nodes.discard(node)
                state.swapped.discard(node)
                state.stale.discard(node)
        from_host = 0
        for claim in upserts:
            node, num_bytes = claim.node_id, claim.num_bytes
            seg = segments.get(node)
            if seg is None:
                # A claim-less node may survive as an ancestor, at any length.
                tree_node = self._tree.ensure_node(node, claim.parent_id, num_bytes)
                seg = segments[node] = _Segment(tree_node)
                if tree_node.children:
                    seg.resident_children = sum(
                        1 for child in tree_node.children
                        if child in segments and segments[child].resident
                    )
            else:
                tree_node = seg.node
                if tree_node.parent_id != claim.parent_id:
                    raise ValueError(
                        f"node {node} already exists under parent "
                        f"{tree_node.parent_id}, not {claim.parent_id}"
                    )
                if tree_node.token_len != num_bytes:
                    self._set_length(node, seg, owner, num_bytes)
            if seg.resident:
                self._resident -= seg.num_bytes
                self._logical -= seg.logical
            else:
                from_host += seg.num_bytes
            seg.logical += num_bytes - seg.owners.get(owner, 0)
            seg.owners[owner] = num_bytes
            seg.num_bytes = (
                num_bytes if num_bytes >= seg.num_bytes else max(seg.owners.values())
            )
            if seg.resident:
                self._resident += seg.num_bytes
                self._logical += seg.logical
            else:
                self._make_resident(node, seg, tick)
            nodes.add(node)
            state.stale.discard(node)
        for node in list(state.swapped):  # claimed, not re-sent, on host
            seg = segments[node]
            from_host += seg.num_bytes
            self._make_resident(node, seg, tick)
        for node in state.stale:  # a co-owner registered another length
            seg = segments[node]
            self._set_length(node, seg, owner, seg.owners[owner])
        state.stale.clear()
        state.tick = tick
        return from_host

    def _evict_for(self, need: int, keep: Container[int]) -> list[tuple[str, int]]:
        """Swap out LRU leaf-frontier segments until ``need`` bytes are free.

        Returns ``(label, bytes)`` per eviction so the caller can charge
        the PCIe writes. Stops when the deficit is covered or no victims
        remain (only ``keep`` — the running owner's own claims — is left).
        """
        evicted: list[tuple[str, int]] = []
        if need <= 0:
            return evicted
        heap, segments, owners = self._frontier, self._segments, self._owners
        spared: list[tuple[int, int]] = []
        while need > 0 and heap:
            filed, victim = heap[0]
            seg = segments.get(victim)
            if seg is None or not seg.resident or seg.resident_children:
                heappop(heap)  # left the frontier since it was filed
                continue
            stamp = seg.floor  # self._stamp(seg), inlined: storms pop a lot
            for owner in seg.owners:
                tick = owners[owner].tick
                if tick > stamp:
                    stamp = tick
            if stamp != filed:
                heapreplace(heap, (stamp, victim))  # touched since: re-file
                continue
            heappop(heap)
            if victim in keep:
                spared.append((stamp, victim))
                continue
            seg.resident = False
            self._resident -= seg.num_bytes
            self._logical -= seg.logical
            self.swapped_out_bytes += seg.num_bytes
            need -= seg.num_bytes
            for owner in seg.owners:
                owners[owner].swapped.add(victim)
            self._lost_resident_child(seg.node.parent_id)
            owner = self._labels.get(victim)
            if owner is None:
                # Even when empty: callers bill the link's fixed latency
                # per reported segment, and always have.
                evicted.append((f"seg:{victim}", seg.num_bytes))
            elif seg.num_bytes:
                evicted.append((owner, seg.num_bytes))
        for entry in spared:
            heappush(heap, entry)
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
        upserts: Iterable[KVSegment],
        vanished: Iterable[int] | None = None,
    ) -> tuple[int, list[tuple[str, int]]]:
        """Apply ``owner``'s post-round claim delta.

        ``upserts`` are the claims that appeared or changed length since
        its last report (parents before children), ``vanished`` the node
        ids it no longer claims; every other claim stands. Without
        ``vanished``, ``upserts`` are all of the owner's claims and every
        other one it held is dropped. Called after every round the owner
        runs (its KV is fully resident while it executes). Returns
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
            state = self._owners[owner] = _Owner()
        restored = self._apply(owner, state, upserts, vanished)
        self.swapped_in_bytes += restored
        evicted = self._evict_for(self._resident - self._capacity, state.nodes)
        self._note_peaks()
        return restored, evicted

    def restore(self, owner: str) -> tuple[int, list[tuple[str, int]]]:
        """Bring ``owner``'s swapped-out segments back before it resumes.

        Returns ``(restored_bytes, evictions)``; both are zero/empty — and
        no LRU stamp moves — when nothing of the owner's is swapped out,
        so run-to-completion schedules pass through without any
        accounting (or cost).
        """
        state = self._owners.get(owner)
        if state is None or not state.swapped:
            return 0, []
        segments = self._segments
        restored = 0
        for node in state.swapped:
            restored += segments[node].num_bytes
        if restored:
            self._tick += 1
            state.tick = self._tick
        # Zero bytes come back without touching a stamp: file them low.
        stamp = state.tick if restored else 0
        for node in list(state.swapped):
            self._make_resident(node, segments[node], stamp)
        if not restored:
            return 0, []
        self.swapped_in_bytes += restored
        evicted = self._evict_for(self._resident - self._capacity, state.nodes)
        self._note_peaks()
        return restored, evicted

    def admit_segments(
        self, owner: str, segments: Iterable[KVSegment]
    ) -> list[tuple[str, int]]:
        """Place all of an owner's claims at once (delta-aware); evicts to fit.

        ``segments`` are all of the owner's claims here: any other it held
        on this lane are dropped. Claims whose segments are already
        resident here gain a refcount instead of a second copy — only the
        rest becomes newly resident, and only *that* much room is made: a
        claim's bytes beyond the resident copy, or all of a swapped-out
        segment, which comes back at its longest claim.
        The admission is transactional: the whole-footprint capacity check
        raises :class:`~repro.errors.CapacityError` before anything
        mutates, and room is evicted *before* the first claim registers —
        an eviction failure mid-admission leaves every refcount untouched.
        The footprint checked is what the claimed segments will occupy,
        which eviction cannot touch: each at its longest claim once this
        one lands, a co-owner's longer copy included. No swap counters
        move for the incoming bytes themselves; moving them is the
        caller's to charge.
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
                    max(0, claim.num_bytes - seg.num_bytes) if seg.resident else size
                )
            footprint += size
            incoming += incoming_bytes
        if footprint > self._capacity:
            raise CapacityError(
                f"cannot admit {footprint} B of KV for {owner!r}: device KV "
                f"budget is {self._capacity} B"
            )
        evicted = self._evict_for(self._resident + incoming - self._capacity, keep)
        # Past this point nothing can fail: register the claims.
        state = self._owners.get(owner)
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
        return self._evict_for(self._resident - self._capacity, ())


#: Alias kept only for ``benchmarks/perf`` (``fleetperf/micro.py`` imports
#: this name, and this PR may not edit the harness); a later
#: ``[benchmark]`` PR drops it.
SharedKVLedger = KVLedger
