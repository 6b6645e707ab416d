"""Paged KV cache with prefix sharing, pinning and LRU eviction.

This is the memory substrate both workers (generator and verifier) run on.
It combines two structures:

* a :class:`~repro.kvcache.block.BlockPool` enforcing the byte budget the
  asymmetric allocator assigned to this worker;
* a :class:`~repro.kvcache.radix.RadixTree` recording the reasoning tree,
  where each node is one thinking-step *segment* shared by every beam that
  descends from it (copy-free forking, as in vLLM prefix caching). The
  nodes are :class:`SegmentState` objects: a segment's parent link, its
  token length and its cache state (residency, pin count, held blocks,
  LRU stamp, resident-child count) live in one place, and the cache's
  segment table is the tree's own node dict, so nothing is synced
  between a tree and a side table.

A segment carries its root→parent states (``SegmentState.ancestors``),
fixed when it is registered: a parent never changes and a registered
segment never leaves the cache, so every path operation reads its chain
off the leaf instead of walking parent links. The beams of a batch share
their prefixes (the paper's Sec. 4.2), so pinning is per admission burst:
one :meth:`PagedKVCache.pin_paths` call pins a generation burst, a
speculative slot or a verifier batch (``materialize`` is its one-path
case). Decode-time growth is one routine, called once
per decode span for the whole batch
(:meth:`PagedKVCache.extend_segments`). Running totals
(resident tokens / segments, evictable blocks) move at the transitions
and are never re-summed, and the same transitions record which segments
changed residency or length (:meth:`PagedKVCache.take_changes`), so a
session names only its KV's changes to the lane ledger.

The books are kept in place, by the loop that already holds the segment's
state: it compares the need against the pool's free blocks and moves
``BlockPool.allocated_blocks`` itself (the cache is that count's only
mover), files the segment as an LRU candidate when it joins the unpinned
leaf frontier, and adds to the :class:`~repro.kvcache.events.CacheStats`
totals — calling ``CacheStats.record`` only when a trace was asked for.
The one helper on the way is eviction (``_evict_for``), reached only
when free blocks fall short.

Key invariants (property-tested):

* a segment is resident only if its parent is resident — a KV suffix
  without its prefix is useless to attention;
* pinned segments (referenced by the currently executing batch) are never
  evicted; eviction only consumes the unpinned leaf-most frontier in LRU
  order;
* block accounting is exact: the pool's allocated count always equals the
  sum of blocks held by resident segments.

Eviction forces recomputation later: :meth:`PagedKVCache.pin_paths`
reports how many tokens of each path were cache hits and how many must be
re-prefilled, which the engine converts to roofline time. Minimizing that
recompute term is exactly the objective of Dynamic Prefix-Aware Scheduling.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType

from repro.errors import CapacityError
from repro.kvcache.block import DEFAULT_BLOCK_TOKENS, BlockPool
from repro.kvcache.events import CacheEventKind, CacheStats
from repro.kvcache.radix import RadixNode, RadixTree

__all__ = ["PagedKVCache", "MaterializeOutcome", "SegmentState"]

_PARENTS_FIRST = attrgetter("depth", "node_id")


def _unknown(segment_id: int) -> KeyError:
    return KeyError(f"unknown segment {segment_id}")


@dataclass(slots=True)
class SegmentState(RadixNode):
    """One registered segment: its tree node plus dynamic cache state.

    ``ancestors`` holds the root→parent states (not the segment itself),
    set once by :meth:`PagedKVCache.register_segment`; ``ancestors +
    (state,)`` is the segment's path. It points only up the tree, so a
    chain forms no reference cycle, and it stays out of ``repr`` and
    ``==`` (a deep path would print, and compare, every state above it).
    """

    resident: bool = False
    pin_count: int = 0
    blocks_held: int = 0
    last_access: int = 0
    resident_children: int = 0
    ancestors: tuple[SegmentState, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class MaterializeOutcome:
    """Result of making one path resident."""

    hit_tokens: int
    recomputed_tokens: int
    evicted_segments: int


class PagedKVCache:
    """Prefix-shared paged KV cache for one model worker."""

    def __init__(
        self,
        capacity_bytes: int,
        kv_bytes_per_token: int,
        block_tokens: int = DEFAULT_BLOCK_TOKENS,
        trace_capacity: int = 0,
    ) -> None:
        self._pool = BlockPool.from_bytes(capacity_bytes, kv_bytes_per_token, block_tokens)
        self._kv_bytes_per_token = kv_bytes_per_token
        self._tree = RadixTree(SegmentState)
        # The tree's own node dict: one dict, read by the tree's queries
        # and filled by :meth:`register_segment`.
        self._segments: dict[int, SegmentState] = self._tree._nodes
        #: Every registered segment by id, read-only (one dict lookup away).
        self.segments: Mapping[int, SegmentState] = MappingProxyType(self._segments)
        self._access_clock = 0
        # Incremental bookkeeping, maintained at every residency / pin
        # transition: resident totals, the blocks held by resident,
        # unpinned segments (always wholly evictable, because pins cover
        # root->leaf chains) and a lazily-validated LRU candidate heap.
        self._evictable_blocks = 0
        self._resident_token_count = 0
        self._resident_segment_count = 0
        self._evict_heap: list[tuple[int, int]] = []
        # Segments whose residency or length changed since the last
        # ``take_changes()``, by id; None until that is first called, so a
        # cache nobody mirrors records nothing.
        self._changed: dict[int, SegmentState] | None = None
        self.stats = CacheStats(trace_capacity=trace_capacity)

    # -- introspection -------------------------------------------------

    @property
    def tree(self) -> RadixTree:
        return self._tree

    @property
    def pool(self) -> BlockPool:
        return self._pool

    @property
    def capacity_tokens(self) -> int:
        return self._pool.capacity_tokens

    @property
    def kv_bytes_per_token(self) -> int:
        return self._kv_bytes_per_token

    @property
    def resident_tokens(self) -> int:
        return self._resident_token_count

    @property
    def evictable_blocks(self) -> int:
        """Blocks reclaimable without touching pinned paths."""
        return self._evictable_blocks

    @property
    def resident_segment_count(self) -> int:
        return self._resident_segment_count

    def resident_segments(self) -> list[SegmentState]:
        """Resident segments in parent-before-child (topological) order.

        A session's whole lane-ledger claim list derives from this (see
        :meth:`take_changes` for what changed since the last look);
        ordering parents first lets the consumer create tree nodes in one
        pass. Sorted by ``(depth, node_id)`` for determinism.
        """
        return sorted(
            (s for s in self._segments.values() if s.resident),
            key=_PARENTS_FIRST,
        )

    def take_changes(self) -> list[SegmentState]:
        """Segments whose residency or length changed since the last call.

        Each appears once, in its current state, parents before children
        as in :meth:`resident_segments`; the record then starts over. A
        consumer that mirrors the resident set — a session naming its KV
        to the lane ledger — applies this instead of re-reading every
        resident segment each round. Nothing is recorded before the first
        call, which returns every resident segment: all a mirror that
        starts empty needs.
        """
        changed = self._changed
        self._changed = {}
        if changed is None:
            return self.resident_segments()
        if not changed:
            return []
        return sorted(changed.values(), key=_PARENTS_FIRST)

    def is_resident(self, segment_id: int) -> bool:
        state = self._segments.get(segment_id)
        return state is not None and state.resident

    def segment(self, segment_id: int) -> SegmentState:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise _unknown(segment_id) from None

    # -- registration ----------------------------------------------------

    def register_segment(
        self, segment_id: int, parent_id: int | None, token_len: int
    ) -> SegmentState:
        """Register a (non-resident) segment in the reasoning tree.

        Idempotent for identical attributes so that callers can re-register
        shared prefixes freely. A new segment is filed under its parent
        with its ``ancestors``, the parent's plus the parent, fixed here
        for its lifetime. A bad length, or a differing parent or length on
        re-registration, raises ``ValueError`` before anything changes.
        """
        segments = self._segments
        parent = None
        if parent_id is not None:
            parent = segments.get(parent_id)
            if parent is None:
                raise KeyError(f"parent segment {parent_id} is not registered")
        if token_len < 0:
            raise ValueError("token_len must be non-negative")
        state = segments.get(segment_id)
        if state is not None:
            if state.parent_id != parent_id or state.token_len != token_len:
                raise ValueError(f"node {segment_id} already exists with different attributes")
            return state
        state = segments[segment_id] = SegmentState(segment_id, parent_id, token_len, 0)
        if parent is not None:
            state.depth = parent.depth + 1
            state.ancestors = parent.ancestors + (parent,)
            parent.children.add(segment_id)
        return state

    # -- pinning ---------------------------------------------------------

    def unpin_path(self, leaf_id: int) -> None:
        """Release one pin along the root->leaf path.

        All-or-nothing: a segment of the path that holds no pin raises
        :class:`CapacityError` before any pin count, the evictable total
        or the candidate heap has been touched.
        """
        leaf = self._segments.get(leaf_id)
        if leaf is None:
            raise _unknown(leaf_id)
        chain = leaf.ancestors + (leaf,)
        for state in chain:
            if state.pin_count <= 0:
                raise CapacityError(f"segment {state.node_id} is not pinned")
        heap = self._evict_heap
        for state in chain:
            state.pin_count -= 1
            if state.pin_count == 0 and state.resident:
                self._evictable_blocks += state.blocks_held
                if not state.resident_children:  # joins the LRU frontier
                    heapq.heappush(heap, (state.last_access, state.node_id))

    # -- residency -------------------------------------------------------

    def pin_paths(
        self,
        leaf_ids: Iterable[int],
        now: float = 0.0,
        grow: Iterable[int] | None = None,
    ) -> list[tuple[int, int, int]]:
        """Pin root->leaf paths resident in order, evicting LRU victims.

        Returns each pinned path's ``(hit_tokens, recomputed_tokens,
        evicted_segments)``; a shorter list than ``leaf_ids`` means the
        next path did not fit. With ``grow`` (each leaf's planned tail
        growth), a path whose missing blocks plus growth exceed the free
        and evictable blocks outside it, less what earlier paths were
        promised, is left untouched. A path that cannot find its blocks
        even by evicting has its pins rolled back; its victims stay evicted.
        """
        segments = self._segments
        pool = self._pool
        block_tokens = pool.block_tokens
        changed = self._changed
        stats = self.stats
        claimed = 0  # growth promised to the paths admitted so far
        splits: list[tuple[int, int, int]] = []
        pairs = zip(leaf_ids, repeat(0)) if grow is None else zip(leaf_ids, grow, strict=True)
        for leaf_id, extra in pairs:
            leaf = segments.get(leaf_id)
            if leaf is None:
                raise _unknown(leaf_id)
            if grow is not None:  # the admission test; blocks round per segment
                needed = own_evictable = 0
                broken = False
                for state in leaf.ancestors:
                    if state.resident and not broken:
                        if state.pin_count == 0:
                            own_evictable += state.blocks_held
                        continue
                    broken = True
                    needed += -(-state.token_len // block_tokens)
                tokens = leaf.token_len + extra
                if leaf.resident and not broken:
                    if leaf.pin_count == 0:
                        own_evictable += leaf.blocks_held
                    needed += -(-tokens // block_tokens) - leaf.blocks_held
                else:
                    needed += -(-tokens // block_tokens)
                reclaimable = (
                    pool.total_blocks - pool.allocated_blocks
                    + self._evictable_blocks - own_evictable
                )
                if claimed + needed > reclaimable:
                    break
                claimed += needed

            self._access_clock += 1
            stamp = self._access_clock
            hit_tokens = 0
            to_load: list[SegmentState] = []
            for state in leaf.ancestors + (leaf,):
                # Protect the chain under construction: without this, loading a
                # deep suffix under memory pressure could evict the path's own
                # hit prefix, silently breaking the residency invariant.
                if state.pin_count == 0 and state.resident:
                    self._evictable_blocks -= state.blocks_held
                state.pin_count += 1
                if state.resident and not to_load:
                    hit_tokens += state.token_len
                    state.last_access = stamp
                else:
                    # Residency invariant: once the chain breaks, everything
                    # below must be recomputed. No public operation breaks
                    # a chain (eviction takes frontier leaves only), so no
                    # stale segment is resident here today; this guard keeps
                    # the block books exact if one ever is, instead of
                    # counting its blocks twice. TestBrokenChain pins it.
                    if state.resident:
                        self._evict_segment(state, now)
                    to_load.append(state)

            evicted = recomputed = 0
            try:
                for state in to_load:
                    tokens = state.token_len
                    needed = -(-tokens // block_tokens)
                    if pool.allocated_blocks + needed > pool.total_blocks:
                        evicted += self._evict_for(needed, now)
                    pool.allocated_blocks += needed
                    state.blocks_held = needed
                    state.resident = True
                    if changed is not None:
                        changed[state.node_id] = state
                    state.last_access = stamp
                    self._resident_token_count += tokens
                    self._resident_segment_count += 1
                    if state.parent_id is not None:
                        segments[state.parent_id].resident_children += 1
                    recomputed += tokens
                    stats.recomputed_tokens += tokens
                    if stats.trace_capacity:
                        stats.record(now, CacheEventKind.RECOMPUTE, state.node_id, tokens)
            except CapacityError:
                self.unpin_path(leaf_id)
                break

            if hit_tokens:
                stats.hit_tokens += hit_tokens
                if stats.trace_capacity:
                    stats.record(now, CacheEventKind.HIT, leaf_id, hit_tokens)
            splits.append((hit_tokens, recomputed, evicted))
        return splits

    def materialize(self, leaf_id: int, now: float = 0.0, pin: bool = True) -> MaterializeOutcome:
        """Pin one path, :meth:`pin_paths`'s one-path case, and release it
        again unless ``pin``; raises :class:`CapacityError` if it does not fit."""
        split = self.pin_paths((leaf_id,), now)
        if not split:
            raise CapacityError(f"the path to segment {leaf_id} does not fit")
        if not pin:
            self.unpin_path(leaf_id)
        return MaterializeOutcome(*split[0])

    def extend_segments(
        self, segment_ids: Iterable[int], additional_tokens: int, now: float = 0.0
    ) -> int:
        """Grow a decode span's batch, each tail by ``additional_tokens``.

        Segments grow in the order given until one cannot (not resident,
        or its blocks cannot be found even by evicting — victims evicted
        on the way stay evicted); returns how many grew, and the caller
        decides what to preempt before retrying the rest. A growing
        segment is never its own victim, pinned or not.
        """
        if additional_tokens < 0:
            raise ValueError("additional_tokens must be non-negative")
        segments = self._segments
        changed = self._changed
        pool = self._pool
        total_blocks, block_tokens = pool.total_blocks, pool.block_tokens
        stats = self.stats
        heap = self._evict_heap
        grown = 0
        for segment_id in segment_ids:
            state = segments.get(segment_id)
            if state is None:
                raise _unknown(segment_id)
            if not state.resident:
                break
            new_len = state.token_len + additional_tokens
            needed = -(-new_len // block_tokens) - state.blocks_held
            if needed > 0:
                if pool.allocated_blocks + needed > total_blocks:
                    state.pin_count += 1  # spared while the room is made
                    try:
                        self._evict_for(needed, now)
                    except CapacityError:
                        break
                    finally:
                        state.pin_count -= 1
                        if not state.pin_count and not state.resident_children:
                            # Its frontier entry may have been popped meanwhile.
                            heapq.heappush(heap, (state.last_access, segment_id))
                pool.allocated_blocks += needed
                state.blocks_held += needed
                if state.pin_count == 0:
                    self._evictable_blocks += needed
                stats.allocated_tokens += additional_tokens
                if stats.trace_capacity:
                    stats.record(
                        now, CacheEventKind.ALLOCATE, segment_id, additional_tokens
                    )
            self._resident_token_count += additional_tokens
            state.token_len = new_len
            if changed is not None:
                changed[segment_id] = state
            self._access_clock += 1
            state.last_access = self._access_clock
            if state.pin_count == 0 and not state.resident_children:
                heapq.heappush(heap, (state.last_access, segment_id))
            grown += 1
        return grown

    def truncate_segment(self, segment_id: int, new_len: int, now: float = 0.0) -> int:
        """Shrink a segment to ``new_len`` tokens, freeing excess blocks.

        Used when a duplicated beam keeps only a truncated fraction of its
        speculative head start (paper Sec. 4.1, lines 18-19 of Alg. 1).
        Returns the number of blocks freed.
        """
        if new_len < 0:
            raise ValueError("new_len must be non-negative")
        try:
            state = self._segments[segment_id]
        except KeyError:
            raise _unknown(segment_id) from None
        if new_len > state.token_len:
            raise ValueError("truncate cannot grow a segment")
        if state.resident:
            keep_blocks = -(-new_len // self._pool.block_tokens)
            freed = state.blocks_held - keep_blocks
            if freed > 0:
                self._pool.allocated_blocks -= freed
                state.blocks_held = keep_blocks
                if state.pin_count == 0:
                    self._evictable_blocks -= freed
            self._resident_token_count -= state.token_len - new_len
        else:
            freed = 0
        state.token_len = new_len
        if self._changed is not None:
            self._changed[segment_id] = state
        return freed

    def evict_path(self, leaf_id: int, now: float = 0.0) -> int:
        """Explicitly evict the unpinned resident suffix of a path.

        Returns evicted segment count. Used by preemption.
        """
        leaf = self._segments.get(leaf_id)
        if leaf is None:
            raise _unknown(leaf_id)
        evicted = 0
        for state in reversed(leaf.ancestors + (leaf,)):
            if not (
                state.resident and state.pin_count == 0 and not state.resident_children
            ):
                break  # gone, pinned, or shared with a resident sibling subtree
            self._evict_segment(state, now)
            evicted += 1
        return evicted

    def evict_all(self, now: float = 0.0) -> int:
        """Evict every unpinned resident segment (leaf-first).

        Models a serving stack without cross-call prefix caching (vLLM's
        default): KV from one ``generate()`` call is gone by the next.
        Returns the number of segments evicted.
        """
        evicted = 0
        while (state := self._pop_candidate()) is not None:
            self._evict_segment(state, now)
            evicted += 1
        return evicted

    # -- eviction internals ----------------------------------------------

    # The LRU candidate heap holds ``(last_access, node_id)`` entries of
    # segments that joined the unpinned leaf frontier (resident, unpinned,
    # no resident child). Entries are filed where a segment joins it and
    # validated lazily at pop time, so duplicates and stale entries are fine.

    def _evict_segment(self, state: SegmentState, now: float) -> None:
        if state.pin_count == 0:
            self._evictable_blocks -= state.blocks_held
        self._resident_token_count -= state.token_len
        self._resident_segment_count -= 1
        self._pool.allocated_blocks -= state.blocks_held
        state.blocks_held = 0
        state.resident = False
        if self._changed is not None:
            self._changed[state.node_id] = state
        if state.parent_id is not None:
            parent = self._segments[state.parent_id]
            parent.resident_children -= 1
            if (
                parent.resident
                and parent.pin_count == 0
                and not parent.resident_children
            ):
                heapq.heappush(self._evict_heap, (parent.last_access, parent.node_id))
        stats = self.stats
        stats.evicted_tokens += state.token_len
        stats.evicted_segments += 1
        if stats.trace_capacity:
            stats.record(now, CacheEventKind.EVICT, state.node_id, state.token_len)

    def _pop_candidate(self) -> SegmentState | None:
        """Pop the LRU-most currently-valid eviction victim."""
        heap, segments = self._evict_heap, self._segments
        while heap:
            last_access, seg_id = heapq.heappop(heap)
            state = segments[seg_id]
            if (
                state.last_access == last_access
                and state.resident
                and state.pin_count == 0
                and not state.resident_children
            ):
                return state
        return None

    def _evict_for(self, n_blocks: int, now: float) -> int:
        """Evict LRU victims until ``n_blocks`` blocks are free.

        The shortfall path of every block-taking transition, which then
        takes the blocks itself. Returns the number of segments evicted;
        raises :class:`CapacityError` if pinned residency makes it
        impossible (victims evicted before the shortfall showed stay
        evicted).
        """
        pool = self._pool
        evicted = 0
        while (free := pool.total_blocks - pool.allocated_blocks) < n_blocks:
            victim = self._pop_candidate()
            if victim is None:
                raise CapacityError(
                    f"need {n_blocks} free blocks but only {free} "
                    "available and nothing is evictable (all pinned)"
                )
            self._evict_segment(victim, now)
            evicted += 1
        return evicted
