"""Property-based tests: a burst pinned in one call is its paths pinned in turn.

``PagedKVCache.pin_paths`` admits a whole generation burst, speculative
slot or verifier batch in one call. Before it existed, each path was its
own admission test (``path_block_demand``) and its own ``materialize``.
This module keeps a copy of that per-path loop as the reference and runs
it on a twin cache: random trees, then random bursts of paths that share
prefixes under a tight block budget, with and without planned growth, and
with pins released between bursts. The two caches must agree on the
returned splits and on every book, and a final ``evict_all`` must take
the same victims in the same order.
"""

from dataclasses import asdict, replace

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.errors import CapacityError
from repro.kvcache.cache import PagedKVCache
from repro.kvcache.events import CacheEventKind

BLOCK_TOKENS = 8
TOTAL_BLOCKS = 10


def reference_block_demand(cache, leaf_id, extra_tokens):
    """``(needed_blocks, reclaimable_blocks)`` for pinning a path, as the
    per-path admission test computed it: block rounding per missing
    segment plus the leaf's planned growth, against free blocks plus
    everything evictable outside the path."""
    leaf = cache.segments[leaf_id]
    pool = cache.pool
    block_tokens = pool.block_tokens
    needed_blocks = own_evictable = 0
    broken = False
    for state in leaf.ancestors:
        if state.resident and not broken:
            if state.pin_count == 0:
                own_evictable += state.blocks_held
            continue
        broken = True
        needed_blocks += -(-state.token_len // block_tokens)
    tokens = leaf.token_len + extra_tokens
    if leaf.resident and not broken:
        if leaf.pin_count == 0:
            own_evictable += leaf.blocks_held
        needed_blocks += -(-tokens // block_tokens) - leaf.blocks_held
    else:
        needed_blocks += -(-tokens // block_tokens)
    free_blocks = pool.total_blocks - pool.allocated_blocks
    return needed_blocks, free_blocks + cache.evictable_blocks - own_evictable


def reference_materialize(cache, leaf_id, now):
    """Pin one root->leaf path resident, as the per-path ``materialize``
    did; raises :class:`CapacityError` (its pins rolled back) when the
    path does not fit even after evicting."""
    leaf = cache.segments[leaf_id]
    cache.access_clock += 1
    stamp = cache.access_clock
    hit_tokens = 0
    to_load = []
    for state in leaf.ancestors + (leaf,):
        if state.pin_count == 0 and state.resident:
            cache._evictable_blocks -= state.blocks_held
        state.pin_count += 1
        if state.resident and not to_load:
            hit_tokens += state.token_len
            state.last_access = stamp
        else:
            if state.resident:
                cache._evict_segment(state, now)
            to_load.append(state)
    evicted = recomputed = 0
    pool, stats, changed = cache.pool, cache.stats, cache._changed
    try:
        for state in to_load:
            tokens = state.token_len
            needed = -(-tokens // pool.block_tokens)
            if pool.allocated_blocks + needed > pool.total_blocks:
                evicted += cache._evict_for(needed, now)
            pool.allocated_blocks += needed
            state.blocks_held = needed
            state.resident = True
            if changed is not None:
                changed[state.node_id] = state
            state.last_access = stamp
            cache._resident_token_count += tokens
            cache._resident_segment_count += 1
            if state.parent_id is not None:
                cache.segments[state.parent_id].resident_children += 1
            recomputed += tokens
            stats.recomputed_tokens += tokens
            if stats.trace_capacity:
                stats.record(now, CacheEventKind.RECOMPUTE, state.node_id, tokens)
    except CapacityError:
        cache.release_tail(leaf_id)
        raise
    if hit_tokens:
        stats.hit_tokens += hit_tokens
        if stats.trace_capacity:
            stats.record(now, CacheEventKind.HIT, leaf_id, hit_tokens)
    return hit_tokens, recomputed, evicted


def reference_pin_paths(cache, leaf_ids, now, grow):
    """The per-path loop a burst replaced: each path's admission test
    (with growth), then its own pin."""
    splits = []
    claimed = 0
    for index, leaf_id in enumerate(leaf_ids):
        if grow is not None:
            needed, reclaimable = reference_block_demand(cache, leaf_id, grow[index])
            if claimed + needed > reclaimable:
                break
            claimed += needed
        try:
            splits.append(reference_materialize(cache, leaf_id, now))
        except CapacityError:
            break
    return splits


def make_twin(tree):
    """A traced cache of ``TOTAL_BLOCKS`` blocks holding ``tree``: node
    ``i + 1`` hangs under an earlier node picked by ``tree[i]``'s rank."""
    cache = PagedKVCache(
        capacity_bytes=TOTAL_BLOCKS * BLOCK_TOKENS * 2, kv_bytes_per_token=2,
        block_tokens=BLOCK_TOKENS, trace_capacity=100_000,
    )
    cache.register_segment(0, None, BLOCK_TOKENS)
    for node, (parent_rank, tokens) in enumerate(tree, start=1):
        cache.register_segment(node, parent_rank % node, tokens)
    cache.take_changes()  # from here on, changes are recorded
    return cache


def books(cache):
    """Every segment's state, the block / residency totals, the statistics
    (totals and trace) and what changed since the last look."""
    stats = cache.stats
    return (
        {
            node: asdict(replace(state, ancestors=()))
            for node, state in cache.segments.items()
        },
        cache.pool.allocated_blocks,
        cache.evictable_blocks,
        cache.resident_tokens,
        cache.resident_segment_count,
        (
            stats.hit_tokens, stats.recomputed_tokens, stats.allocated_tokens,
            stats.evicted_tokens, stats.evicted_segments,
        ),
        list(stats.trace),
        [state.node_id for state in cache.take_changes()],
    )


# Node ``i + 1``'s (parent rank, token length). Ranks below a node's own
# id make a random tree; short ranges keep it bushy, so paths share
# prefixes, and lengths up to three blocks keep the budget tight.
trees = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 3 * BLOCK_TOKENS)),
    min_size=1, max_size=14,
)
# One burst: leaf ranks, each leaf's planned growth or no growth at all,
# and which earlier burst (if any) releases its pins afterwards.
bursts = st.lists(
    st.tuples(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
        st.one_of(st.none(), st.lists(st.integers(0, 2 * BLOCK_TOKENS), min_size=6, max_size=6)),
        st.one_of(st.none(), st.integers(0, 10_000)),
    ),
    min_size=1, max_size=8,
)


class TestBurstIsPerPathLoop:
    @given(trees, bursts)
    # Without growth, the second path finds no block even by evicting.
    @example(
        tree=[(0, 24), (1, 24), (0, 24), (3, 24)],
        bursts=[([2, 4, 1], None, None)],
    )
    # With growth, the first path's promised tail leaves no room for the
    # second; a released burst then lets the same paths in.
    @example(
        tree=[(0, 16), (1, 16), (0, 16)],
        bursts=[([2, 3, 1], [16, 16, 0, 0, 0, 0], 0), ([2, 3], [0, 0, 0, 0, 0, 0], None)],
    )
    @settings(max_examples=200, deadline=None)
    def test_a_burst_keeps_the_books_of_its_paths_pinned_in_turn(self, tree, bursts):
        burst_cache, path_cache = make_twin(tree), make_twin(tree)
        nodes = len(tree) + 1
        pinned: list[list[int]] = []  # each burst's pinned leaves
        for now, (ranks, grow, release) in enumerate(bursts):
            leaves = [rank % nodes for rank in ranks]
            plan = None if grow is None else grow[: len(leaves)]
            got = burst_cache.pin_paths(leaves, float(now), plan)
            assert reference_pin_paths(path_cache, leaves, float(now), plan) == got
            assert len(got) <= len(leaves)
            pinned.append(leaves[: len(got)])
            if release is not None:
                for leaf in pinned[release % len(pinned)]:
                    burst_cache.release_tail(leaf)
                    path_cache.release_tail(leaf)
                pinned[release % len(pinned)] = []
            assert books(burst_cache) == books(path_cache)
        for leaves in pinned:
            for leaf in leaves:
                burst_cache.release_tail(leaf)
                path_cache.release_tail(leaf)
        assert burst_cache.evict_all() == path_cache.evict_all()
        assert burst_cache.resident_segment_count == 0
        victims = [
            [e.segment_id for e in cache.stats.trace if e.kind is CacheEventKind.EVICT]
            for cache in (burst_cache, path_cache)
        ]
        assert victims[0] == victims[1]
        assert books(burst_cache) == books(path_cache)
