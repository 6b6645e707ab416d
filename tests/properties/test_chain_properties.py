"""Property-based tests: a chain registered and a cache flushed in one call
each are the per-segment calls they replaced.

``PagedKVCache.register_chain`` registers a job's root->tail chain, and
``PagedKVCache.evict_all`` pops and evicts every unpinned segment in its
own loop. Before, a chain was registered segment by segment (the known
prefix skipped) and the flush popped each victim through
``_pop_candidate`` and evicted it through ``_evict_segment``. This module
keeps both as the reference and runs random op sequences on a twin cache:
chains of a random forest (with tails re-registered at another length),
pinned bursts, releases, decode growth and flushes under a tight block
budget. The two caches must return the same values (or raise the same
error), keep the same books and changes, and evict the same victims in
the same order.
"""

from dataclasses import asdict, replace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import CapacityError
from repro.kvcache.cache import PagedKVCache
from repro.kvcache.events import CacheEventKind

BLOCK_TOKENS = 8
TOTAL_BLOCKS = 12


def reference_register_chain(cache, segment_ids, token_lens):
    """Register a chain as it was before: the path, each unknown segment
    in turn once its leaf is unknown, then the tail on its own."""
    segments = cache.segments
    path, tail = segment_ids[:-1], segment_ids[-1]
    if path and path[-1] not in segments:
        parent = None
        for segment_id, tokens in zip(path, token_lens):
            if segment_id not in segments:
                cache.register_segment(segment_id, parent, tokens)
            parent = segment_id
    return cache.register_segment(tail, path[-1] if path else None, token_lens[-1])


def reference_evict_all(cache, now):
    """Flush as it was before: one pop and one eviction call per victim."""
    evicted = 0
    while (state := cache._pop_candidate()) is not None:
        cache._evict_segment(state, now)
        evicted += 1
    return evicted


def make_cache():
    cache = PagedKVCache(
        capacity_bytes=TOTAL_BLOCKS * BLOCK_TOKENS * 2, kv_bytes_per_token=2,
        block_tokens=BLOCK_TOKENS, trace_capacity=100_000,
    )
    cache.take_changes()  # from here on, changes are recorded
    return cache


def books(cache):
    """Every segment's state, the totals, the trace and the changes."""
    stats = cache.stats
    return (
        {
            node: asdict(replace(state, ancestors=()))
            for node, state in cache.segments.items()
        },
        {node: state.ancestors for node, state in cache.segments.items()},
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


def chain(forest, node):
    """``(ids, token lengths)`` root->``node`` of a forest of
    ``node -> (parent, tokens)``."""
    ids = []
    current = node
    while current is not None:
        ids.append(current)
        current = forest[current][0]
    ids.reverse()
    return tuple(ids), tuple(forest[i][1] for i in ids)


# Node ``i``'s (parent rank or None for a new root, tokens): ranks below
# ``i`` make a random forest, bushy enough that chains share prefixes.
forests = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 10_000)),
        st.integers(0, 2 * BLOCK_TOKENS),
    ),
    min_size=1, max_size=14,
)
ops = st.lists(
    st.one_of(
        # register a node's chain, its tail at its length plus 0 or 1
        st.tuples(st.just("chain"), st.integers(0, 10_000), st.sampled_from([0, 0, 1])),
        st.tuples(st.just("pin"), st.lists(st.integers(0, 10_000), min_size=1, max_size=4)),
        st.tuples(st.just("unpin"), st.integers(0, 10_000)),
        st.tuples(st.just("extend"), st.integers(0, 10_000), st.integers(0, BLOCK_TOKENS)),
        st.tuples(st.just("flush"), st.none()),
    ),
    min_size=1, max_size=40,
)


def run_op(cache, forest, pins, op, now, one_call):
    """Apply one op; returns its result, or its error, as a value."""
    kind, arg, *rest = op
    nodes = sorted(forest)
    registered = [node for node in nodes if node in cache.segments]
    try:
        if kind == "chain":
            ids, lens = chain(forest, nodes[arg % len(nodes)])
            lens = lens[:-1] + (lens[-1] + rest[0],)
            register = cache.register_chain if one_call else (
                lambda i, t: reference_register_chain(cache, i, t)
            )
            return register(ids, lens).node_id
        if kind == "pin":
            if not registered:
                return None
            leaves = [registered[rank % len(registered)] for rank in arg]
            splits = cache.pin_paths(leaves, now)
            pins.extend(leaves[: len(splits)])
            return splits
        if kind == "unpin":
            if pins:
                cache.release_tail(pins.pop(arg % len(pins)))
            return None
        if kind == "extend":
            tails = [
                node for node in registered
                if cache.is_resident(node) and not cache.segments[node].children
            ]
            if not tails:
                return None
            return cache.extend_segments([tails[arg % len(tails)]], rest[0], now)
        return cache.evict_all(now) if one_call else reference_evict_all(cache, now)
    except (CapacityError, ValueError) as error:
        return type(error).__name__, str(error)


def victims(cache):
    return [e.segment_id for e in cache.stats.trace if e.kind is CacheEventKind.EVICT]


class TestOneCallIsThePerSegmentPath:
    @given(forests, ops)
    # A chain whose tail is known at another length refuses, and changes
    # nothing; a flush of two branches takes the leaves before the root.
    @example(
        forest=[(None, 8), (0, 8), (0, 8)],
        op_list=[
            ("chain", 1, 0), ("chain", 2, 0), ("chain", 2, 1),
            ("pin", [1, 2]), ("unpin", 0), ("unpin", 0), ("flush", None),
        ],
    )
    @settings(max_examples=300, deadline=None)
    def test_same_results_books_changes_and_victims(self, forest, op_list):
        tree = {}
        for node, (parent_rank, tokens) in enumerate(forest):
            parent = None if parent_rank is None or node == 0 else parent_rank % node
            tree[node] = (parent, tokens)
        one, each = make_cache(), make_cache()
        one_pins, each_pins = [], []
        for now, op in enumerate(op_list):
            got = run_op(one, tree, one_pins, op, float(now), one_call=True)
            want = run_op(each, tree, each_pins, op, float(now), one_call=False)
            assert got == want, op
            assert books(one) == books(each), op
        for cache, pins in ((one, one_pins), (each, each_pins)):
            for leaf in pins:
                cache.release_tail(leaf)
        assert one.evict_all(99.0) == reference_evict_all(each, 99.0)
        assert one.resident_segment_count == 0
        assert victims(one) == victims(each)  # the same victims, in order
        assert books(one) == books(each)


class TestRegisterChain:
    def test_a_bad_new_segment_changes_nothing(self):
        """Every new segment is checked before the first is registered."""
        cache = make_cache()
        cache.register_chain((1,), (8,))
        with pytest.raises(ValueError, match="non-negative"):
            cache.register_chain((1, 2, 3), (8, 8, -1))
        assert sorted(cache.segments) == [1]
        assert not cache.segments[1].children

    def test_a_known_tail_must_match(self):
        cache = make_cache()
        tail = cache.register_chain((1, 2), (8, 4))
        assert cache.register_chain((1, 2), (8, 4)) is tail
        with pytest.raises(ValueError, match="different attributes"):
            cache.register_chain((1, 2), (8, 5))
        with pytest.raises(ValueError, match="different attributes"):
            cache.register_chain((2,), (4,))  # a root now, under 1 before

    def test_a_known_prefix_is_trusted(self):
        """Only the segments after the last known one are read: a known
        segment's length in the chain is not checked."""
        cache = make_cache()
        cache.register_chain((1, 2), (8, 4))
        state = cache.register_chain((1, 2, 3), (99, 99, 6))
        assert [s.node_id for s in state.ancestors] == [1, 2]
        assert (state.depth, cache.segments[2].token_len) == (2, 4)
