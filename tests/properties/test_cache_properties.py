"""Property-based tests: paged KV cache invariants under random workloads.

A stateful hypothesis machine drives the cache through random register /
materialize / extend / unpin / evict sequences and checks the structural
invariants after every step:

* block accounting is exact (pool allocation == sum of held blocks);
* a resident segment's parent is resident (KV suffixes are never orphaned);
* pinned segments are never evicted;
* the incremental evictable-blocks counter matches a full recount;
* the root->parent chain a segment carries is the parent-link walk, and
  re-registering a segment under another parent changes nothing.

A differential script then runs one random op sequence on a tracing and
a non-tracing cache: the cache keeps its books in place with one spelling
of the totals, so the two must agree on everything after every op.
"""

from dataclasses import asdict, replace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import CapacityError
from repro.kvcache.cache import PagedKVCache
from repro.kvcache.events import CacheEventKind


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # ~25 blocks of 16 tokens, kv_bytes_per_token=2
        self.cache = PagedKVCache(capacity_bytes=25 * 16 * 2, kv_bytes_per_token=2,
                                  block_tokens=16)
        self.cache.register_segment(0, None, 16)
        self.segments = {0: None}  # id -> parent
        self.pins: dict[int, int] = {}
        self.next_id = 1

    @rule(parent_rank=st.integers(0, 10_000), tokens=st.integers(1, 64))
    def register(self, parent_rank, tokens):
        parent = sorted(self.segments)[parent_rank % len(self.segments)]
        seg = self.next_id
        self.next_id += 1
        self.cache.register_segment(seg, parent, tokens)
        self.segments[seg] = parent

    @rule(rank=st.integers(0, 10_000), pin=st.booleans())
    def materialize(self, rank, pin):
        seg = sorted(self.segments)[rank % len(self.segments)]
        try:
            self.cache.materialize(seg, pin=pin)
        except CapacityError:
            return
        if pin:
            self.pins[seg] = self.pins.get(seg, 0) + 1

    @rule(rank=st.integers(0, 10_000), tokens=st.integers(1, 32))
    def extend(self, rank, tokens):
        seg = sorted(self.segments)[rank % len(self.segments)]
        if not self.cache.is_resident(seg):
            return
        if self.cache.tree.get(seg).children:
            return  # only tails grow
        self.cache.extend_segments((seg,), tokens)

    @precondition(lambda self: self.pins)
    @rule(rank=st.integers(0, 10_000))
    def unpin(self, rank):
        pinned = sorted(self.pins)
        seg = pinned[rank % len(pinned)]
        self.cache.release_tail(seg)
        self.pins[seg] -= 1
        if self.pins[seg] == 0:
            del self.pins[seg]

    @rule(rank=st.integers(0, 10_000), tokens=st.integers(0, 16))
    def truncate(self, rank, tokens):
        seg = sorted(self.segments)[rank % len(self.segments)]
        state = self.cache.segment(seg)
        if self.cache.tree.get(seg).children:
            return
        if tokens <= state.token_len:
            self.cache.truncate_segment(seg, tokens)

    @rule()
    def evict_everything(self):
        self.cache.evict_all()

    @rule(rank=st.integers(0, 10_000), parent_rank=st.integers(0, 10_000))
    def reregister_under_another_parent(self, rank, parent_rank):
        ids = sorted(self.segments)
        seg = ids[rank % len(ids)]
        others = [p for p in (None, *ids) if p != self.segments[seg]]
        parent = others[parent_rank % len(others)]
        state = self.cache.segment(seg)
        ancestors = state.ancestors
        with pytest.raises(ValueError):
            self.cache.register_segment(seg, parent, state.token_len)
        assert self.cache.segment(seg) is state
        assert state.ancestors is ancestors

    @invariant()
    def block_accounting_exact(self):
        held = sum(
            self.cache.segment(s).blocks_held
            for s in self.segments
            if self.cache.segment(s).resident
        )
        assert self.cache.pool.allocated_blocks == held

    @invariant()
    def resident_parent_invariant(self):
        for seg, parent in self.segments.items():
            if parent is None:
                continue
            if self.cache.is_resident(seg):
                assert self.cache.is_resident(parent), (
                    f"segment {seg} resident without parent {parent}"
                )

    @invariant()
    def pinned_stay_resident(self):
        for seg in self.pins:
            for node in self.cache.tree.path(seg):
                assert self.cache.is_resident(node)

    @invariant()
    def evictable_counter_matches_recount(self):
        recount = sum(
            self.cache.segment(s).blocks_held
            for s in self.segments
            if self.cache.segment(s).resident
            and self.cache.segment(s).pin_count == 0
        )
        assert self.cache.evictable_blocks == recount

    @invariant()
    def carried_chain_is_the_parent_walk(self):
        segments = self.cache.segments
        for seg in self.segments:
            state = segments[seg]
            carried = state.ancestors + (state,)
            walked = [segments[node] for node in self.cache.tree.path(seg)]
            assert len(carried) == len(walked)
            assert all(a is b for a, b in zip(carried, walked)), seg

    @invariant()
    def resident_tokens_matches_recount(self):
        recount = sum(
            self.cache.segment(s).token_len
            for s in self.segments
            if self.cache.segment(s).resident
        )
        assert self.cache.resident_tokens == recount


CacheMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestCacheMachine = CacheMachine.TestCase


BLOCK_TOKENS = 8

# One op: (kind, rank or ranks, payload). Ranks pick among the segments
# registered at that point, so every script is valid on any cache.
script = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.integers(0, 10_000), st.integers(0, 40)),
        st.tuples(st.just("materialize"), st.integers(0, 10_000), st.booleans()),
        st.tuples(
            st.just("extend"),
            st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
            st.integers(0, 48),
        ),
        st.tuples(st.just("truncate"), st.integers(0, 10_000), st.integers(0, 40)),
        st.tuples(st.just("unpin"), st.integers(0, 10_000), st.none()),
        st.tuples(st.just("evict_path"), st.integers(0, 10_000), st.none()),
        st.tuples(st.just("evict_all"), st.none(), st.none()),
    ),
    min_size=1,
    max_size=60,
)


def scripted_cache(trace_capacity):
    """12 blocks of 8 tokens under one 8-token root, recording changes."""
    cache = PagedKVCache(
        capacity_bytes=12 * BLOCK_TOKENS * 2, kv_bytes_per_token=2,
        block_tokens=BLOCK_TOKENS, trace_capacity=trace_capacity,
    )
    cache.register_segment(0, None, BLOCK_TOKENS)
    cache.take_changes()  # from here on, changes are recorded
    return cache


def run_script_op(cache, pins, op, now):
    """Apply one op; returns its result, or the error it raised, as a value.

    ``pins`` lists the leaves pinned so far (one entry per pin).
    """
    kind, arg, size = op
    segments = cache.segments
    ids = sorted(segments)
    tails = [node for node in ids if not segments[node].children]
    try:
        if kind == "register":
            return cache.register_segment(ids[-1] + 1, ids[arg % len(ids)], size).node_id
        if kind == "materialize":
            leaf = ids[arg % len(ids)]
            outcome = cache.materialize(leaf, now=now, pin=size)
            if size:
                pins.append(leaf)
            return outcome
        if kind == "extend":  # a batch of tails: a shortfall can stop mid-batch
            batch = list(dict.fromkeys(tails[rank % len(tails)] for rank in arg))
            return cache.extend_segments(batch, size, now)
        if kind == "truncate":
            tail = tails[arg % len(tails)]
            return cache.truncate_segment(tail, min(size, segments[tail].token_len), now)
        if kind == "unpin":
            if pins:
                cache.release_tail(pins.pop(arg % len(pins)))
            return None
        if kind == "evict_path":
            return cache.evict_path(ids[arg % len(ids)], now)
        return cache.evict_all(now)
    except CapacityError as error:
        return str(error)


def recording_victims(cache):
    """Every segment ``cache`` evicts from now on, in eviction order.

    A single eviction goes through ``_evict_segment``; a flush
    (``evict_all``) evicts in its own loop, and its victims are the
    changes it records, in the order it records them (the script takes
    the changes after every op, so a flush starts from none).
    """
    victims = []
    evict, flush = cache._evict_segment, cache.evict_all

    def recording(state, now):
        victims.append(state.node_id)
        evict(state, now)

    def flushing(now=0.0):
        assert not cache._changed
        evicted = flush(now)
        assert len(cache._changed) == evicted
        victims.extend(cache._changed)
        return evicted

    cache._evict_segment = recording
    cache.evict_all = flushing
    return victims


def cache_books(cache):
    """Every segment's state, the block / residency totals, the statistics
    totals and what changed since the last look (which starts over)."""
    stats = cache.stats
    return (
        # Without the carried chain: ``asdict`` would copy every ancestor,
        # and each ancestor's ancestors, again.
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
        [state.node_id for state in cache.take_changes()],
    )


class TestTracingChangesNothing:
    @given(script)
    # An unpinned tail outgrowing the free blocks is its own LRU victim
    # only if nothing spares it: it must stay resident and stop the batch.
    @example([
        ("register", 0, 40), ("materialize", 1, True),
        ("register", 0, 8), ("materialize", 2, False),
        ("extend", [1], 41), ("evict_all", None, None),
    ])
    # Two pinned tails: the first grows, the second finds no block left.
    @example([
        ("register", 0, 40), ("materialize", 1, True),
        ("register", 0, 8), ("materialize", 2, True),
        ("extend", [0, 1], 24),
    ])
    @settings(max_examples=150, deadline=None)
    def test_traced_and_untraced_caches_keep_the_same_books(self, ops):
        traced, plain = scripted_cache(10_000), scripted_cache(0)
        victims = recording_victims(plain)
        traced_pins, plain_pins = [], []
        for now, op in enumerate(ops):
            got = run_script_op(traced, traced_pins, op, float(now))
            assert run_script_op(plain, plain_pins, op, float(now)) == got, op
            books = cache_books(plain)
            assert cache_books(traced) == books, op
            segments, allocated = books[0], books[1]
            assert allocated == sum(
                state["blocks_held"] for state in segments.values() if state["resident"]
            )
            evictions = [
                event.segment_id for event in traced.stats.trace
                if event.kind is CacheEventKind.EVICT
            ]
            assert evictions == victims  # the same victims, in the same order
        assert plain.stats.trace == []
        # The trace rows are the counted transitions.
        stats, traced_tokens = traced.stats, dict.fromkeys(CacheEventKind, 0)
        for event in stats.trace:
            traced_tokens[event.kind] += event.tokens
        assert traced_tokens == {
            CacheEventKind.ALLOCATE: stats.allocated_tokens,
            CacheEventKind.HIT: stats.hit_tokens,
            CacheEventKind.EVICT: stats.evicted_tokens,
            CacheEventKind.RECOMPUTE: stats.recomputed_tokens,
        }


class TestCacheEdges:
    @pytest.mark.parametrize("block_tokens", [1, 7, 16, 64])
    def test_block_granularities(self, block_tokens):
        cache = PagedKVCache(capacity_bytes=1000 * 2, kv_bytes_per_token=2,
                             block_tokens=block_tokens)
        cache.register_segment(1, None, 33)
        outcome = cache.materialize(1)
        assert outcome.recomputed_tokens == 33
        assert cache.pool.allocated_blocks == -(-33 // block_tokens)
