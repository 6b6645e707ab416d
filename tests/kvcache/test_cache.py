"""Tests for the paged KV cache: residency, pinning, eviction, truncation."""

import cProfile
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import CapacityError
from repro.kvcache.cache import PagedKVCache


def make_cache(capacity_tokens: int = 160, block_tokens: int = 16) -> PagedKVCache:
    """Cache with byte-math arranged so capacity_tokens is exact."""
    return PagedKVCache(
        capacity_bytes=capacity_tokens * 4,
        kv_bytes_per_token=4,
        block_tokens=block_tokens,
    )


@pytest.fixture
def cache():
    c = make_cache()
    c.register_segment(1, None, 32)   # prompt
    c.register_segment(2, 1, 16)      # step 0 of path A
    c.register_segment(3, 1, 16)      # step 0 of path B
    c.register_segment(4, 2, 16)      # step 1 of path A
    return c


class TestMaterialize:
    def test_cold_materialize_recomputes_everything(self, cache):
        outcome = cache.materialize(4)
        assert outcome.hit_tokens == 0
        assert outcome.recomputed_tokens == 64
        assert cache.resident_tokens == 64

    def test_warm_materialize_hits(self, cache):
        cache.materialize(4)
        cache.release_tail(4)
        outcome = cache.materialize(4)
        assert outcome.hit_tokens == 64
        assert outcome.recomputed_tokens == 0

    def test_sibling_shares_prefix(self, cache):
        cache.materialize(2)
        outcome = cache.materialize(3)
        assert outcome.hit_tokens == 32  # prompt shared
        assert outcome.recomputed_tokens == 16

    def test_pin_protects_from_eviction(self, cache):
        cache.materialize(4)  # 64 tokens pinned
        cache.register_segment(5, 3, 120)
        with pytest.raises(CapacityError):
            cache.materialize(5)  # needs 136+, only 96 unpinned left

    def test_unpinned_is_evicted_for_new_work(self, cache):
        cache.materialize(4, pin=False)
        cache.register_segment(5, 3, 104)
        outcome = cache.materialize(5)
        assert outcome.recomputed_tokens == 120  # 16 (seg 3) + 104 (seg 5)
        assert not cache.is_resident(4)

    def test_materialize_never_evicts_own_prefix(self, cache):
        """The hit prefix survives even when loading needs heavy eviction."""
        cache.materialize(4, pin=False)
        cache.register_segment(5, 3, 104)
        cache.materialize(5, pin=False)
        assert cache.is_resident(1)  # the prompt was a hit, not a victim

    def test_stats_hit_rate(self, cache):
        cache.materialize(4)
        cache.release_tail(4)
        cache.materialize(4)
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestPinning:
    def test_unpin_without_pin_raises(self, cache):
        cache.materialize(4, pin=False)
        with pytest.raises(CapacityError):
            cache.release_tail(4)

    def test_double_pin_needs_double_unpin(self, cache):
        cache.materialize(4)          # pin 1
        cache.materialize(4)          # pin 2
        cache.release_tail(4)
        cache.register_segment(5, 3, 104)
        with pytest.raises(CapacityError):
            cache.materialize(5)      # still pinned once
        cache.release_tail(4)
        cache.materialize(5)          # now evictable

    def test_failed_unpin_leaves_everything_untouched(self, cache):
        # Root pinned and resident, its descendants neither: releasing the
        # deep path must fail on segment 2 *before* the root's pin is given
        # up (which would make it evictable and queue it as an LRU victim).
        cache.materialize(1)
        evictable, heap = cache.evictable_blocks, list(cache._evict_heap)
        with pytest.raises(CapacityError, match="segment 2 is not pinned"):
            cache.release_tail(4)
        assert [cache.segment(s).pin_count for s in (1, 2, 4)] == [1, 0, 0]
        assert cache.evictable_blocks == evictable
        assert cache._evict_heap == heap
        assert cache.evict_all() == 0 and cache.is_resident(1)
        cache.release_tail(1)  # the real pin is still there to release


class TestExtend:
    def test_extend_grows_tokens_and_blocks(self, cache):
        cache.materialize(2)
        blocks_before = cache.pool.allocated_blocks
        assert cache.extend_segments((2,), 20) == 1
        assert cache.segment(2).token_len == 36
        assert cache.pool.allocated_blocks > blocks_before

    def test_extend_within_block_is_free(self, cache):
        cache.materialize(2)  # 16 tokens = 1 block exactly
        assert cache.extend_segments((2,), 0) == 1
        blocks = cache.pool.allocated_blocks
        cache.register_segment(9, 2, 1)
        cache.materialize(9)
        cache.extend_segments((9,), 10)  # 1+10 = 11 < 16: same block
        assert cache.pool.allocated_blocks == blocks + 1

    def test_extend_nonresident_grows_nothing(self, cache):
        assert cache.extend_segments((2,), 5) == 0
        assert cache.segment(2).token_len == 16

    def test_extend_evicts_unpinned(self, cache):
        cache.materialize(3, pin=False)   # 48 tokens, 3 unpinned after next pin
        cache.materialize(2)              # pins prompt + 2
        assert cache.extend_segments((2,), 100) == 1  # evicts 3's tail
        assert not cache.is_resident(3)

    def test_extend_past_all_memory_grows_nothing(self, cache):
        cache.materialize(2)
        assert cache.extend_segments((2,), 10_000) == 0
        assert cache.segment(2).token_len == 16


class TestDecodeTails:
    """A decode round's tails: blocks at crossings, the rest at leave."""

    def test_a_span_takes_blocks_and_totals_but_writes_no_length(self, cache):
        cache.materialize(2)  # 16 tokens, one block, pinned
        cache.take_changes()
        blocks, tokens = cache.pool.allocated_blocks, cache.resident_tokens
        clock = cache.access_clock
        # 20 tokens grown: the tail's length is 36 at the span's end.
        assert cache.grow_span([(2, 36)], 20, 20, 3) == 1
        assert cache.pool.allocated_blocks == blocks + 2
        assert cache.resident_tokens == tokens + 20
        assert cache.access_clock == clock + 3  # stamps reserved
        assert cache.segment(2).token_len == 16
        assert cache.take_changes() == []
        cache.release_tail(2, 20, clock + 2)
        assert cache.segment(2).token_len == 36
        assert cache.segment(2).last_access == clock + 2
        assert [s.node_id for s in cache.take_changes()] == [2]
        assert cache.segment(2).pin_count == 0

    def test_a_span_short_of_blocks_moves_no_total(self, cache):
        cache.materialize(2)
        tokens, clock = cache.resident_tokens, cache.access_clock
        assert cache.grow_span([(2, 10_000)], 9_984, 9_984, 1) == 0
        assert (cache.resident_tokens, cache.access_clock) == (tokens, clock)
        cache.settle_tails([(2, 4, clock + 1)])  # bring it to where it stopped
        assert cache.segment(2).token_len == 20
        assert cache.segment(2).last_access == clock + 1

    def test_a_failed_release_writes_nothing(self, cache):
        cache.materialize(4, pin=False)
        with pytest.raises(CapacityError):
            cache.release_tail(4, 5, 99)
        assert cache.segment(4).token_len == 16
        assert cache.segment(4).last_access != 99


class TestTruncate:
    def test_truncate_frees_blocks(self, cache):
        cache.materialize(2)
        cache.extend_segments((2,), 48)  # 64 tokens, 4 blocks
        freed = cache.truncate_segment(2, 16)
        assert freed == 3
        assert cache.segment(2).token_len == 16

    def test_truncate_nonresident_updates_len_only(self, cache):
        cache.truncate_segment(2, 8)
        assert cache.segment(2).token_len == 8

    def test_truncate_cannot_grow(self, cache):
        with pytest.raises(ValueError):
            cache.truncate_segment(2, 999)


class TestBlockRounding:
    """A resident segment of ``t`` tokens holds ``ceil(t / 16)`` blocks,
    whichever operation set its length: zero, a partial block, an exact
    fit, one token over, and the whole budget."""

    LENGTHS = [(0, 0), (1, 1), (16, 1), (17, 2), (160, 10)]

    @staticmethod
    def assert_holds(cache, blocks):
        assert cache.segment(1).blocks_held == blocks
        assert cache.pool.allocated_blocks == blocks

    @pytest.mark.parametrize("tokens, blocks", LENGTHS)
    def test_materialize(self, tokens, blocks):
        cache = make_cache()
        cache.register_segment(1, None, tokens)
        cache.materialize(1)
        self.assert_holds(cache, blocks)

    @pytest.mark.parametrize("tokens, blocks", LENGTHS)
    def test_extend(self, tokens, blocks):
        cache = make_cache()
        cache.register_segment(1, None, 0)
        cache.materialize(1)
        assert cache.extend_segments((1,), tokens) == 1
        self.assert_holds(cache, blocks)

    @pytest.mark.parametrize("tokens, blocks", LENGTHS)
    def test_truncate(self, tokens, blocks):
        cache = make_cache()
        cache.register_segment(1, None, 160)
        cache.materialize(1)
        assert cache.truncate_segment(1, tokens) == 10 - blocks
        self.assert_holds(cache, blocks)

    def test_negative_lengths_raise(self, cache):
        with pytest.raises(ValueError):
            cache.register_segment(9, None, -1)
        with pytest.raises(ValueError):
            cache.extend_segments((2,), -1)
        with pytest.raises(ValueError):
            cache.truncate_segment(2, -1)


class TestEviction:
    def test_lru_order(self, cache):
        cache.materialize(2, pin=False)
        cache.materialize(3, pin=False)
        cache.materialize(2, pin=False)  # 2 is now more recent than 3
        cache.register_segment(5, 1, 104)
        cache.materialize(5, pin=False)  # needs one eviction: 3 goes first
        assert not cache.is_resident(3)
        assert cache.is_resident(2)

    def test_evict_path(self, cache):
        cache.materialize(4, pin=False)
        profiler = cProfile.Profile(builtins=False)
        evicted = profiler.runcall(cache.evict_path, 4)
        assert evicted == 3  # 4, 2, and prompt 1
        assert cache.resident_tokens == 0
        # It walks the chain the leaf carries once, calling only the
        # per-segment eviction.
        (entry,) = (
            e for e in profiler.getstats()
            if getattr(e.code, "co_qualname", "") == "PagedKVCache.evict_path"
        )
        callees = {sub.code.co_qualname: sub.callcount for sub in entry.calls}
        assert callees == {"PagedKVCache._evict_segment": 3}

    def test_evict_path_stops_at_shared(self, cache):
        cache.materialize(4, pin=False)
        cache.materialize(3, pin=False)
        cache.evict_path(4)
        assert cache.is_resident(1)  # prompt shared with path B
        assert cache.is_resident(3)

    def test_evict_all(self, cache):
        cache.materialize(4, pin=False)
        cache.materialize(3, pin=False)
        count = cache.evict_all()
        assert count == 4
        assert cache.resident_tokens == 0
        assert cache.pool.allocated_blocks == 0

    def test_evict_all_spares_pinned(self, cache):
        cache.materialize(4)  # pinned
        cache.materialize(3, pin=False)
        cache.evict_all()
        assert cache.is_resident(4)
        assert not cache.is_resident(3)

    @staticmethod
    def fits(cache, leaf_id):
        """Whether a burst with no planned growth admits the path; an
        admitted path is pinned resident, and released again here."""
        if not cache.pin_paths((leaf_id,), grow=(0,)):
            return False
        cache.release_tail(leaf_id)
        return True

    def test_block_demand_fits(self, cache):
        assert self.fits(cache, 4)
        cache.materialize(4)
        cache.register_segment(5, 3, 200)
        assert not self.fits(cache, 5)

    def test_block_demand_counts_evictable(self, cache):
        cache.materialize(4, pin=False)
        cache.register_segment(5, 3, 96)  # missing 112 tokens = 7 blocks
        assert self.fits(cache, 5)        # 6 free + 2 evictable off-path
        assert cache.is_resident(5)       # and it actually fit


class TestPinPaths:
    """One call pins a burst of paths in order; with planned growth, each
    path is admitted against the blocks promised to the paths before it."""

    def test_a_burst_is_its_paths_pinned_in_turn(self, cache):
        assert cache.pin_paths((4, 3, 4)) == [(0, 64, 0), (32, 16, 0), (64, 0, 0)]
        assert [cache.segment(s).pin_count for s in (1, 2, 3, 4)] == [3, 2, 1, 2]

    def test_growth_promised_to_earlier_paths_counts(self, cache):
        # 4's path takes 4 of the 10 blocks; 3's takes one more, and each
        # tail growing by 16 tokens needs one block beyond that.
        assert cache.pin_paths((4, 3), grow=(0, 16)) == [(0, 64, 0), (32, 16, 0)]
        cache.release_tail(4)
        cache.release_tail(3)
        cache.evict_all()
        assert cache.pin_paths((4, 3), grow=(16, 16)) == [(0, 64, 0)]
        assert cache.segment(3).pin_count == 0 and not cache.is_resident(3)

    def test_a_refused_path_is_left_untouched(self, cache):
        cache.materialize(4, pin=False)
        cache.materialize(3)
        cache.register_segment(5, 3, 200)
        cache.take_changes()

        def books():
            return (
                cache.pool.allocated_blocks, cache.evictable_blocks,
                cache.resident_tokens, cache.stats.hit_tokens,
                [(s.pin_count, s.last_access, s.resident) for s in cache.segments.values()],
            )

        before = books()
        assert cache.pin_paths((5,), grow=(0,)) == []
        assert books() == before
        assert cache.take_changes() == []
        # The next path to be pinned takes the stamp the refused one did not.
        cache.materialize(2)
        assert cache.segment(2).last_access == cache.segment(3).last_access + 1

    def test_without_grow_a_path_that_cannot_fit_ends_the_call(self, cache):
        cache.register_segment(5, 3, 120)  # 3 + 5: 9 blocks, 6 left after 4
        assert cache.pin_paths((4, 5, 2)) == [(0, 64, 0)]
        # 5's pins are rolled back (3, loaded on the way, stays resident);
        # 4's stay; 2 was never reached.
        assert [cache.segment(s).pin_count for s in (1, 2, 3, 4, 5)] == [1, 1, 0, 1, 0]
        assert cache.is_resident(3) and not cache.is_resident(5)
        with pytest.raises(CapacityError):
            cache.materialize(5)  # the one-path case raises instead


def per_branch(cache, plans, now=0.0):
    """A speculation fill's cache calls one branch at a time: register the
    empty head, then pin its path with its planned growth alone."""
    splits = []
    for _, head, parent, tokens in plans:
        cache.register_segment(head, parent, 0)
        split = cache.pin_paths((head,), now, grow=(tokens,))
        splits.append(split[0] if split else None)
    return splits


def outcome(call, cache, plans):
    try:
        return call(cache, plans, 1.0)
    except (KeyError, ValueError) as error:
        return type(error), str(error)


def fused(cache, plans, now=0.0):
    return cache.pin_paths(plans, now, heads=True)


def books(cache):
    """Everything a caller can observe: totals, every segment's tree and
    cache state (stamps included), the statistics with their trace, and
    the segments changed since the last look."""
    return {
        "totals": (
            cache.pool.allocated_blocks, cache.evictable_blocks, cache.resident_tokens,
            cache.resident_segment_count, cache.access_clock,
        ),
        "segments": [
            (
                s.node_id, s.parent_id, s.token_len, s.depth, sorted(s.children),
                [a.node_id for a in s.ancestors], s.resident, s.pin_count,
                s.blocks_held, s.last_access, s.resident_children,
            )
            for s in cache.segments.values()
        ],
        "stats": replace(cache.stats, trace=list(cache.stats.trace)),
        "changed": [s.node_id for s in cache.take_changes()],
    }


def victims(cache):
    """The LRU order, replayed: a flush's eviction trace."""
    seen = len(cache.stats.trace)
    cache.evict_all(now=2.0)
    return cache.stats.trace[seen:]


def fail_eviction_at(cache, call):
    """Make the ``call``-th eviction find no victim. No valid state lets a
    path that passed its admission test run out of victims, so this is
    how a test reaches the rollback."""
    real, calls = cache._evict_for, [0]

    def evict_for(n_blocks, now):
        calls[0] += 1
        if calls[0] == call:
            raise CapacityError("no victim (injected)")
        return real(n_blocks, now)

    cache._evict_for = evict_for


def twin_caches(setup, capacity_tokens=160):
    caches = []
    for _ in range(2):
        cache = PagedKVCache(
            capacity_tokens * 4, 4, block_tokens=16, trace_capacity=10_000
        )
        setup(cache)
        cache.take_changes()  # start recording changes
        caches.append(cache)
    return caches


def lineage(i):
    return (0, i)


class TestPinHeads:
    """``pin_paths(plans, now, heads=True)``, a speculation fill's one cache
    call, equals the per-branch loop it replaced (``register_segment``,
    then a one-path ``pin_paths`` with ``grow``) on the books, the stamps,
    ``take_changes``, ``CacheStats`` and the victims, refusals and errors
    included."""

    def assert_same(self, setup, plans, fault=None, capacity_tokens=160):
        new, reference = twin_caches(setup, capacity_tokens)
        if fault is not None:
            fail_eviction_at(new, fault)
            fail_eviction_at(reference, fault)
        result = outcome(fused, new, plans)
        assert result == outcome(per_branch, reference, plans)
        assert books(new) == books(reference)
        resident = {s.node_id for s in new.resident_segments()}
        assert victims(new) == victims(reference)
        return result, new, resident

    def test_a_refused_branch_is_skipped_and_the_next_one_admitted(self):
        def setup(cache):
            cache.register_segment(1, None, 32)
            cache.register_segment(3, 1, 48)
            cache.materialize(3)  # 5 of the 10 blocks, pinned

        plans = [(lineage(0), 100, 3, 200), (lineage(1), 101, 1, 40)]
        result, cache, _ = self.assert_same(setup, plans)
        # 100 needs 13 blocks for its growth; 101 needs 3 of the 5 free.
        assert result == [None, (32, 0, 0)]
        assert cache.segments[100].pin_count == 0 and not cache.is_resident(100)
        assert cache.segments[101].pin_count == 1 and cache.is_resident(101)

    def test_growth_promised_to_an_earlier_branch_is_not_counted(self):
        def setup(cache):
            cache.register_segment(1, None, 32)
            cache.materialize(1)

        # Each branch's growth takes 5 of the 8 free blocks: alone, each fits.
        plans = [(lineage(i), 100 + i, 1, 80) for i in range(3)]
        result, _, _ = self.assert_same(setup, plans)
        assert result == [(32, 0, 0)] * 3

    def test_a_capacity_error_rolls_back_only_that_branch(self):
        def setup(cache):
            cache.register_segment(1, None, 32)
            cache.register_segment(2, 1, 64)
            cache.register_segment(3, 1, 48)
            cache.register_segment(5, 1, 32)
            cache.materialize(2, pin=False)  # 4 blocks, the LRU victim
            cache.materialize(3)  # 9 of the 10 blocks in use

        plans = [
            (lineage(0), 100, 3, 10),  # growth in the free block
            (lineage(1), 101, 5, 8),  # loading 5 must evict: it fails
            (lineage(2), 102, 3, 5),
        ]
        result, cache, resident = self.assert_same(setup, plans, fault=1)
        assert result == [(80, 0, 0), None, (80, 0, 0)]
        assert [cache.segments[s].pin_count for s in (1, 3, 5, 100, 101, 102)] == [
            3, 3, 0, 1, 0, 1
        ]
        assert 2 in resident and 5 not in resident

    def test_a_differing_re_registration_raises_before_its_branch_changes(self):
        def setup(cache):
            cache.register_segment(1, None, 32)
            cache.register_segment(7, 1, 16)
            cache.register_segment(100, 1, 0)

        clash = [(lineage(1), 7, 1, 8)]  # 7 holds 16 tokens, a head none
        moved = [(lineage(2), 100, 7, 8)]  # 100 hangs under 1, not 7
        ok = [(lineage(0), 101, 1, 8)]
        for bad in (clash, moved):
            result, cache, _ = self.assert_same(setup, ok + bad + ok)
            assert result[0] is ValueError
            assert cache.segments[101].pin_count == 1  # the branch before it
            new, _ = twin_caches(setup)
            before = books(new)
            with pytest.raises(ValueError, match="different attributes"):
                new.pin_paths(bad + ok, heads=True)
            assert books(new) == before  # nothing changed at all
        result, _, _ = self.assert_same(setup, ok + [(lineage(3), 102, 55, 8)])
        assert result == (KeyError, "'parent segment 55 is not registered'")

    def test_re_registering_an_empty_head_is_a_pin(self):
        def setup(cache):
            cache.register_segment(1, None, 32)

        plans = [(lineage(0), 100, 1, 8), (lineage(0), 100, 1, 8)]
        result, cache, _ = self.assert_same(setup, plans)
        assert result == [(0, 32, 0), (32, 0, 0)]
        assert cache.segments[100].pin_count == 2

    @given(
        capacity=st.sampled_from([64, 96, 160]),
        steps=st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 64), st.sampled_from("-rrp")),
            min_size=2, max_size=6,
        ),
        plans=st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 24), st.sampled_from([0] * 9 + [1, 2])),
            max_size=6,
        ),
        fault=st.one_of(st.none(), st.integers(1, 3)),
    )
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    def test_any_fill_equals_the_per_branch_loop(self, capacity, steps, plans, fault):
        """Random trees of resident (``r``), pinned (``p``) and cold
        (``-``) steps under one prompt, and bursts whose heads may repeat,
        clash with a step, move to another parent or name an unregistered
        one."""
        segments = [1] + [10 + i for i in range(len(steps))]

        def setup(cache):
            cache.register_segment(1, None, 32)
            for i, (parent, tokens, state) in enumerate(steps):
                cache.register_segment(10 + i, segments[parent % (i + 1)], tokens)
                pinned = state != "-" and cache.pin_paths((10 + i,))
                if pinned and state == "r":
                    cache.release_tail(10 + i)

        burst = [
            # head 0..13 is a fresh (or repeated) head, 14 and 15 name a step;
            # its parent follows from its id, unless moved by one or to an
            # unregistered segment
            (lineage(i), 100 + head if head < 14 else head - 4,
             999 if moved == 2 else segments[(head + moved) % len(segments)], tokens)
            for i, (head, tokens, moved) in enumerate(plans)
        ]
        self.assert_same(setup, burst, fault, capacity)


class TestCarriedChain:
    """A segment carries its root->parent states; they are not its value."""

    def test_ancestors_stay_out_of_repr_and_eq(self):
        cache = make_cache()
        cache.register_segment(0, None, 8)
        for seg in range(1, 13):
            cache.register_segment(seg, seg - 1, 8)
        shallow, deep = cache.segment(1), cache.segment(12)
        assert len(deep.ancestors) == 12
        # A few digits of ids, depth and children differ, not 12 states.
        assert len(repr(deep)) <= len(repr(shallow)) + 8
        assert repr(deep) == repr(replace(deep, ancestors=()))
        assert deep == replace(deep, ancestors=())
        assert replace(deep, ancestors=(shallow,)) == replace(deep, ancestors=())


class TestBrokenChain:
    """No public operation leaves a resident segment below an evicted one
    (eviction takes frontier leaves only); should a chain break anyway,
    materializing through it drops the stale blocks below the break and
    recomputes them, instead of counting them twice."""

    def test_a_stale_segment_below_the_break_is_evicted_and_reloaded(self, cache):
        cache.materialize(4, pin=False)  # prompt 1 -> step 2 -> step 4
        cache._evict_segment(cache.segment(2), now=0.0)  # break the chain at 2
        assert cache.is_resident(4) and not cache.is_resident(2)
        assert cache.resident_tokens == 48

        outcome = cache.materialize(4, pin=False)
        assert (outcome.hit_tokens, outcome.recomputed_tokens) == (32, 32)
        assert cache.resident_tokens == 64
        assert cache.pool.allocated_blocks == 4
        assert cache.segment(2).resident_children == 1
        assert cache.stats.evicted_segments == 2  # the break, then the stale 4


class TestResidentSegments:
    def test_topological_order_and_residency(self, cache):
        assert cache.resident_segments() == []
        cache.materialize(4)
        cache.materialize(3, pin=False)
        segments = cache.resident_segments()
        ids = [s.node_id for s in segments]
        assert set(ids) == {1, 2, 3, 4}
        # parents precede children, ties on ascending id
        assert ids.index(1) < ids.index(2) < ids.index(4)
        assert ids.index(1) < ids.index(3)
        assert sum(s.token_len for s in segments) == cache.resident_tokens

    def test_reflects_eviction(self, cache):
        cache.materialize(4, pin=False)
        cache.evict_path(4)
        assert cache.resident_segments() == []

    def test_running_count_tracks_every_transition(self, cache):
        def agrees():
            return cache.resident_segment_count == len(cache.resident_segments())

        assert cache.resident_segment_count == 0
        cache.materialize(4, pin=False)
        cache.materialize(3)
        assert cache.resident_segment_count == 4
        cache.extend_segments((3,), 40)  # growth is not a residency change
        cache.evict_path(4)
        assert cache.resident_segment_count == 2 and agrees()
        cache.register_segment(5, 3, 48)
        cache.materialize(5, pin=False)
        assert agrees()
        cache.evict_all()
        assert agrees()
