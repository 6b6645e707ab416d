"""Tests for cache event accounting and traces."""

from collections import Counter

from repro.kvcache.cache import PagedKVCache
from repro.kvcache.events import CacheEvent, CacheEventKind, CacheStats


def count(stats, time, kind, segment_id, tokens):
    """Account one transition as the cache does: its totals, then (when
    the stats trace) its row."""
    if kind is CacheEventKind.ALLOCATE:
        stats.allocated_tokens += tokens
    elif kind is CacheEventKind.HIT:
        stats.hit_tokens += tokens
    elif kind is CacheEventKind.RECOMPUTE:
        stats.recomputed_tokens += tokens
    elif kind is CacheEventKind.EVICT:
        stats.evicted_tokens += tokens
        stats.evicted_segments += 1
    if stats.trace_capacity:
        stats.record(time, kind, segment_id, tokens)


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats()
        count(stats, 0.0, CacheEventKind.RECOMPUTE, 1, 75)
        count(stats, 0.0, CacheEventKind.HIT, 1, 25)
        assert stats.hit_rate == 0.25

    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_trace_bounded(self):
        stats = CacheStats(trace_capacity=2)
        for i in range(5):
            count(stats, float(i), CacheEventKind.ALLOCATE, i, 1)
        assert len(stats.trace) == 2

    def test_trace_disabled_by_default(self):
        stats = CacheStats()
        count(stats, 0.0, CacheEventKind.HIT, 1, 1)
        assert stats.trace == []

    def test_trace_rows_are_the_counted_transitions(self):
        stats = CacheStats(trace_capacity=1)
        count(stats, 1.5, CacheEventKind.EVICT, 7, 48)
        count(stats, 2.0, CacheEventKind.HIT, 7, 48)  # over capacity: counted only
        assert stats.trace == [CacheEvent(1.5, CacheEventKind.EVICT, 7, 48)]
        assert (stats.evicted_tokens, stats.hit_tokens) == (48, 48)


class TestCacheTraceIntegration:
    def test_cache_emits_ordered_events(self):
        cache = PagedKVCache(capacity_bytes=160 * 4, kv_bytes_per_token=4,
                             block_tokens=16, trace_capacity=100)
        cache.register_segment(1, None, 32)
        cache.register_segment(2, 1, 16)
        cache.materialize(2)
        cache.release_tail(2)
        cache.materialize(2)
        kinds = [e.kind for e in cache.stats.trace]
        assert kinds[0] is CacheEventKind.RECOMPUTE
        assert CacheEventKind.HIT in kinds
        times = [e.time for e in cache.stats.trace]
        assert times == sorted(times)

    def test_totals_are_the_traced_transitions(self):
        """The cache moves its totals in place and traces each move: with
        room in the trace, every total is the sum of its rows."""
        cache = PagedKVCache(capacity_bytes=64 * 4, kv_bytes_per_token=4,
                             block_tokens=16, trace_capacity=100)
        cache.register_segment(1, None, 32)
        cache.register_segment(2, 1, 16)
        cache.register_segment(3, None, 32)
        for leaf in (2, 3, 2):  # the second path evicts, the third hits
            cache.materialize(leaf)
            cache.release_tail(leaf)
        stats, tokens = cache.stats, Counter()
        for event in stats.trace:
            tokens[event.kind] += event.tokens
        assert tokens == {
            CacheEventKind.RECOMPUTE: stats.recomputed_tokens,
            CacheEventKind.HIT: stats.hit_tokens,
            CacheEventKind.EVICT: stats.evicted_tokens,
        }
        assert stats.hit_tokens > 0 and stats.evicted_tokens > 0
        assert stats.evicted_segments == sum(
            e.kind is CacheEventKind.EVICT for e in stats.trace
        )
