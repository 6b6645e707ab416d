"""Tests for cache event accounting and traces."""

from repro.kvcache.cache import PagedKVCache
from repro.kvcache.events import CacheEvent, CacheEventKind, CacheStats


class TestCacheStats:
    def test_counters(self):
        stats = CacheStats()
        stats.count(0.0, CacheEventKind.RECOMPUTE, 1, 100)
        stats.count(1.0, CacheEventKind.HIT, 1, 50)
        stats.count(2.0, CacheEventKind.EVICT, 1, 100)
        assert stats.recomputed_tokens == 100
        assert stats.hit_tokens == 50
        assert stats.evicted_tokens == 100
        assert stats.evicted_segments == 1

    def test_hit_rate(self):
        stats = CacheStats()
        stats.count(0.0, CacheEventKind.RECOMPUTE, 1, 75)
        stats.count(0.0, CacheEventKind.HIT, 1, 25)
        assert stats.hit_rate == 0.25

    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_trace_bounded(self):
        stats = CacheStats(trace_capacity=2)
        for i in range(5):
            stats.count(float(i), CacheEventKind.ALLOCATE, i, 1)
        assert len(stats.trace) == 2

    def test_trace_disabled_by_default(self):
        stats = CacheStats()
        stats.count(0.0, CacheEventKind.HIT, 1, 1)
        assert stats.trace == []

    def test_trace_rows_are_the_counted_transitions(self):
        stats = CacheStats(trace_capacity=1)
        stats.count(1.5, CacheEventKind.EVICT, 7, 48)
        stats.count(2.0, CacheEventKind.HIT, 7, 48)  # over capacity: counted only
        assert stats.trace == [CacheEvent(1.5, CacheEventKind.EVICT, 7, 48)]
        assert (stats.evicted_tokens, stats.hit_tokens) == (48, 48)


class TestCacheTraceIntegration:
    def test_cache_emits_ordered_events(self):
        cache = PagedKVCache(capacity_bytes=160 * 4, kv_bytes_per_token=4,
                             block_tokens=16, trace_capacity=100)
        cache.register_segment(1, None, 32)
        cache.register_segment(2, 1, 16)
        cache.materialize(2)
        cache.unpin_path(2)
        cache.materialize(2)
        kinds = [e.kind for e in cache.stats.trace]
        assert kinds[0] is CacheEventKind.RECOMPUTE
        assert CacheEventKind.HIT in kinds
        times = [e.time for e in cache.stats.trace]
        assert times == sorted(times)
