"""Paged KV cache substrate: block pool, radix prefix tree, cache, events."""

from repro.kvcache.block import DEFAULT_BLOCK_TOKENS, BlockPool
from repro.kvcache.cache import MaterializeOutcome, PagedKVCache, SegmentState
from repro.kvcache.events import CacheEvent, CacheEventKind, CacheStats
from repro.kvcache.radix import RadixNode, RadixTree

__all__ = [
    "BlockPool",
    "DEFAULT_BLOCK_TOKENS",
    "RadixTree",
    "RadixNode",
    "PagedKVCache",
    "SegmentState",
    "MaterializeOutcome",
    "CacheStats",
    "CacheEvent",
    "CacheEventKind",
]
