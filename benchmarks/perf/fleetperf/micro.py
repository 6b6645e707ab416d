"""Leaf microbenchmarks: the hot paths the drain profile names.

Each benchmark drives one public function through public constructors
with synthetic inputs and reports two numbers: host µs per operation
(minimum over :data:`BATCHES` batches — noise only ever adds) and the
exact Python-level call count per operation from one profiled batch
(repeats exactly, so a leaf optimisation shows as a count even when the
box is too noisy to time it). They are workload-independent and belong
to the per-layer set; no end-to-end claim rests on them.
"""

from __future__ import annotations

import cProfile
import time

__all__ = ["BATCHES", "BENCHMARKS", "run_micro"]

BATCHES = 5

_KV = 1024  # bytes per synthetic segment claim


def _rng_stream():
    from repro.utils.rng import KeyedRng

    rng = KeyedRng(7)
    return lambda i: rng.stream("step-length", "problem-3", (0, 1, 2), i)


def _hash64():
    from repro.utils.rng import stable_hash64

    return lambda i: stable_hash64("segment", "problem-3", (0, 1, 2, 3), i)


def _chain(tree, depth, base=0):
    parent = None
    for node in range(base, base + depth):
        tree.add_node(node, parent, 16)
        parent = node
    return parent


def _radix_path():
    from repro.kvcache.radix import RadixTree

    tree = RadixTree()
    leaf = _chain(tree, 16)
    return lambda i: tree.path(leaf)


def _radix_add_node():
    from repro.kvcache.radix import RadixTree

    tree = RadixTree()
    leaf = _chain(tree, 16)
    # Every op inserts a fresh child under the chain's leaf.
    return lambda i: tree.add_node(1_000_000 + i, leaf, 16)


def _kvcache_materialize():
    """Steady-state evict + recompute: 32 paths share a root, 8 fit."""
    from repro.kvcache.cache import PagedKVCache

    block_tokens, kv_per_token, depth, paths = 16, 64, 8, 32
    path_bytes = depth * block_tokens * kv_per_token
    cache = PagedKVCache(8 * path_bytes, kv_per_token, block_tokens)
    cache.register_segment(0, None, block_tokens)
    leaves = []
    for p in range(paths):
        parent = 0
        for d in range(1, depth):
            node = 1000 * (p + 1) + d
            cache.register_segment(node, parent, block_tokens)
            parent = node
        leaves.append(parent)
    return lambda i: cache.materialize(leaves[i % paths], now=float(i), pin=False)


def _claims(owner_index, depth=8, shared=4):
    """A root→leaf lineage: ``shared`` common segments, then private ones."""
    from repro.hardware.memory import KVSegment

    claims, parent = [], None
    for d in range(depth):
        node = d if d < shared else 10_000 * (owner_index + 1) + d
        claims.append(KVSegment(node, parent, _KV))
        parent = node
    return claims


def _ledger_admit_segments():
    from repro.hardware.memory import SharedKVLedger

    ledger = SharedKVLedger(1 << 30)
    lineages = [_claims(k) for k in range(16)]

    def op(i):
        owner = f"s{i % 16}"
        ledger.admit_segments(owner, lineages[i % 16])
        ledger.release(owner)

    return op


def _ledger_charge_growth():
    from repro.hardware.memory import SharedKVLedger

    ledger = SharedKVLedger(1 << 30)
    lineages = [_claims(k) for k in range(8)]
    return lambda i: ledger.charge_growth_segments(f"s{i % 8}", lineages[i % 8])


def _ledger_evict_restore():
    """Capacity-bound: 8 owners' private tails need twice the budget, so
    every report restores the owner and evicts its LRU neighbours — the
    ``sharing_batched`` hot spot."""
    from repro.hardware.memory import SharedKVLedger

    lineages = [_claims(k) for k in range(8)]
    unique = 4 * _KV + 8 * 4 * _KV  # shared prefix + private tails
    ledger = SharedKVLedger(unique // 2)
    return lambda i: ledger.charge_growth_segments(f"s{i % 8}", lineages[i % 8])


def _ledger_deny():
    """The deny-mode admission probe: planned bytes minus resident overlap
    on a populated ledger (read-only — the same ledger used differently)."""
    from repro.hardware.memory import SharedKVLedger

    ledger = SharedKVLedger(1 << 30)
    for k in range(8):
        ledger.charge_growth_segments(f"s{k}", _claims(k))
    probe = _claims(99)
    return lambda i: ledger.unique_planned_bytes(16 * _KV, probe)


def _roofline_batched_point():
    from repro.hardware.device import get_device
    from repro.hardware.roofline import Roofline

    roofline = Roofline(get_device("rtx4090"))
    return lambda i: roofline.batched_point(3.0e9, 3.2e9, 3.0e9, 4)


#: name → (factory returning ``op(i)``, operations per batch).
BENCHMARKS = {
    "rng_stream": (_rng_stream, 2000),
    "hash64": (_hash64, 4000),
    "radix_path": (_radix_path, 10000),
    "radix_add_node": (_radix_add_node, 10000),
    "kvcache_materialize": (_kvcache_materialize, 500),
    "ledger_admit_segments": (_ledger_admit_segments, 1000),
    "ledger_charge_growth": (_ledger_charge_growth, 1000),
    "ledger_evict_restore": (_ledger_evict_restore, 500),
    "ledger_deny": (_ledger_deny, 4000),
    "roofline_batched_point": (_roofline_batched_point, 10000),
}


def run_micro(ops_scale: float = 1.0) -> dict[str, float]:
    """Run every microbenchmark; returns ``micro.<name>_us`` / ``_pycalls``."""
    out: dict[str, float] = {}
    for name, (factory, ops) in BENCHMARKS.items():
        ops = max(10, int(ops * ops_scale))
        op = factory()
        best = float("inf")
        # Batch b runs op on indices [b*ops, (b+1)*ops); the profiled batch
        # takes the next block, so inserts never repeat an index.
        for batch in range(BATCHES):
            start = time.perf_counter()
            for index in range(batch * ops, (batch + 1) * ops):
                op(index)
            best = min(best, time.perf_counter() - start)
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        profiler.enable()
        for index in range(BATCHES * ops, (BATCHES + 1) * ops):
            op(index)
        profiler.disable()
        # The op closure itself is one profiled call per operation.
        calls = sum(entry.callcount for entry in profiler.getstats())
        out[f"micro.{name}_us"] = best / ops * 1e6
        out[f"micro.{name}_pycalls"] = calls / ops - 1
    return out
