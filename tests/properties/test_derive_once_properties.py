"""Differential property tests for the derive-once hot path.

Three facts the session / KV-cache path now computes once and keeps are
each compared against the definition that recomputes them:

* :meth:`PagedKVCache.extend_segments` (one call per decode span) against
  the same ids through successive one-segment calls, on random trees x
  pins x capacities — including batches that run out of blocks half way;
* a memoising :class:`QualityOracle` against a fresh oracle per call;
* the segment chains a session keeps in its problem's step table against
  :func:`path_segments`.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import baseline_config, fasttts_config
from repro.core.server import TTSServer
from repro.core.session import SolveSession, path_segments
from repro.errors import CapacityError
from repro.kvcache.cache import PagedKVCache
from repro.llm.oracle import QualityOracle
from repro.search.registry import build_algorithm
from repro.utils.rng import KeyedRng
from repro.workloads.datasets import build_dataset

BLOCK = 16


# -- (a) span-batched growth == per-slot growth ------------------------------

cache_scripts = st.fixed_dictionaries({
    "blocks": st.integers(3, 16),
    # (parent rank, token length) of each segment registered under the root
    "segments": st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 48)), min_size=1, max_size=14
    ),
    # (segment rank, keep it pinned?) of each materialisation, in order
    "loads": st.lists(
        st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1, max_size=14
    ),
    # the batch to grow, as ranks among the resident segments (repeats
    # allowed); a False flag ranks among all segments, resident or not
    "batch": st.lists(
        st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1, max_size=10
    ),
    "tokens": st.integers(0, 40),
})


def build_cache(script) -> tuple[PagedKVCache, list[int]]:
    cache = PagedKVCache(
        capacity_bytes=script["blocks"] * BLOCK * 2, kv_bytes_per_token=2,
        block_tokens=BLOCK, trace_capacity=10_000,
    )
    cache.register_segment(0, None, BLOCK)
    ids = [0]
    for parent_rank, tokens in script["segments"]:
        cache.register_segment(len(ids), ids[parent_rank % len(ids)], tokens)
        ids.append(len(ids))
    for rank, pin in script["loads"]:
        try:
            cache.materialize(ids[rank % len(ids)], pin=pin)
        except CapacityError:
            pass
    resident = [i for i in ids if cache.is_resident(i)] or ids
    batch = []
    for rank, among_resident in script["batch"]:
        candidates = resident if among_resident else ids
        batch.append(candidates[rank % len(candidates)])
    return cache, batch


def grow_one_by_one(cache: PagedKVCache, batch: list[int], tokens: int) -> int:
    for grown, segment_id in enumerate(batch):
        if not cache.extend_segments((segment_id,), tokens, now=1.0):
            return grown
    return len(batch)


def cache_state(cache: PagedKVCache):
    return (
        [cache.segment(node_id) for node_id in range(len(cache.tree))],
        cache.pool.allocated_blocks,
        cache.evictable_blocks,
        cache.resident_tokens,
        cache.resident_segment_count,
        cache.stats,
    )


def assert_batched_equals_sequential(script) -> int:
    batched, batch = build_cache(script)
    sequential, _ = build_cache(script)
    grown = batched.extend_segments(batch, script["tokens"], now=1.0)
    assert grown == grow_one_by_one(sequential, batch, script["tokens"])
    # Every SegmentState field (LRU stamps included), the pool, the running
    # totals and the event-for-event trace agree ...
    assert cache_state(batched) == cache_state(sequential)
    # ... and so does what the LRU heap would give up next, in order.
    assert batched.evict_all(now=2.0) == sequential.evict_all(now=2.0)
    assert batched.stats.trace == sequential.stats.trace
    assert batched.resident_segment_count == sum(
        batched.segment(i).resident for i in range(len(batched.tree))
    )
    return grown


class TestSpanBatchedGrowth:
    @settings(max_examples=150, deadline=None)
    @given(cache_scripts)
    def test_equals_sequential_extend_segment(self, script):
        assert_batched_equals_sequential(script)

    def test_mid_batch_shortfall_stops_where_sequential_raises(self):
        # Five blocks: the root, two pinned one-block tails and an unpinned
        # one-block branch hold four. Growing the first tail by a block
        # takes the free one, the second evicts the branch, the third (the
        # first tail again) finds nothing left to evict.
        script = {
            "blocks": 5,
            "segments": [(0, 16), (0, 16), (0, 16)],
            "loads": [(1, True), (2, True), (3, False)],
            "batch": [(1, False), (2, False), (1, False), (2, False)],
            "tokens": 16,
        }
        assert assert_batched_equals_sequential(script) == 2
        cache, batch = build_cache(script)
        assert cache.extend_segments(batch, 16) == 2
        assert cache.stats.evicted_segments == 1
        assert cache.segment(1).token_len == cache.segment(2).token_len == 32


# -- (b) memoised oracle == a fresh oracle per call ----------------------------

lineages = st.lists(st.integers(0, 7), min_size=0, max_size=5).map(tuple)


class TestOracleMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        calls=st.lists(
            st.tuples(st.integers(0, 1), lineages, st.floats(-2.0, 2.0)),
            min_size=1, max_size=12,
        ),
    )
    def test_bit_equal_to_a_fresh_oracle(self, seed, calls):
        problems = list(build_dataset("amc23", seed=1, size=2))
        memo = QualityOracle(rng=KeyedRng(seed))
        for problem_index, lineage, soundness in calls:
            problem = problems[problem_index]

            def fresh():
                return QualityOracle(rng=KeyedRng(seed))

            assert memo.approach_quality(problem, lineage) == fresh().approach_quality(
                problem, lineage
            )
            assert memo.subtree_bias(problem, lineage) == fresh().subtree_bias(
                problem, lineage
            )
            assert memo.distractors(problem) == fresh().distractors(problem)
            assert memo.step_soundness(problem, lineage, len(lineage), 1.0) == (
                fresh().step_soundness(problem, lineage, len(lineage), 1.0)
            )
            assert memo.emit_answer(problem, lineage, soundness) == fresh().emit_answer(
                problem, lineage, soundness
            )

    def test_a_forked_replica_never_sees_the_parents_memo(self):
        dataset = build_dataset("amc23", seed=3, size=1)
        problem = list(dataset)[0]
        server = TTSServer(fasttts_config(memory_fraction=0.4, seed=3), dataset)
        canonical = server.generator.oracle
        warm = [canonical.approach_quality(problem, (r,)) for r in range(4)]
        warm += [canonical.subtree_bias(problem, (r,)) for r in range(4)]

        forked = server.rng.fork("replica", 1)
        replica = SolveSession(
            server, problem, build_algorithm("beam_search", 4), rng=forked
        )
        oracle = replica._generator.oracle
        assert oracle is not canonical and oracle is replica._prm._oracle
        reference = QualityOracle(rng=forked.fork("oracle"))
        drawn = [oracle.approach_quality(problem, (r,)) for r in range(4)]
        drawn += [oracle.subtree_bias(problem, (r,)) for r in range(4)]
        assert drawn == (
            [reference.approach_quality(problem, (r,)) for r in range(4)]
            + [reference.subtree_bias(problem, (r,)) for r in range(4)]
        )
        assert set(drawn).isdisjoint(warm)


# -- (c) the session's segment map == path_segments() -----------------------

step_lineages = st.lists(st.integers(0, 5), min_size=1, max_size=6).map(tuple)


class TestSessionSegmentMap:
    @settings(max_examples=40, deadline=None)
    @given(prefix_caching=st.booleans(), paths=st.lists(step_lineages, min_size=1, max_size=8))
    def test_equals_path_segments_in_both_modes_and_across_rebind(
        self, prefix_caching, paths
    ):
        dataset = build_dataset("amc23", seed=3, size=1)
        problem = list(dataset)[0]
        servers = {
            True: TTSServer(fasttts_config(memory_fraction=0.4, seed=3), dataset),
            False: TTSServer(baseline_config(memory_fraction=0.4, seed=3), dataset),
        }
        assert servers[True].config.prefix_caching
        assert not servers[False].config.prefix_caching
        session = SolveSession(
            servers[prefix_caching], problem, build_algorithm("beam_search", 4)
        )
        for mode in (prefix_caching, not prefix_caching, prefix_caching):
            session.rebind_device(servers[mode])
            for lineage in paths + paths[::-1]:  # second pass reads the map
                assert session._segment_chain(lineage) == path_segments(
                    servers[mode].config, problem, lineage, len(lineage)
                )

    def test_every_chain_a_solve_used_is_the_definition(self):
        dataset = build_dataset("amc23", seed=3, size=1)
        problem = list(dataset)[0]
        for factory in (fasttts_config, baseline_config):
            server = TTSServer(factory(memory_fraction=0.4, seed=3), dataset)
            SolveSession(server, problem, build_algorithm("beam_search", 8)).run()
            table = server.generator.tables[problem.problem_id]
            chains = {
                key[1:]: chain for key, chain in table.items() if key[0] == "chain"
            }
            assert len(chains) > 8
            for (lineage, prefix_caching), chain in chains.items():
                config = factory(memory_fraction=0.4, seed=3, prefix_caching=prefix_caching)
                assert chain == path_segments(config, problem, lineage, len(lineage))
            # A repeat solve reads every chain it needs from the table.
            entries = dict(table)
            SolveSession(server, problem, build_algorithm("beam_search", 8)).run()
            assert table == entries
