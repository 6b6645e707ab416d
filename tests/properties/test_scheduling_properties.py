"""Property-based tests on scheduling and allocation invariants."""

from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.allocator import RooflineAllocator, WorkloadProfile
from repro.core.config import baseline_config, fasttts_config
from repro.core.prefix_sched import (
    eviction_cost,
    greedy_order,
    lineage_order,
    random_order,
)
from repro.core.session import schedule_jobs
from repro.core.spec_select import SelectSpec, speculative_potential
from repro.hardware.device import get_device
from repro.hardware.roofline import Roofline
from repro.kvcache.radix import RadixTree
from repro.models.zoo import model_pair
from repro.search.dynamic_branching import proportional_allocation
from repro.utils.rng import KeyedRng, stream_counts

_GB = 1024**3


def tree_from_lineages(lineages):
    """Build a radix tree from a set of random lineages."""
    tree = RadixTree()
    tree.add_node(0, None, 4)
    ids = {(): 0}
    next_id = [1]
    leaves = []
    for lineage in lineages:
        parent = ()
        for element in lineage:
            key = parent + (element,)
            if key not in ids:
                ids[key] = next_id[0]
                next_id[0] += 1
                tree.add_node(ids[key], ids[parent], 4)
            parent = key
        leaves.append(ids[parent])
    return tree, leaves


lineage_lists = st.lists(
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
    min_size=2,
    max_size=24,
    unique=True,
)


class TestGreedyScheduleProperties:
    # Tiny capacities vs deep paths intentionally hit the oversized-trie
    # regime, where eviction_cost is a documented lower bound; the
    # dominance/bound claims below hold for the model either way.
    @pytest.mark.filterwarnings("ignore:path to leaf:RuntimeWarning")
    @given(lineage_lists, st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_greedy_never_loses_to_random(self, lineages, capacity):
        """The paper's local-optimality claim, checked empirically."""
        tree, leaves = tree_from_lineages(lineages)
        rng = KeyedRng(0)
        greedy = eviction_cost(
            greedy_order(leaves, tree, lambda x: x), tree, lambda x: x, capacity
        )
        rand = eviction_cost(
            random_order(leaves, rng), tree, lambda x: x, capacity
        )
        assert greedy <= rand

    @pytest.mark.filterwarnings("ignore:path to leaf:RuntimeWarning")
    @given(lineage_lists, st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_cost_lower_bound(self, lineages, capacity):
        """Cost >= compulsory (every unique node enters memory once...)."""
        tree, leaves = tree_from_lineages(lineages)
        unique = len({n for leaf in leaves for n in tree.path(leaf)})
        cost = eviction_cost(
            greedy_order(leaves, tree, lambda x: x), tree, lambda x: x, capacity
        )
        assert cost >= max(0, unique - capacity)

    @given(lineage_lists)
    @settings(max_examples=30, deadline=None)
    def test_order_is_permutation(self, lineages):
        tree, leaves = tree_from_lineages(lineages)
        order = greedy_order(leaves, tree, lambda x: x)
        assert sorted(order) == sorted(leaves)


class TestSelectSpecProperties:
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_total_branches_bounded_by_potentials(self, scores, branching):
        selector = SelectSpec(branching_factor=branching)
        for i, score in enumerate(scores):
            selector.offer((i,), score)
        claims = selector.claim(10**6)
        expected = sum(speculative_potential(s, branching) for s in scores)
        assert len(claims) == expected
        # child indices are contiguous per parent
        from collections import defaultdict
        by_parent = defaultdict(list)
        for parent, child in claims:
            by_parent[parent].append(child)
        for children in by_parent.values():
            assert children == list(range(len(children)))


class TestProportionalAllocationProperties:
    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=16),
        st.integers(16, 128),
    )
    @settings(max_examples=80, deadline=None)
    def test_sums_exactly_with_floor_one(self, weights, total):
        if total < len(weights):
            return
        shares = proportional_allocation(weights, total)
        assert sum(shares) == total
        assert all(s >= 1 for s in shares)


class TestAllocatorProperties:
    @given(st.integers(1, 512), st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=30, deadline=None)
    def test_plan_always_feasible(self, n, budget_gb):
        from repro.workloads.datasets import build_dataset

        generator, verifier = model_pair("1.5B+1.5B")
        allocator = RooflineAllocator(
            verifier, generator, Roofline(get_device("rtx4090"))
        )
        profile = WorkloadProfile.from_dataset(
            build_dataset("amc23", seed=0, size=1), n
        )
        plan = allocator.search(profile, budget_gb * _GB)
        assert plan.b_pre >= 1 and plan.b_dec >= 1
        assert plan.kv_pre_bytes + plan.kv_dec_bytes <= budget_gb * _GB
        # floors hold: one worst-case path fits on each side
        assert plan.kv_pre_bytes >= profile.max_path_tokens * verifier.kv_bytes_per_token
        assert plan.kv_dec_bytes >= profile.max_path_tokens * generator.kv_bytes_per_token


def reference_random_order(items, rng, salt=0):
    """``random_order`` as it stood when it shuffled every list."""
    order = list(items)
    stream = rng.stream("random-order", salt)
    perm = stream.permutation(len(order))
    return [order[i] for i in perm]


def reference_schedule_jobs(config, rng, problem, jobs, round_idx, stage):
    """``schedule_jobs`` as it stood when it ordered every list."""
    if config.prefix_aware:
        return lineage_order(jobs, lambda j: j.lineage)
    return reference_random_order(
        jobs,
        rng.fork("naive-order", problem.problem_id, stage),
        salt=round_idx,
    )


class _ForkCountingRng(KeyedRng):
    forks = 0

    def fork(self, *key):
        self.forks += 1
        return super().fork(*key)


job_lists = st.lists(
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
    max_size=12,
    unique=True,
).map(lambda lineages: [SimpleNamespace(lineage=lineage) for lineage in lineages])


class TestShortRoundsKeepTheirOrder:
    """Lists of 0, 1 and >= 2 jobs are ordered exactly as before; the short
    ones without touching the rng."""

    @given(job_lists, st.integers(0, 2**31), st.integers(0, 9))
    @settings(max_examples=100, deadline=None)
    def test_random_order_equals_the_always_shuffling_reference(self, jobs, seed, salt):
        before = stream_counts.built
        got = random_order(jobs, KeyedRng(seed), salt)
        built = stream_counts.built - before
        assert got == reference_random_order(jobs, KeyedRng(seed), salt)
        assert got is not jobs
        assert built == (1 if len(jobs) >= 2 else 0)

    @given(
        job_lists,
        st.sampled_from([baseline_config, fasttts_config]),
        st.integers(0, 2**31),
        st.integers(0, 9),
        st.sampled_from(["gen", "verify"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_schedule_jobs_equals_the_always_ordering_reference(
        self, jobs, factory, seed, round_idx, stage
    ):
        config = factory()
        problem = SimpleNamespace(problem_id="p-7")
        before = stream_counts.built
        rng = _ForkCountingRng(seed)
        got = schedule_jobs(config, rng, problem, jobs, round_idx, stage)
        built, forks = stream_counts.built - before, rng.forks
        assert got == reference_schedule_jobs(
            config, KeyedRng(seed), problem, jobs, round_idx, stage
        )
        assert got is not jobs
        shuffled = len(jobs) >= 2 and not config.prefix_aware
        assert (built, forks) == ((1, 1) if shuffled else (0, 0))
