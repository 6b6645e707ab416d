"""Dynamic Prefix-Aware Scheduling (paper Sec. 4.2).

At each TTS iteration the scheduler orders the active reasoning paths so
that consecutively scheduled paths share maximal KV prefixes, minimizing
evictions under a constrained cache. The paper proves (Appendix A) that the
greedy invariant

    T_{k+1} = argmax_{c_i in Q} P(c_k, c_i)

is locally optimal under a pairwise-interchange argument, and implements it
in practice by grouping beams spawned from the same parent while preserving
the parents' relative order across iterations.

This module provides:

* :func:`greedy_order` — the literal argmax greedy schedule;
* :func:`lineage_order` — the paper's practical sibling-grouping
  implementation (O(k log k), empirically near the greedy schedule);
* :func:`random_order` / :func:`worst_case_order` — the Fig. 18 baselines;
* :func:`eviction_cost` — the paper's cost model
  ``sum_i (Nodes(T_i) - P(T_i, T_{i+1}))`` evaluated for any order, used by
  benches and the scheduler's own regression tests.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence, TypeVar

from repro.kvcache.radix import RadixTree
from repro.utils.rng import KeyedRng

__all__ = [
    "greedy_order",
    "greedy_successor",
    "lineage_order",
    "max_overlap_choice",
    "random_order",
    "worst_case_order",
    "eviction_cost",
    "schedule_tries",
]

T = TypeVar("T")

# A scheduling item is anything that can name its KV path: the callers pass
# (item, leaf_segment_id) accessors so this module stays agnostic of jobs.
LeafFn = Callable[[T], int]
LineageFn = Callable[[T], tuple[int, ...]]


def lineage_order(items: Sequence[T], lineage_of: LineageFn) -> list[T]:
    """Group siblings, preserving parent order across iterations.

    Sorting by lineage tuple does exactly what the paper describes: beams
    spawned from the same parent become adjacent (their lineage shares a
    prefix), and the relative order of parents is inherited lexically.
    """
    return sorted(items, key=lineage_of)


def max_overlap_choice(
    items: Sequence[T],
    overlap_of: Callable[[T], int],
    tie_key: Callable[[T], object],
) -> T:
    """Argmax-overlap selection with a deterministic tie-break.

    The single greedy invariant behind *both* notions of prefix affinity
    in the fleet: the ``prefix_affinity`` scheduler picks the next
    session whose KV path shares the most tokens with the last one run
    (:func:`greedy_successor`), and the ``prefix_affinity`` *placement*
    (:class:`~repro.core.pool.PrefixAffinityPlacement`) picks the lane
    already holding the most bytes of a request's planned claims. Both
    route through this helper so the two argmaxes cannot drift apart.
    Maximal ``overlap_of`` wins; ties fall to the minimal ``tie_key``.
    """
    if not items:
        raise ValueError("max_overlap_choice needs at least one candidate")
    return min(items, key=lambda it: (-overlap_of(it), tie_key(it)))


def greedy_successor(
    items: Sequence[T], tree: RadixTree, leaf_of: LeafFn, last_leaf: int
) -> T:
    """The paper's greedy invariant: argmax shared prefix with ``last_leaf``.

    The tie-break is the documented deterministic one — the *lowest* leaf
    id among maximal sharers — stated explicitly here so the anchor sort
    in :func:`greedy_order` (ascending leaf id) and this successor argmax
    can never drift apart again. Also used by the fleet's
    ``prefix_affinity`` scheduler to pick the next *session* on a lane.
    """
    if not items:
        raise ValueError("greedy_successor needs at least one candidate")
    return max_overlap_choice(
        items,
        lambda it: tree.shared_prefix_tokens(last_leaf, leaf_of(it)),
        leaf_of,
    )


def greedy_order(items: Sequence[T], tree: RadixTree, leaf_of: LeafFn) -> list[T]:
    """The argmax-greedy schedule from the paper's formulation.

    Starts from the item with the deepest path (the densest prefix to
    anchor on) and repeatedly appends the remaining item sharing the most
    prefix tokens with the last scheduled one. Ties break deterministically
    on ascending leaf id — in the anchor sort and the successor argmax
    alike (:func:`greedy_successor`). O(k^2 * depth); fine for the
    paper's n <= 512.
    """
    if not items:
        return []
    remaining = list(items)
    remaining.sort(key=lambda it: (-tree.get(leaf_of(it)).depth, leaf_of(it)))
    schedule = [remaining.pop(0)]
    while remaining:
        best = greedy_successor(remaining, tree, leaf_of, leaf_of(schedule[-1]))
        remaining.remove(best)
        schedule.append(best)
    return schedule


def random_order(items: Sequence[T], rng: KeyedRng, salt: int = 0) -> list[T]:
    """Uniform random shuffle (the vLLM baseline in Fig. 18)."""
    order = list(items)
    if len(order) <= 1:
        return order  # its only permutation: no stream to seed
    perm = rng.stream("random-order", salt).permutation(len(order))
    return [order[i] for i in perm]


def worst_case_order(items: Sequence[T], tree: RadixTree, leaf_of: LeafFn) -> list[T]:
    """Adversarial schedule: always pick the *least*-sharing successor."""
    if not items:
        return []
    remaining = list(items)
    remaining.sort(key=leaf_of)
    schedule = [remaining.pop(0)]
    while remaining:
        last_leaf = leaf_of(schedule[-1])
        worst_idx = min(
            range(len(remaining)),
            key=lambda i: (
                tree.shared_prefix_tokens(last_leaf, leaf_of(remaining[i])),
                leaf_of(remaining[i]),
            ),
        )
        schedule.append(remaining.pop(worst_idx))
    return schedule


def schedule_tries(
    ordered: Sequence[T], tree: RadixTree, leaf_of: LeafFn, capacity_nodes: int
) -> list[set[int]]:
    """Partition an ordered schedule into Tries that fit the cache.

    Each Trie T_i is the largest group of consecutively scheduled paths
    whose union of nodes fits ``capacity_nodes`` (the paper's batching
    model). Returns the node-id set of each Trie. A single path that by
    itself exceeds the capacity is scheduled as its own oversized Trie
    with a ``RuntimeWarning`` — downstream costs over it are lower
    bounds, not realizable cache behaviour.
    """
    if capacity_nodes < 1:
        raise ValueError("capacity_nodes must be positive")
    tries: list[set[int]] = []
    current: set[int] = set()
    for item in ordered:
        nodes = set(tree.path(leaf_of(item)))
        if len(nodes) > capacity_nodes:
            # A lone path bigger than the cache can never be co-resident:
            # it becomes its own Trie, and any cost computed over it is a
            # *lower bound* (the real cache would thrash within the path).
            # Surface that instead of silently reporting an unrealizable
            # cost.
            warnings.warn(
                f"path to leaf {leaf_of(item)} needs {len(nodes)} nodes but "
                f"the cache holds only {capacity_nodes}; scheduling it as an "
                "oversized trie whose eviction cost understates the real "
                "thrashing",
                RuntimeWarning,
                stacklevel=2,
            )
        union = current | nodes
        if current and len(union) > capacity_nodes:
            tries.append(current)
            current = set(nodes)
        else:
            current = union
    if current:
        tries.append(current)
    return tries


def eviction_cost(
    ordered: Sequence[T], tree: RadixTree, leaf_of: LeafFn, capacity_nodes: int
) -> int:
    """The paper's objective: ``sum_i (Nodes(T_i) - P(T_i, T_{i+1}))``.

    ``P`` between consecutive Tries is their shared node count — nodes that
    survive the batch switch in cache. Lower is better; the greedy schedule
    should (and in tests does) dominate random and worst-case orders.
    """
    tries = schedule_tries(ordered, tree, leaf_of, capacity_nodes)
    if not tries:
        return 0
    cost = 0
    for i, nodes in enumerate(tries):
        shared_next = len(nodes & tries[i + 1]) if i + 1 < len(tries) else 0
        cost += len(nodes) - shared_next
    return cost
