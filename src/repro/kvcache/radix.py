"""Radix (prefix) tree over reasoning-path segments.

The paper models every scheduled batch as a radix tree where *each node is
one beam* (one thinking step's tokens) and eviction cost between batches is
``Nodes(T_i) - P(T_i, T_{i+1})`` shared-prefix nodes (Sec. 4.2). This tree
is that structure: nodes are step segments identified by a stable id,
parent links encode the reasoning tree, and shared-prefix queries answer
``P(c_a, c_b)`` in nodes or tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RadixNode", "RadixTree"]


@dataclass(slots=True)
class RadixNode:
    """One segment (thinking step) in the prefix tree."""

    node_id: int
    parent_id: int | None
    token_len: int
    depth: int
    children: set[int] = field(default_factory=set)


class RadixTree:
    """Forest of segment nodes with O(depth) prefix queries.

    Node ids must be globally unique (the library derives them from a
    stable hash of ``(problem, lineage, step)``). ``node_type`` lets an
    owner hang its own per-segment state on the nodes themselves
    (:class:`~repro.kvcache.cache.PagedKVCache` stores residency there,
    :class:`~repro.hardware.memory.KVLedger` its claims), so structure,
    length and state of a segment live in one object. Such an owner
    reads and fills the node dict itself.
    """

    def __init__(self, node_type: type[RadixNode] = RadixNode) -> None:
        self._nodes: dict[int, RadixNode] = {}
        self._node_type = node_type

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: int, parent_id: int | None, token_len: int) -> RadixNode:
        """Insert a segment under ``parent_id`` (``None`` for a root).

        Re-inserting an existing id with identical attributes is a no-op,
        which lets callers idempotently register shared prefixes.
        """
        if token_len < 0:
            raise ValueError("token_len must be non-negative")
        existing = self._nodes.get(node_id)
        if existing is not None:
            if existing.parent_id != parent_id or existing.token_len != token_len:
                raise ValueError(f"node {node_id} already exists with different attributes")
            return existing
        if parent_id is None:
            depth = 0
        else:
            parent = self._require(parent_id)
            depth = parent.depth + 1
            parent.children.add(node_id)
        node = self._node_type(
            node_id=node_id, parent_id=parent_id, token_len=token_len, depth=depth
        )
        self._nodes[node_id] = node
        return node

    def get(self, node_id: int) -> RadixNode:
        """Return the node or raise ``KeyError``."""
        return self._require(node_id)

    def path(self, node_id: int) -> list[int]:
        """Node ids from the root down to ``node_id`` inclusive."""
        chain: list[int] = []
        current: int | None = node_id
        while current is not None:
            node = self._require(current)
            chain.append(current)
            current = node.parent_id
        chain.reverse()
        return chain

    def shared_prefix_nodes(self, a: int, b: int) -> int:
        """``P(a, b)`` in nodes: length of the common root prefix."""
        return len(self._shared_prefix(a, b))

    def shared_prefix_tokens(self, a: int, b: int) -> int:
        """``P(a, b)`` in tokens: token mass of the common root prefix."""
        return sum(self._nodes[nid].token_len for nid in self._shared_prefix(a, b))

    def leaves(self) -> list[int]:
        """All nodes without children, sorted for determinism."""
        return sorted(nid for nid, node in self._nodes.items() if not node.children)

    def _shared_prefix(self, a: int, b: int) -> list[int]:
        path_a = self.path(a)
        path_b = self.path(b)
        shared: list[int] = []
        for node_a, node_b in zip(path_a, path_b):
            if node_a != node_b:
                break
            shared.append(node_a)
        return shared

    def _require(self, node_id: int) -> RadixNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown radix node {node_id}") from None
