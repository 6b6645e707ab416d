"""Lane claims: how a session's KV cache segments are named to a lane ledger.

A lane's :class:`~repro.hardware.memory.KVLedger` refcounts
:class:`~repro.hardware.memory.KVSegment` claims on lane-tree node ids;
this module is the one place those names are made. :func:`planned_claims`
names the prompt roots a session would register before it exists (dedup
billing and ``prefix_affinity`` placement probe with them), and each
session's :class:`ClaimNames` names its resident KV, whole or as the
delta since its last report. How a lane uses the names (one private
claim per session when ``kv_sharing="off"``) stays with
:meth:`~repro.core.pool.PooledDevice.session_claims`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.memory import KVSegment
from repro.search.tree import prompt_segment_id
from repro.utils.rng import stable_hash64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import TTSServer
    from repro.core.session import SolveSession
    from repro.workloads.problem import Problem

__all__ = ["ClaimNames", "lane_node_id", "planned_claims"]


def lane_node_id(
    model_tag: str, namespace: str | None, segment_id: int, is_root: bool
) -> int:
    """Lane-tree node id for one cache segment of one session.

    Root segments (the prompt) hold rng-independent content — every
    session of the problem shares them, so they hash without a
    namespace. Step segments carry sampled tokens: sessions on forked
    RNGs would store *different* content under the same stable segment
    id, so their steps are namespaced apart (canonical sessions pass
    ``namespace=None`` and genuinely share).
    """
    ns = "" if is_root or namespace is None else namespace
    return stable_hash64("lane-kv", model_tag, ns, segment_id)


def planned_claims(server: "TTSServer", problem: "Problem") -> tuple[KVSegment, ...]:
    """The claims a session for ``problem`` registers at setup: the prompt
    root on both model caches, ``prompt_tokens * kv_bytes_per_token`` each.

    Once resident these are exactly the session's root claims, shared by
    every session of the problem, canonical or racing replica.
    """
    root = prompt_segment_id(problem)
    return tuple(
        KVSegment(
            lane_node_id(tag, None, root, True),
            None,
            problem.prompt_tokens * bytes_per_token,
        )
        for tag, bytes_per_token in (
            ("gen", server.gen_model.kv_bytes_per_token),
            ("ver", server.ver_model.kv_bytes_per_token),
        )
    )


class ClaimNames:
    """One session's KV, named for its lane ledger report by report.

    A report is a delta (:meth:`changes`) only while the session's device
    caches are those the previous report described; after an offloading
    model switch it is the whole list, which replaces whatever the ledger
    holds. The session owns this object, which never holds the session
    (every call takes it): a cycle would keep finished sessions alive
    until the cyclic collector ran.
    """

    __slots__ = ("_views", "_namespace", "_node_ids")

    def __init__(self) -> None:
        # What the last report described; no caches before the first,
        # which the caches' first ``take_changes()`` makes whole anyway.
        self._views: list | None = None
        # Lane node ids by (model tag, segment id), for one namespace.
        self._namespace: str | None = None
        self._node_ids: dict[tuple[str, int], int] = {}

    def resident(self, session: "SolveSession") -> tuple[KVSegment, ...]:
        """Every device-resident segment as a claim, parents first.

        The definition the deltas add up to:
        claim bytes sum to ``session.resident_kv_bytes``, and generator
        and verifier KV are named apart even for the same step.
        """
        claims, _ = self._name(
            [(tag, cache.resident_segments(), bytes_per_token)
             for tag, cache, bytes_per_token in session.device_caches()],
            session.kv_namespace,
        )
        return tuple(claims)

    def changes(
        self, session: "SolveSession"
    ) -> tuple[list[KVSegment], list[int] | None]:
        """``(upserts, vanished)`` since the previous report: the claims
        that appeared or changed length, parents first, and the node ids
        that left the device — or ``(all of resident(), None)`` when the
        device caches changed."""
        views = session.device_caches()
        described = self._views
        if described is not None and views != described:
            self._views = views
            for _, cache, _ in views:
                cache.take_changes()  # superseded by the whole list
            return list(self.resident(session)), None
        self._views = views
        return self._name(
            [(tag, cache.take_changes(), bytes_per_token)
             for tag, cache, bytes_per_token in views],
            self._namespace if described is not None else session.kv_namespace,
        )

    def _name(self, views, namespace: str | None) -> tuple[list[KVSegment], list[int]]:
        """``(claims, vanished)`` for ``(tag, segment states parents-first,
        KV bytes per token)`` views: a resident state becomes a claim, a
        swapped one the id of a claim it no longer makes (if ever named)."""
        if namespace != self._namespace:  # first named
            self._namespace, self._node_ids = namespace, {}
        node_ids = self._node_ids
        claims: list[KVSegment] = []
        vanished: list[int] = []
        for tag, states, bytes_per_token in views:
            for state in states:
                key = (tag, state.node_id)
                node_id = node_ids.get(key)
                if not state.resident:
                    if node_id is not None:
                        vanished.append(node_id)
                    continue
                if node_id is None:
                    node_id = node_ids[key] = lane_node_id(
                        tag, namespace, state.node_id, state.parent_id is None
                    )
                # A resident segment's parent is resident, so already named.
                parent = state.parent_id
                claims.append(
                    KVSegment(
                        node_id,
                        None if parent is None else node_ids[tag, parent],
                        state.token_len * bytes_per_token,
                    )
                )
        return claims, vanished
