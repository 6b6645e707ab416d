"""Pluggable request schedulers for round-granular fleet serving.

A :class:`~repro.core.fleet.TTSFleet` no longer runs requests to
completion: every admitted request becomes one or more resumable
:class:`~repro.core.session.SolveSession` objects, and between rounds the
fleet asks a :class:`RequestScheduler` *which session gets the device
next*. Policies shipped here:

``fifo``
    Arrival order, run-to-completion — byte-identical to the pre-session
    fleet (pinned by ``tests/goldens/fleet_fifo_goldens.json``).
``sjf``
    Shortest-Job-First by predicted rounds: when the device frees up, the
    arrived request whose search is predicted to need the fewest
    generation rounds starts first (non-preemptive). Classic SJF queueing
    gains: mean/p95 queueing delay drop under contention.
``round_robin``
    Fair time-slicing: the runnable session that ran least recently gets
    the next round, so short requests are not stuck behind long ones.
``first_finish``
    First-Finish-Search-style redundancy (Agarwal et al., 2025): each
    request is raced by ``replicas`` divergent sessions (forked RNG — a
    different sampled search), the first replica whose finish the
    verifier trusts (answer-confidence threshold on the observable PRM
    scores) wins, and the losers are cancelled mid-flight. If nobody
    clears the threshold, the canonical replica's result is used — an
    unverified race degrades to exactly the FIFO answer.
``prefix_affinity``
    Dynamic Prefix-Aware Scheduling lifted to sessions: the runnable
    session sharing the most resident KV prefix with the last-run one
    goes next (the Sec. 4.2 greedy invariant, evaluated over the lane
    :class:`~repro.hardware.memory.KVLedger`'s radix tree), so a
    ``kv_sharing="prefix"`` lane evicts and restores as few unique bytes
    as possible. On a lane of private claims no two sessions share a
    tree path, so it degrades to lineage grouping — sessions of the
    same problem run back to back.

Each is registered by name in :data:`SCHEDULERS`, a
:class:`~repro.utils.registry.Registry`. Schedulers are deliberately
small: they see opaque :class:`SessionHandle` rows and return one. All device bookkeeping (clock mapping, admission,
records) stays in the fleet — including the order the rows arrive in:
a policy that declares an :meth:`RequestScheduler.order_key` receives its
lane's runnable handles already sorted by it, so ``fifo``,
``round_robin`` and ``first_finish`` choose from the front in O(1)
instead of keying the whole backlog every turn.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.session import SolveSession
from repro.engine.clock import ClockBinding
from repro.errors import ConfigError
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet import FleetRequest
    from repro.core.pool import PooledDevice
    from repro.core.server import TTSServer

__all__ = [
    "SessionHandle",
    "RequestScheduler",
    "FifoScheduler",
    "SjfScheduler",
    "RoundRobinScheduler",
    "FirstFinishScheduler",
    "PrefixAffinityScheduler",
    "arrival_key",
    "predict_cost",
    "SCHEDULERS",
]


@dataclass(slots=True)
class SessionHandle:
    """One schedulable session plus the fleet bookkeeping around it.

    ``seq`` is the request's position in arrival order (ties broken by
    submission order); ``replica`` distinguishes racing sessions of one
    request. ``last_stepped`` is the fleet's turn counter at this
    session's most recent round, ``start_s`` the fleet time service began
    (None until first picked). ``binding`` maps the session's private
    clock onto the clock of ``device`` — the
    :class:`~repro.core.pool.PooledDevice` lane the request was placed on
    (None only for handles built outside a pool-driven fleet).
    ``kv_swap_s`` accumulates the cross-session KV contention time
    charged to this session. ``first_token_s`` is the
    fleet time the session produced its first generated token (None
    until then) — the fleet captures it for the TTFT metric by mapping
    the session's private first-token time through its clock binding.
    ``runnable_key`` is the fleet's own bookkeeping: the key this handle
    is filed under in its lane's runnable index, None once it has left it.
    """

    request_id: str
    arrival_s: float
    seq: int
    replica: int
    session: SolveSession
    binding: ClockBinding
    device: "PooledDevice | None" = None
    start_s: float | None = None
    last_stepped: int = -1
    predicted_cost: tuple[int, int] | None = None
    kv_swap_s: float = 0.0
    first_token_s: float | None = None
    runnable_key: tuple | None = None

    @property
    def runnable(self) -> bool:
        """Whether the session can still be stepped.

        The fleet does not poll this: its run state keeps a per-lane
        index of runnable handles, updated where a session finishes or
        is cancelled, sorted by ``(scheduler.order_key(handle), placement
        order)`` — placement order alone for a policy that declares no
        key — and hands ``pick`` that index's live sequence.
        """
        return self.session.state.live


def predict_cost(server: "TTSServer", problem, algorithm) -> tuple[int, int]:
    """Predict a request's search length: (rounds, decode tokens).

    Runs the serving-free reference search
    (:func:`~repro.experiments.reference.pure_search`) — the simulation
    analogue of the SJF literature's request-length predictor: a cheap
    profile pass over the sampling recipe, with none of the serving costs
    (no clock, batching, caches) that the real solve will pay. Because
    every draw is keyed, the profile is deterministic and side-effect
    free; it predicts *work*, not seconds, so it stays an estimator of
    service time, not an oracle.
    """
    from repro.experiments.reference import pure_search

    ref = pure_search(
        problem,
        server.dataset,
        algorithm,
        model_config=server.config.model_config,
        seed=server.config.seed,
    )
    tokens = 0
    for round_idx, lineages in enumerate(ref.rounds):
        cap = algorithm.step_cap(round_idx)
        for lineage in lineages:
            tokens += server.generator.step_tokens(problem, lineage, round_idx, cap)
    return ref.n_rounds, tokens


class RequestScheduler(ABC):
    """Policy interface: who gets the simulated device for the next round.

    The fleet calls :meth:`sessions_for` once per admitted request (the
    policy decides how many racing replicas to spawn), :meth:`pick` every
    scheduling turn with the runnable handles, and :meth:`race_decided`
    whenever a session reaches ``DONE`` (the policy decides whether that
    settles the request). Policies must be deterministic functions of
    their inputs — fleets are replayable end to end.
    """

    name: str = "abstract"
    description: str = ""
    #: True when :meth:`order_key` reads a handle field the fleet writes as
    #: the handle runs (``last_stepped``, ``start_s``): the fleet then
    #: re-files the handle in its lane's index after every round it runs.
    rekey_after_round: bool = False

    def order_key(self, handle: SessionHandle):
        """The order :meth:`pick` wants its ``runnable`` sequence in.

        The fleet keeps each lane's runnable handles sorted by
        ``(order_key(handle), placement order)``, so a policy whose choice
        is "the least key" can take ``runnable[0]``. Keys must be
        comparable with each other (ties keep placement order), and a key
        that reads what the fleet writes as a handle runs needs
        :attr:`rekey_after_round`. The default, None, declares no order:
        ``runnable`` then arrives in placement order.
        """
        return None

    def replica_lanes(
        self,
        request: "FleetRequest",
        chosen: "PooledDevice",
        devices: "Sequence[PooledDevice]",
    ) -> "list[PooledDevice]":
        """Lanes a request's racing replicas cycle across.

        The fleet places replica ``i`` on ``lanes[i % len(lanes)]`` of the
        returned non-empty list. The default co-locates every replica on
        the chosen lane — the single-placement behaviour every
        non-racing policy expects. A racing scheduler can spread its
        replicas across lanes, which buys *implicit redundancy*: a lane
        crash then kills one replica, not the request.
        """
        return [chosen]

    def sessions_for(
        self, server: "TTSServer", request: "FleetRequest"
    ) -> list[SolveSession]:
        """Create this request's session(s); default is one canonical session."""
        return [
            server.session(
                request.problem,
                request.algorithm,
                session_id=f"{request.request_id}/r0",
            )
        ]

    @abstractmethod
    def pick(self, runnable: Sequence[SessionHandle], now: float) -> SessionHandle:
        """Choose which runnable session advances by one round.

        ``runnable`` is every live handle on the acting lane, sorted by
        :meth:`order_key` (placement order without one). It is the
        fleet's index itself, not a copy: read it, never mutate it.
        """

    def race_decided(
        self, finished: SessionHandle, siblings: Sequence[SessionHandle]
    ) -> bool:
        """Whether ``finished`` settles its request (default: always)."""
        return True


def arrival_key(handle: SessionHandle) -> tuple[float, int, int]:
    """Arrival order: (effective arrival, request seq, replica).

    The one definition shared by ``fifo``'s :meth:`~RequestScheduler
    .order_key` and the batcher's member order.
    """
    return (handle.arrival_s, handle.seq, handle.replica)


class FifoScheduler(RequestScheduler):
    """Arrival order, one request at a time, run to completion."""

    name = "fifo"
    description = "arrival order, run-to-completion (the legacy fleet policy)"

    def order_key(self, handle: SessionHandle) -> tuple[float, int, int]:
        return arrival_key(handle)

    def pick(self, runnable: Sequence[SessionHandle], now: float) -> SessionHandle:
        return runnable[0]


class SjfScheduler(RequestScheduler):
    """Non-preemptive Shortest-Job-First by predicted search length.

    Jobs are ordered by predicted (rounds, decode tokens) from
    :func:`predict_cost`; when the device frees up, the shortest predicted
    job among the arrived requests starts first and runs to completion.
    """

    name = "sjf"
    description = "shortest predicted search first (non-preemptive)"

    def pick(self, runnable: Sequence[SessionHandle], now: float) -> SessionHandle:
        started = [h for h in runnable if h.start_s is not None]
        if started:
            # Non-preemptive: the job on the device keeps it.
            return min(started, key=arrival_key)
        for handle in runnable:
            if handle.predicted_cost is None:
                handle.predicted_cost = predict_cost(
                    handle.session.server,
                    handle.session.problem,
                    handle.session.algorithm,
                )
        return min(
            runnable,
            key=lambda h: (h.predicted_cost, h.arrival_s, h.seq, h.replica),
        )


class RoundRobinScheduler(RequestScheduler):
    """Cycle the device across all arrived requests, one round each."""

    name = "round_robin"
    description = "time-slice one round per runnable request in rotation"
    rekey_after_round = True

    def order_key(self, handle: SessionHandle) -> tuple[int, int, int]:
        return (handle.last_stepped, handle.seq, handle.replica)

    def pick(self, runnable: Sequence[SessionHandle], now: float) -> SessionHandle:
        return runnable[0]


class FirstFinishScheduler(RequestScheduler):
    """Race divergent replicas per request; first verified finish wins.

    Replica 0 is the canonical session (identical to what FIFO would run);
    replicas 1..K-1 fork the server RNG, so they explore genuinely
    different sampled searches. Requests themselves are served in arrival
    order; within the active request the replicas are round-robined.

    "Verified finish" is decided on an *observable* signal only: a replica
    that reaches ``DONE`` settles the race iff the verifier-score mass
    behind its majority answer (:func:`~repro.metrics.accuracy
    .answer_confidence`) reaches ``verify_threshold`` — the serving-time
    analogue of FFS accepting the first answer its verifier trusts; the
    ground truth is never consulted. If every replica finishes below the
    threshold, the canonical replica's result stands, so an unverified
    race degrades to exactly the FIFO answer. The high default threshold
    makes early cancellation conservative: it fires on near-unanimous
    verifier agreement, which is also why the answer served is, in
    practice, never worse than FIFO's on the same seed (asserted as a
    seeded property test).
    """

    name = "first_finish"
    description = "race forked replicas per request, cancel losers on first verified finish"

    def __init__(self, replicas: int = 2, verify_threshold: float = 0.9) -> None:
        if replicas < 1:
            raise ConfigError("first_finish needs at least 1 replica")
        if not 0.0 < verify_threshold <= 1.0:
            raise ConfigError("verify_threshold must be in (0, 1]")
        self._replicas = replicas
        self._verify_threshold = verify_threshold

    @property
    def replicas(self) -> int:
        return self._replicas

    @property
    def verify_threshold(self) -> float:
        return self._verify_threshold

    def sessions_for(
        self, server: "TTSServer", request: "FleetRequest"
    ) -> list[SolveSession]:
        sessions = []
        for replica in range(self._replicas):
            rng = None
            if replica > 0:
                rng = server.rng.fork("ffs-replica", request.request_id, replica)
            sessions.append(
                server.session(
                    request.problem,
                    request.algorithm,
                    rng=rng,
                    session_id=f"{request.request_id}/r{replica}",
                )
            )
        return sessions

    def replica_lanes(self, request, chosen, devices):
        """Spread replicas across eligible lanes for implicit redundancy.

        Replica 0 (canonical) stays on the placement-chosen lane; the
        others cycle through the remaining eligible lanes by index, so on
        a multi-lane pool a crash takes out at most one replica of the
        race. On a single-lane pool this degrades to co-location.
        """
        others = sorted(
            (lane for lane in devices if lane is not chosen),
            key=lambda lane: lane.index,
        )
        return [chosen, *others]

    def order_key(self, handle: SessionHandle) -> tuple[float, int, int]:
        return arrival_key(handle)

    def pick(self, runnable: Sequence[SessionHandle], now: float) -> SessionHandle:
        # A request's replicas share one (re-)arrival, so in arrival order
        # the front request's race is the run of handles leading the index.
        seq = runnable[0].seq
        end = 1
        while end < len(runnable) and runnable[end].seq == seq:
            end += 1
        return min(runnable[:end], key=lambda h: (h.last_stepped, h.replica))

    def race_decided(
        self, finished: SessionHandle, siblings: Sequence[SessionHandle]
    ) -> bool:
        from repro.metrics.accuracy import answer_confidence

        beams = finished.session.outcome.result.beams
        return answer_confidence(beams) >= self._verify_threshold


class PrefixAffinityScheduler(RequestScheduler):
    """Greedy shared-prefix successor over the lane's KV radix tree.

    The serving-level analogue of Dynamic Prefix-Aware Scheduling
    (Sec. 4.2): instead of ordering one request's *beams*, order the
    lane's *sessions* so that consecutively run sessions share the most
    resident KV prefix. On a lane that names claims by segment lineage
    (``kv_sharing="prefix"``), the next session is the
    :func:`~repro.core.prefix_sched.greedy_successor` of the last-run
    one — maximal shared prefix bytes with its leaf, ties on ascending
    leaf id — which minimizes the unique bytes the ledger must evict and
    restore per switch. Sessions that have not registered segments yet
    (not yet started) are started only when no registered session is
    runnable, mirroring the paper's preference for draining warm paths
    before cold ones.

    Fallback (a lane of private claims, or nothing registered yet): the
    practical sibling-grouping schedule — :func:`~repro.core.prefix_sched
    .lineage_order` over ``(problem, arrival, replica)`` — which still
    runs sessions of the same problem back to back.
    """

    name = "prefix_affinity"
    description = (
        "run the session sharing the most resident KV prefix with the last one"
    )

    def __init__(self) -> None:
        self._last_owner: dict[int, str] = {}  # lane index -> session id

    @staticmethod
    def _lineage_key(handle: SessionHandle):
        return (
            handle.session.problem.problem_id,
            handle.arrival_s,
            handle.seq,
            handle.replica,
        )

    def pick(self, runnable: Sequence[SessionHandle], now: float) -> SessionHandle:
        from repro.core.prefix_sched import greedy_successor

        lane = runnable[0].device
        choice: SessionHandle | None = None
        if lane is not None and lane.kv_sharing == "prefix":
            ledger = lane.ledger
            leaves = {
                h.session.session_id: ledger.owner_leaf(h.session.session_id)
                for h in runnable
            }
            registered = [
                h for h in runnable if leaves[h.session.session_id] is not None
            ]
            anchor_owner = self._last_owner.get(lane.index)
            anchor = (
                ledger.owner_leaf(anchor_owner) if anchor_owner is not None else None
            )
            if registered and anchor is not None:
                choice = greedy_successor(
                    sorted(registered, key=arrival_key),
                    ledger.tree,
                    lambda h: leaves[h.session.session_id],
                    anchor,
                )
            elif registered:
                # No anchor yet: start from the warmest (deepest) path,
                # exactly like greedy_order's anchor choice.
                choice = min(
                    registered,
                    key=lambda h: (
                        -ledger.tree.get(leaves[h.session.session_id]).depth,
                        leaves[h.session.session_id],
                        arrival_key(h),
                    ),
                )
        if choice is None:
            # The head of lineage_order(runnable, _lineage_key): sessions
            # of the same problem drain back to back.
            choice = min(runnable, key=self._lineage_key)
        if lane is not None:
            self._last_owner[lane.index] = choice.session.session_id
        return choice


SCHEDULERS: Registry[Callable[[], RequestScheduler]] = Registry("scheduler", {
    FifoScheduler.name: FifoScheduler,
    SjfScheduler.name: SjfScheduler,
    RoundRobinScheduler.name: RoundRobinScheduler,
    FirstFinishScheduler.name: FirstFinishScheduler,
    PrefixAffinityScheduler.name: PrefixAffinityScheduler,
})
