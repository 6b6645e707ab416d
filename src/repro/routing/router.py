"""Difficulty-aware model routing across heterogeneous lane classes.

A :class:`RoutingPolicy` decides *which lane class* (deployed model
pairing) serves each request of a heterogeneous pool — the fast-path /
slow-path split the edge-TTS literature builds on: quantized small-model
lanes absorb easy problems at a fraction of the latency, big-model lanes
keep accuracy on the hard tail. Three policies are registered in
:data:`ROUTERS`, a :class:`~repro.utils.registry.Registry` like the
scheduler and placement ones:

* ``static`` — thresholds the problem's difficulty *rank* within the
  serving dataset (observable offline) and sends the hard fraction to the
  biggest class;
* ``predicted`` — estimates per-problem cost with the same
  :func:`~repro.core.scheduler.predict_cost` profile pass ``sjf`` uses,
  and routes long searches to the big class;
* ``cascade`` — tries the cheapest class first and *escalates*: when the
  verifier's answer confidence on the cheap attempt is below threshold,
  the fleet re-places the request on the next-bigger class, billing the
  abandoned attempt and the re-prefill honestly through the ledger.

Routers only narrow the eligible-lane set; placement and scheduling
policies still pick the concrete lane and interleave rounds within it.
With ``router="off"`` the fleet is byte-identical to the routerless path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigError
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet import FleetRequest
    from repro.core.pool import DevicePool, PooledDevice
    from repro.core.scheduler import SessionHandle

__all__ = [
    "RoutingPolicy",
    "StaticRouter",
    "PredictedRouter",
    "CascadeRouter",
    "ROUTERS",
]


class RoutingPolicy(ABC):
    """Which lane *class* of a heterogeneous pool serves a request.

    ``bind(pool)`` is called once by the fleet; it orders the pool's lane
    classes cheapest-first by deployed weight bytes. ``route`` narrows an
    eligible-lane list to the preferred class (falling back through the
    class order so a request is never stranded while any lane is
    eligible). ``accept`` and ``escalate_lanes`` drive the cascade hook:
    after a race settles, a router may reject the winning attempt and name
    the bigger-class lanes the fleet should re-place the request on.
    """

    name: str = "abstract"
    description: str = ""

    def __init__(self) -> None:
        self._class_order: list[str] = []
        self._class_cost: dict[str, int] = {}

    def bind(self, pool: "DevicePool") -> None:
        """Learn the pool's lane classes (cheapest deployed pairing first)."""
        cost: dict[str, int] = {}
        for lane in pool:
            cost.setdefault(lane.lane_class, lane.model_cost_bytes)
        self._class_cost = cost
        self._class_order = sorted(cost, key=lambda name: (cost[name], name))

    def _prefer(
        self,
        lanes: Sequence["PooledDevice"],
        order: Sequence[str],
    ) -> list["PooledDevice"]:
        """Lanes of the first class in ``order`` that has any eligible lane."""
        for cls_name in order:
            chosen = [lane for lane in lanes if lane.lane_class == cls_name]
            if chosen:
                return chosen
        return list(lanes)

    @abstractmethod
    def route(
        self,
        request: "FleetRequest",
        lanes: Sequence["PooledDevice"],
        now: float,
    ) -> list["PooledDevice"]:
        """Narrow ``lanes`` (non-empty) to the preferred class's lanes.

        Must return a non-empty subset; returning ``lanes`` unchanged
        expresses "no preference".
        """

    def accept(self, request: "FleetRequest", winner: "SessionHandle") -> bool:
        """Is the settling attempt good enough to commit? Default: yes."""
        return True

    def escalate_lanes(
        self,
        request: "FleetRequest",
        from_cost_bytes: int,
        lanes: Sequence["PooledDevice"],
    ) -> list["PooledDevice"]:
        """Lanes of the cheapest class strictly costlier than the attempt's.

        An empty list means "nowhere to escalate" — the fleet commits the
        rejected attempt anyway. Non-cascade routers never escalate.
        """
        return []


class StaticRouter(RoutingPolicy):
    """Difficulty-rank threshold: the hard fraction goes to the big class.

    A problem's rank is the fraction of the serving dataset strictly
    easier than it; ranks at or above ``threshold`` route to the biggest
    (costliest) class, the rest to the cheapest. This is the offline
    router an operator can run with nothing but the dataset's difficulty
    ordering — no profile pass, no serving-time signal.
    """

    name = "static"
    description = "dataset difficulty-rank threshold: hard tail to the big class"

    def __init__(self, threshold: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(
                f"static router threshold must be in [0, 1], got {threshold}"
            )
        self._threshold = threshold
        self._sorted_difficulties: list[float] = []

    def bind(self, pool: "DevicePool") -> None:
        super().bind(pool)
        dataset = pool[0].server.dataset
        self._sorted_difficulties = sorted(
            problem.difficulty for problem in dataset.problems
        )

    def _rank(self, difficulty: float) -> float:
        from bisect import bisect_left

        pool = self._sorted_difficulties
        if not pool:
            return 0.0
        return bisect_left(pool, difficulty) / len(pool)

    def route(self, request, lanes, now):
        hard = self._rank(request.problem.difficulty) >= self._threshold
        order = (
            list(reversed(self._class_order)) if hard else self._class_order
        )
        return self._prefer(lanes, order)


class PredictedRouter(RoutingPolicy):
    """Per-problem cost estimate via the ``sjf``-style profile pass.

    Runs :func:`~repro.core.scheduler.predict_cost` on a cheapest-class
    server (the profile is serving-free and content-keyed, so any lane
    yields the same prediction for its own pairing) and routes requests
    whose predicted rounds reach ``threshold`` × the dataset's round cap
    to the biggest class. Predictions are memoized per problem, matching
    how traces cycle a finite problem pool.
    """

    name = "predicted"
    description = "pure_search cost estimate routes long searches to the big class"

    def __init__(self, threshold: float = 0.5) -> None:
        super().__init__()
        if not 0.0 < threshold <= 1.0:
            raise ConfigError(
                f"predicted router threshold must be in (0, 1], got {threshold}"
            )
        self._threshold = threshold
        self._profile_lane: "PooledDevice | None" = None
        self._memo: dict[tuple[str, str, int], int] = {}

    def bind(self, pool: "DevicePool") -> None:
        super().bind(pool)
        cheapest = self._class_order[0]
        self._profile_lane = next(
            lane for lane in pool if lane.lane_class == cheapest
        )

    def _predicted_rounds(self, request: "FleetRequest") -> int:
        from repro.core.scheduler import predict_cost

        key = (
            request.problem.problem_id,
            request.algorithm.name,
            request.algorithm.n,
        )
        if key not in self._memo:
            rounds, _ = predict_cost(
                self._profile_lane.server, request.problem, request.algorithm
            )
            self._memo[key] = rounds
        return self._memo[key]

    def route(self, request, lanes, now):
        max_steps = self._profile_lane.server.dataset.max_steps
        hard = self._predicted_rounds(request) >= self._threshold * max_steps
        order = (
            list(reversed(self._class_order)) if hard else self._class_order
        )
        return self._prefer(lanes, order)


class CascadeRouter(RoutingPolicy):
    """Cheapest class first; escalate on verifier rejection.

    Every request starts on the cheapest class with an eligible lane (a
    class whose lanes cannot plan the request's beam budget simply falls
    up the cascade — budget exhaustion escalates at admission time). When
    the attempt settles, the verifier-score mass behind its majority
    answer (:func:`~repro.metrics.accuracy.answer_confidence` — the same
    serving-time signal First-Finish racing uses) decides acceptance:
    below ``verify_threshold`` the fleet abandons the attempt, bills its
    device seconds as escalated work, and re-places the request on the
    next-bigger class for a full re-prefill through that lane's ledger.
    """

    name = "cascade"
    description = "cheapest class first; escalate to bigger models on rejection"

    def __init__(self, verify_threshold: float = 0.7) -> None:
        super().__init__()
        if not 0.0 < verify_threshold <= 1.0:
            raise ConfigError(
                "cascade verify_threshold must be in (0, 1], "
                f"got {verify_threshold}"
            )
        self._verify_threshold = verify_threshold

    @property
    def verify_threshold(self) -> float:
        return self._verify_threshold

    def route(self, request, lanes, now):
        return self._prefer(lanes, self._class_order)

    def accept(self, request, winner):
        from repro.metrics.accuracy import answer_confidence

        outcome = winner.session.outcome
        if outcome is None or not outcome.result.beams:
            return True  # nothing to judge; never escalate blind
        confidence = answer_confidence(outcome.result.beams)
        return confidence >= self._verify_threshold

    def escalate_lanes(self, request, from_cost_bytes, lanes):
        for cls_name in self._class_order:
            if self._class_cost[cls_name] <= from_cost_bytes:
                continue
            chosen = [lane for lane in lanes if lane.lane_class == cls_name]
            if chosen:
                return chosen
        return []


ROUTERS: Registry[Callable[..., RoutingPolicy]] = Registry("router", {
    StaticRouter.name: StaticRouter,
    PredictedRouter.name: PredictedRouter,
    CascadeRouter.name: CascadeRouter,
})
