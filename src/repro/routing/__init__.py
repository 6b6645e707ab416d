"""Heterogeneous serving: lane specs and difficulty-aware model routing.

``repro.routing`` owns the *which model serves this request* axis the
homogeneous fleet never had: :class:`~repro.routing.lanes.LaneSpec`
describes one pool lane (model pairing, device, dtype, KV budget) and
:class:`~repro.routing.router.RoutingPolicy` implementations decide which
lane class sees each request — statically by difficulty rank, by a
profile-pass cost prediction, or as an escalation cascade that retries
rejected cheap attempts on bigger models.
"""

from repro.routing.lanes import LaneSpec, parse_lane_list
from repro.routing.router import (
    ROUTERS,
    CascadeRouter,
    PredictedRouter,
    RoutingPolicy,
    StaticRouter,
)

__all__ = [
    "LaneSpec",
    "parse_lane_list",
    "RoutingPolicy",
    "StaticRouter",
    "PredictedRouter",
    "CascadeRouter",
    "ROUTERS",
]
