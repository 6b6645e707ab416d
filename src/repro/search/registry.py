"""Search-algorithm registry: build any paper variant by name.

:data:`ALGORITHMS` is the :class:`~repro.utils.registry.Registry` of
builders; :func:`build_algorithm` calls one with the beam budget ``n``.
"""

from __future__ import annotations

from typing import Callable

from repro.search.base import SearchAlgorithm
from repro.search.beam_search import BeamSearch
from repro.search.best_of_n import BestOfN
from repro.search.dvts import DVTS
from repro.search.dynamic_branching import DynamicBranching
from repro.search.varying_granularity import VaryingGranularity
from repro.utils.registry import Registry

__all__ = ["ALGORITHMS", "build_algorithm"]

ALGORITHMS: Registry[Callable[..., SearchAlgorithm]] = Registry("search algorithm", {
    BestOfN.name: lambda n, **kw: BestOfN(n=n),
    BeamSearch.name: lambda n, **kw: BeamSearch(n=n, **kw),
    DVTS.name: lambda n, **kw: DVTS(n=n, **kw),
    DynamicBranching.name: lambda n, **kw: DynamicBranching(n=n, **kw),
    VaryingGranularity.name: lambda n, **kw: VaryingGranularity(n=n, **kw),
})


def build_algorithm(name: str, n: int, **kwargs) -> SearchAlgorithm:
    """Instantiate a search algorithm by registry name."""
    return ALGORITHMS[name](n, **kwargs)
