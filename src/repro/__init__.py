"""FastTTS reproduction: test-time scaling serving for edge LLM reasoning.

A full-system, simulation-backed reproduction of *FastTTS: Accelerating
Test-Time Scaling for Edge LLM Reasoning* (ASPLOS 2026). The public API
mirrors a serving library:

>>> from repro import TTSServer, fasttts_config, build_dataset, BeamSearch
>>> dataset = build_dataset("aime24", seed=0, size=2)
>>> server = TTSServer(fasttts_config(memory_fraction=0.4), dataset)
>>> results = server.run(list(dataset)[:1], BeamSearch(n=8))
>>> results[0].goodput > 0
True

README "Layout" is the system inventory, and README "The paper's three
techniques" maps each technique to its module and figure test. A
generated paper-vs-measured record of every figure does not exist yet.
"""

from repro.core import (
    PLACEMENTS,
    SCHEDULERS,
    DevicePool,
    OffloadMode,
    PlacementPolicy,
    PooledDevice,
    RequestScheduler,
    ServerConfig,
    SessionState,
    SolveSession,
    TTSFleet,
    TTSServer,
    baseline_config,
    fasttts_config,
)
from repro.metrics import BeamRecord, ProblemRunResult, RunMetrics
from repro.search import (
    ALGORITHMS,
    BeamSearch,
    BestOfN,
    DVTS,
    DynamicBranching,
    VaryingGranularity,
    build_algorithm,
)
from repro.workloads import DATASETS, build_dataset

__version__ = "1.0.0"

__all__ = [
    "TTSServer",
    "TTSFleet",
    "SolveSession",
    "SessionState",
    "RequestScheduler",
    "SCHEDULERS",
    "DevicePool",
    "PooledDevice",
    "PlacementPolicy",
    "PLACEMENTS",
    "ServerConfig",
    "OffloadMode",
    "baseline_config",
    "fasttts_config",
    "BeamSearch",
    "BestOfN",
    "DVTS",
    "DynamicBranching",
    "VaryingGranularity",
    "ALGORITHMS",
    "build_algorithm",
    "DATASETS",
    "build_dataset",
    "BeamRecord",
    "ProblemRunResult",
    "RunMetrics",
    "__version__",
]
