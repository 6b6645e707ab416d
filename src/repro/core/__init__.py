"""FastTTS core: the paper's contribution and the baseline it replaces."""

from repro.core.allocator import (
    AllocationPlan,
    RooflineAllocator,
    WorkloadProfile,
    static_split_plan,
)
from repro.core.config import OffloadMode, ServerConfig, baseline_config, fasttts_config
from repro.core.fleet import FleetReport, FleetRequest, TTSFleet
from repro.core.fleet_spec import FleetSpec
from repro.core.generation_round import (
    ChildStepPlan,
    GenerationRound,
    GenerationRoundResult,
)
from repro.core.pool import (
    PLACEMENTS,
    DevicePool,
    FirstFitPlacement,
    KvBalancedPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    PooledDevice,
)
from repro.core.scheduler import (
    SCHEDULERS,
    FifoScheduler,
    FirstFinishScheduler,
    PrefixAffinityScheduler,
    RequestScheduler,
    RoundRobinScheduler,
    SessionHandle,
    SjfScheduler,
    predict_cost,
)
from repro.core.session import SessionState, SolveSession
from repro.core.prefix_sched import (
    eviction_cost,
    greedy_order,
    greedy_successor,
    lineage_order,
    random_order,
    schedule_tries,
    worst_case_order,
)
from repro.core.server import SolveOutcome, TTSServer
from repro.core.spec_select import SelectSpec, speculative_potential
from repro.core.verification_round import VerificationRound, VerificationRoundResult

__all__ = [
    "ServerConfig",
    "OffloadMode",
    "baseline_config",
    "fasttts_config",
    "TTSServer",
    "SolveOutcome",
    "SolveSession",
    "SessionState",
    "RequestScheduler",
    "SessionHandle",
    "FifoScheduler",
    "SjfScheduler",
    "RoundRobinScheduler",
    "FirstFinishScheduler",
    "PrefixAffinityScheduler",
    "SCHEDULERS",
    "predict_cost",
    "TTSFleet",
    "FleetRequest",
    "FleetReport",
    "FleetSpec",
    "DevicePool",
    "PooledDevice",
    "PlacementPolicy",
    "FirstFitPlacement",
    "LeastLoadedPlacement",
    "KvBalancedPlacement",
    "PLACEMENTS",
    "AllocationPlan",
    "WorkloadProfile",
    "RooflineAllocator",
    "static_split_plan",
    "GenerationRound",
    "GenerationRoundResult",
    "ChildStepPlan",
    "VerificationRound",
    "VerificationRoundResult",
    "SelectSpec",
    "speculative_potential",
    "greedy_order",
    "greedy_successor",
    "lineage_order",
    "random_order",
    "worst_case_order",
    "schedule_tries",
    "eviction_cost",
]
