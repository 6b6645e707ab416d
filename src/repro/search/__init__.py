"""TTS search algorithms over the common generation-verification loop."""

from repro.search.base import Expansion, SearchAlgorithm, SelectionDecision
from repro.search.beam_search import BeamSearch
from repro.search.best_of_n import BestOfN
from repro.search.dvts import DVTS
from repro.search.dynamic_branching import DynamicBranching, proportional_allocation
from repro.search.registry import ALGORITHMS, build_algorithm
from repro.search.tree import ReasoningPath, prompt_segment_id, step_segment_id
from repro.search.varying_granularity import VaryingGranularity

__all__ = [
    "SearchAlgorithm",
    "SelectionDecision",
    "Expansion",
    "ReasoningPath",
    "prompt_segment_id",
    "step_segment_id",
    "BestOfN",
    "BeamSearch",
    "DVTS",
    "DynamicBranching",
    "proportional_allocation",
    "VaryingGranularity",
    "ALGORITHMS",
    "build_algorithm",
]
