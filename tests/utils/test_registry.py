"""Every name table of the library is one ``Registry`` and fails one way."""

import pytest

from repro.core.pool import PLACEMENTS
from repro.core.scheduler import SCHEDULERS
from repro.errors import ConfigError, UnknownNameError
from repro.faults import FAULTS
from repro.hardware.device import DEVICES
from repro.models.quantize import DTYPES
from repro.models.zoo import MODEL_CONFIGS, MODELS
from repro.routing import ROUTERS
from repro.search.registry import ALGORITHMS
from repro.workloads.arrivals import ARRIVALS
from repro.workloads.datasets import DATASETS

#: registry, its kind noun, a near-miss name, the name it should suggest.
NEAR_MISSES = [
    (SCHEDULERS, "scheduler", "fifoo", "fifo"),
    (PLACEMENTS, "placement", "least_loadd", "least_loaded"),
    (ROUTERS, "router", "cascde", "cascade"),
    (FAULTS, "fault type", "crah", "crash"),
    (ARRIVALS, "arrival process", "poison", "poisson"),
    (ALGORITHMS, "search algorithm", "beam_serach", "beam_search"),
    (DATASETS, "dataset", "amc32", "amc23"),
    (DEVICES, "device", "rtx409", "rtx4090"),
    (MODELS, "model", "qwen2.5-math-7", "qwen2.5-math-7b"),
    (MODEL_CONFIGS, "model config", "1.5B+1.5b", "1.5B+1.5B"),
    (DTYPES, "dtype", "int4", "int8"),
]
IDS = [kind.replace(" ", "_") for _, kind, _, _ in NEAR_MISSES]


@pytest.mark.parametrize("registry, kind, typo, nearest", NEAR_MISSES, ids=IDS)
class TestEveryRegistry:
    def test_a_near_miss_names_kind_suggestion_and_sorted_listing(
        self, registry, kind, typo, nearest
    ):
        assert registry.kind == kind
        for lookup in (registry.__getitem__, registry.check):
            with pytest.raises(UnknownNameError) as excinfo:
                lookup(typo)
            assert isinstance(excinfo.value, ConfigError)
            assert str(excinfo.value) == (
                f"unknown {kind} {typo!r} — did you mean {nearest!r}?; "
                f"registered: {', '.join(sorted(registry.names()))}"
            )

    def test_names_are_sorted(self, registry, kind, typo, nearest):
        names = registry.names()
        assert names and names == sorted(names)
        assert registry.check(nearest) == nearest

    def test_register_is_idempotent_and_rejects_a_conflict(
        self, registry, kind, typo, nearest
    ):
        before = registry.names()
        value = registry[nearest]
        assert registry.register(nearest, value) is value
        with pytest.raises(ValueError, match="already registered"):
            registry.register(nearest, object())
        assert registry[nearest] is value
        assert registry.names() == before

