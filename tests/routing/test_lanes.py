"""Tests for the lane-spec grammar and heterogeneous pool construction."""

import pytest

from repro.core.config import baseline_config
from repro.core.pool import DevicePool
from repro.errors import ConfigError, SchedulingError
from repro.routing import LaneSpec, parse_lane_list
from repro.search.registry import build_algorithm
from repro.workloads.datasets import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("amc23", seed=0, size=4)


class TestLaneSpecParse:
    def test_minimal(self):
        spec = LaneSpec.parse("7B+1.5B@rtx4090")
        assert spec.model_config == "7B+1.5B"
        assert spec.device_name == "rtx4090"
        assert spec.dtype is None
        assert spec.memory_fraction is None

    def test_full_grammar(self):
        spec = LaneSpec.parse("1.5B+1.5B@rtx4090:int8:mem=0.5")
        assert spec.dtype == "int8"
        assert spec.memory_fraction == 0.5

    def test_label_round_trips(self):
        for text in (
            "7B+1.5B@rtx4090",
            "1.5B+1.5B@rtx4090:int8",
            "1.5B+7B@rtx4070ti:bf16:mem=0.5",
        ):
            spec = LaneSpec.parse(text)
            assert spec.label == text
            assert LaneSpec.parse(spec.label) == spec

    def test_whitespace_tolerated(self):
        spec = LaneSpec.parse(" 7B+1.5B@rtx4090 : int8 ")
        assert spec.dtype == "int8"

    def test_missing_at(self):
        with pytest.raises(ConfigError, match="missing '@'"):
            LaneSpec.parse("7B+1.5B")

    def test_empty(self):
        with pytest.raises(ConfigError, match="must not be empty"):
            LaneSpec.parse("  ")

    def test_unknown_model_config_suggests(self):
        with pytest.raises(ConfigError, match="unknown model config"):
            LaneSpec.parse("7B+1.5b@rtx4090")

    def test_unknown_device_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'rtx4090'"):
            LaneSpec.parse("7B+1.5B@rtx409")

    def test_unknown_dtype_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'int8'"):
            LaneSpec.parse("7B+1.5B@rtx4090:int88")

    def test_duplicate_dtype(self):
        with pytest.raises(ConfigError, match="dtype twice"):
            LaneSpec.parse("7B+1.5B@rtx4090:int8:fp8")

    def test_duplicate_mem(self):
        with pytest.raises(ConfigError, match="mem= twice"):
            LaneSpec.parse("7B+1.5B@rtx4090:mem=0.5:mem=0.6")

    def test_unknown_option_key(self):
        with pytest.raises(ConfigError, match="unknown lane option"):
            LaneSpec.parse("7B+1.5B@rtx4090:men=0.5")

    def test_non_numeric_mem(self):
        with pytest.raises(ConfigError, match="expects a number"):
            LaneSpec.parse("7B+1.5B@rtx4090:mem=half")

    def test_mem_out_of_range(self):
        with pytest.raises(ConfigError, match=r"in \(0, 1\]"):
            LaneSpec.parse("7B+1.5B@rtx4090:mem=1.5")

    def test_lane_list(self):
        lanes = parse_lane_list("7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8")
        assert [lane.model_config for lane in lanes] == ["7B+1.5B", "1.5B+1.5B"]

    def test_lane_list_rejects_empty_entry(self):
        with pytest.raises(ConfigError, match="empty entry"):
            parse_lane_list("7B+1.5B@rtx4090,,1.5B+1.5B@rtx4090")


class TestLaneSpecSemantics:
    def test_quantized_lane_class_is_truthful(self):
        spec = LaneSpec.parse("1.5B+1.5B@rtx4090:int8")
        assert spec.lane_class == (
            "qwen2.5-math-1.5b-int8+skywork-o1-prm-1.5b-int8"
        )

    def test_bf16_lane_class_differs_from_fp16(self):
        fp16 = LaneSpec.parse("1.5B+1.5B@rtx4090")
        bf16 = LaneSpec.parse("1.5B+1.5B@rtx4090:bf16")
        assert fp16.lane_class != bf16.lane_class

    def test_cost_ordering(self):
        big = LaneSpec.parse("7B+1.5B@rtx4090")
        small = LaneSpec.parse("1.5B+1.5B@rtx4090")
        quant = LaneSpec.parse("1.5B+1.5B@rtx4090:int8")
        assert big.model_cost_bytes > small.model_cost_bytes
        assert small.model_cost_bytes > quant.model_cost_bytes


class TestHeteroPool:
    def test_build_with_lanes(self, dataset):
        config = baseline_config(memory_fraction=0.9, seed=0)
        pool = DevicePool.build(config, dataset, lanes=[
            LaneSpec.parse("7B+1.5B@rtx4090"),
            LaneSpec.parse("1.5B+1.5B@rtx4090:int8:mem=0.5"),
        ])
        assert len(pool) == 2
        assert pool[0].lane_class == "qwen2.5-math-7b+skywork-o1-prm-1.5b"
        assert pool[1].lane_class == (
            "qwen2.5-math-1.5b-int8+skywork-o1-prm-1.5b-int8"
        )
        assert pool[1].server.config.memory_fraction == 0.5
        # Lane ids stay index-suffixed and unique on one physical card.
        assert pool[0].device_id == "dev0:rtx4090"
        assert pool[1].device_id == "dev1:rtx4090"

    def test_lanes_and_device_names_exclusive(self, dataset):
        config = baseline_config(memory_fraction=0.9, seed=0)
        with pytest.raises(ConfigError, match="not both"):
            DevicePool.build(
                config, dataset, ["rtx4090"],
                lanes=[LaneSpec.parse("7B+1.5B@rtx4090")],
            )

    def test_empty_lane_list_rejected(self, dataset):
        config = baseline_config(memory_fraction=0.9, seed=0)
        with pytest.raises(ConfigError, match="must not be empty"):
            DevicePool.build(config, dataset, lanes=[])

    def test_cross_class_migration_refused(self, dataset):
        config = baseline_config(memory_fraction=0.9, seed=0)
        pool = DevicePool.build(config, dataset, lanes=[
            LaneSpec.parse("7B+1.5B@rtx4090"),
            LaneSpec.parse("1.5B+1.5B@rtx4090:int8"),
        ])
        problem = list(dataset)[0]
        session = pool[0].server.session(
            problem, build_algorithm("beam_search", 2)
        )
        from repro.core.scheduler import SessionHandle
        from repro.engine.clock import ClockBinding

        handle = SessionHandle(
            request_id="req-0000", arrival_s=0.0, seq=0, replica=0,
            session=session, binding=ClockBinding(session.clock),
            device=pool[0],
        )
        handle.binding.rebind(pool[0].clock)
        with pytest.raises(SchedulingError, match="lane classes"):
            pool.migrate(handle, pool[1])

    def test_same_class_lanes_still_migratable_pool(self, dataset):
        # Two lanes of the same pairing keep the homogeneous contract.
        config = baseline_config(memory_fraction=0.9, seed=0)
        pool = DevicePool.build(config, dataset, lanes=[
            LaneSpec.parse("1.5B+1.5B@rtx4090"),
            LaneSpec.parse("1.5B+1.5B@rtx4070ti"),
        ])
        assert pool[0].lane_class == pool[1].lane_class
