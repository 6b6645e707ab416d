"""Tests for Asymmetric Multi-Model Memory Allocation."""

import pytest

from repro.core.allocator import (
    RooflineAllocator,
    WorkloadProfile,
    static_split_plan,
)
from repro.errors import CapacityError
from repro.hardware.device import get_device
from repro.hardware.offload import OffloadLink
from repro.hardware.roofline import Roofline
from repro.models.zoo import model_pair
from repro.workloads.datasets import build_dataset

_GB = 1024**3


@pytest.fixture
def setup():
    generator, verifier = model_pair("1.5B+1.5B")
    device = get_device("rtx4090")
    roofline = Roofline(device)
    allocator = RooflineAllocator(verifier, generator, roofline, OffloadLink(device))
    dataset = build_dataset("aime24", seed=0, size=1)
    profile = WorkloadProfile.from_dataset(dataset, 64)
    return generator, verifier, roofline, allocator, profile


class TestWorkloadProfile:
    def test_from_dataset(self):
        dataset = build_dataset("aime24", seed=0, size=1)
        profile = WorkloadProfile.from_dataset(dataset, 32)
        assert profile.n_requests == 32
        assert profile.max_path_tokens >= profile.decode_context

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(n_requests=0, verify_tokens=1, decode_tokens=1,
                            decode_context=1, max_path_tokens=1)
        with pytest.raises(ValueError):
            WorkloadProfile(n_requests=1, verify_tokens=1, decode_tokens=1,
                            decode_context=10, max_path_tokens=5)


class TestSearch:
    def test_plan_respects_budget(self, setup):
        _, _, _, allocator, profile = setup
        plan = allocator.search(profile, 4 * _GB)
        assert plan.kv_pre_bytes + plan.kv_dec_bytes <= 4 * _GB
        assert plan.b_pre >= 1 and plan.b_dec >= 1

    def test_a_degenerate_budget_gets_the_one_by_one_plan(self, setup):
        """A budget that holds both floors but not one verification
        request beside the decode floor hands each side its floor."""
        generator, verifier, _, allocator, _ = setup
        profile = WorkloadProfile(
            n_requests=8, verify_tokens=4096, decode_tokens=64,
            decode_context=256, max_path_tokens=512,
        )
        floor_pre = 512 * verifier.kv_bytes_per_token
        budget = floor_pre + 512 * generator.kv_bytes_per_token
        plan = allocator.search(profile, budget)
        assert plan.b_pre == plan.b_dec == 1
        assert plan.kv_pre_bytes == floor_pre
        assert plan.kv_pre_bytes + plan.kv_dec_bytes == budget

    def test_uses_full_boundary(self, setup):
        """The optimum lies on the budget boundary (Sec. 4.3.1)."""
        _, _, _, allocator, profile = setup
        plan = allocator.search(profile, 4 * _GB)
        assert plan.kv_pre_bytes + plan.kv_dec_bytes == 4 * _GB

    def test_more_memory_never_slower(self, setup):
        _, _, _, allocator, profile = setup
        small = allocator.search(profile, 2 * _GB)
        large = allocator.search(profile, 8 * _GB)
        assert large.est_total_time <= small.est_total_time

    def test_decode_batch_grows_with_memory(self, setup):
        _, _, _, allocator, profile = setup
        small = allocator.search(profile, 2 * _GB)
        large = allocator.search(profile, 8 * _GB)
        assert large.b_dec >= small.b_dec

    def test_floor_enforced(self, setup):
        _, _, _, allocator, profile = setup
        with pytest.raises(CapacityError):
            allocator.search(profile, int(0.1 * _GB))

    def test_zero_budget_raises(self, setup):
        _, _, _, allocator, profile = setup
        with pytest.raises(CapacityError):
            allocator.search(profile, 0)

    def test_exhaustive_optimality(self, setup):
        """The linear search finds the global optimum over the boundary."""
        from repro.core.allocator import _estimate_total_time, _per_seq_bytes

        generator, verifier, roofline, allocator, profile = setup
        budget = 3 * _GB
        plan = allocator.search(profile, budget)
        pre_seq = _per_seq_bytes(verifier, profile.verify_tokens)
        dec_seq = _per_seq_bytes(generator, profile.decode_context)
        for b_pre in range(1, profile.n_requests + 1):
            kv_pre = b_pre * pre_seq
            b_dec = min((budget - kv_pre) // dec_seq, profile.n_requests)
            if b_dec < 1:
                break
            t = _estimate_total_time(verifier, generator, roofline, profile,
                                     b_pre, b_dec)
            assert plan.est_total_time <= t + 1e-12


class TestStaticSplit:
    def test_half_and_half(self, setup):
        generator, verifier, roofline, _, profile = setup
        plan = static_split_plan(verifier, generator, roofline, profile, 4 * _GB)
        assert abs(plan.kv_pre_bytes - plan.kv_dec_bytes) <= plan.kv_pre_bytes * 0.01

    def test_floors_shift_the_split(self, setup):
        generator, verifier, roofline, _, profile = setup
        tight = int(0.9 * _GB)
        plan = static_split_plan(verifier, generator, roofline, profile, tight)
        # each side still hosts one worst-case path
        floor = profile.max_path_tokens * generator.kv_bytes_per_token
        assert plan.kv_pre_bytes >= floor
        assert plan.kv_dec_bytes >= floor

    def test_impossible_budget_raises(self, setup):
        generator, verifier, roofline, _, profile = setup
        with pytest.raises(CapacityError):
            static_split_plan(verifier, generator, roofline, profile, int(0.2 * _GB))


class TestAsymmetryClaim:
    def test_allocator_beats_static_split(self, setup):
        """The paper's core claim: asymmetric beats 50/50 in estimated time."""
        generator, verifier, roofline, allocator, profile = setup
        budget = 2 * _GB
        static = static_split_plan(verifier, generator, roofline, profile, budget)
        optimal = allocator.search(profile, budget)
        assert optimal.est_total_time <= static.est_total_time

    def test_decode_gets_more_memory(self, setup):
        """Decode is memory-hungry; prefill saturates early (Fig. 6)."""
        _, _, _, allocator, profile = setup
        plan = allocator.search(profile, 4 * _GB)
        assert plan.kv_dec_bytes > plan.kv_pre_bytes


class TestOffload:
    def test_offload_relaxes_constraints(self, setup):
        _, _, _, allocator, profile = setup
        coupled = allocator.search(profile, int(0.8 * _GB))
        offload = allocator.search_offload(profile, int(0.8 * _GB))
        assert offload.b_dec >= coupled.b_dec
        assert offload.offload
        assert offload.est_offload_overhead > 0

    def test_offload_resident_footprint_is_max(self, setup):
        _, _, _, allocator, profile = setup
        plan = allocator.search_offload(profile, _GB)
        assert plan.kv_total_bytes == max(plan.kv_pre_bytes, plan.kv_dec_bytes)

    def test_best_plan_picks_faster(self, setup):
        _, _, _, allocator, profile = setup
        plan = allocator.best_plan(profile, 4 * _GB, allow_offload=True)
        coupled = allocator.search(profile, 4 * _GB)
        offload = allocator.search_offload(profile, 4 * _GB)
        assert plan.est_total_time == min(coupled.est_total_time,
                                          offload.est_total_time)

    def test_best_plan_without_offload(self, setup):
        _, _, _, allocator, profile = setup
        plan = allocator.best_plan(profile, 4 * _GB, allow_offload=False)
        assert not plan.offload

    def test_offload_floor(self, setup):
        _, _, _, allocator, profile = setup
        with pytest.raises(CapacityError):
            allocator.search_offload(profile, int(0.05 * _GB))

    def test_no_link_raises(self, setup):
        generator, verifier, roofline, _, profile = setup
        allocator = RooflineAllocator(verifier, generator, roofline, offload_link=None)
        with pytest.raises(CapacityError):
            allocator.search_offload(profile, _GB)


class TestSurplusReturn:
    def test_surplus_flows_to_verifier_when_decode_saturated(self, setup):
        """With ample memory the verifier keeps retention capacity."""
        _, _, _, allocator, profile = setup
        plan = allocator.search(profile, 14 * _GB)
        assert plan.b_dec == profile.n_requests
        # verifier holds well above its single-path floor
        floor = profile.max_path_tokens * 28_672
        assert plan.kv_pre_bytes > floor
