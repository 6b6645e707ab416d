"""Smoke + shape tests for the per-figure experiment definitions.

These use tiny scales; the benchmark harness runs the fuller versions.
Shape assertions mirror the figure shapes the benchmark docstrings state
(README "The paper's three techniques" maps techniques to these tests).
"""

import pytest

from repro.experiments import figures as F


class TestCheapFigures:
    def test_fig3_step_lengths_heavy_tail(self):
        out = F.fig3_step_lengths(n_paths=32, max_steps=5)
        for avg, mx in zip(out["avg"], out["max"]):
            assert mx >= avg
        assert max(out["max"]) > 2.5 * max(out["avg"])

    def test_fig6_prefill_saturates_first(self):
        out = F.fig6_kv_throughput()
        assert out["prefill_80_gb"] < out["decode_80_gb"] / 3

    def test_fig10_decode_batch_monotone(self):
        out = F.fig10_allocation_sweep(n=64)
        b_decs = [row[2] for row in out["rows"]]
        assert b_decs == sorted(b_decs)
        assert "table" in out

    def test_fig5_sharing_gap_grows(self):
        out = F.fig5_prefix_sharing(n=16)
        beam = out["series"]["beam_search"]
        assert beam["without_cache"][-1] > beam["with_cache"][-1]
        # private copies grow linearly with iterations; shared sub-linearly
        growth_private = beam["without_cache"][-1] / beam["without_cache"][0]
        growth_shared = beam["with_cache"][-1] / beam["with_cache"][0]
        assert growth_private > growth_shared

    def test_fig4_generation_decays_verification_flat(self):
        out = F.fig4_phase_utilization(n=16)
        assert out["generation_util"] < out["verification_util"]
        assert out["generation_decay"] < 0.6

    @pytest.mark.filterwarnings("ignore:path to leaf:RuntimeWarning")
    def test_fig18_ordering_dominance(self):
        out = F.fig18_prefix_memory(n=16, capacities=(8, 16))
        for cap in (8, 16):
            assert out["costs"]["prefix_aware"][cap] <= out["costs"]["random"][cap]
            assert (
                out["costs"]["prefix_aware"][cap]
                <= out["costs"]["worst_case"][cap]
            )


@pytest.mark.slow
class TestServingFigures:
    def test_fig1b_fasttts_dominates(self):
        out = F.fig1b_frontier(n_values=(8,), problems=1)
        pair = out["pairs"][0]
        assert pair.fasttts.latency.total < pair.baseline.latency.total
        assert pair.fasttts.top1_accuracy == pair.baseline.top1_accuracy

    def test_fig11_gains_everywhere(self):
        out = F.fig11_search_variants(n_values=(8,), problems=1)
        for pairs in out["results"].values():
            for pair in pairs:
                assert pair.goodput_gain > 1.0

    def test_fig17_r_sweep(self):
        out = F.fig17_speculation(n=16, problems=1)
        assert out["fasttts_generation_util"] > out["baseline_generation_util"]
        assert out["goodputs"][("aime24", 0.85)] >= out["goodputs"][("aime24", 0.0)]
