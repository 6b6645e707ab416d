"""Metamorphic relations of the serving fleet: how a drain's timing must
respond to a change of its traffic.

Arrival monotonicity holds on one rtx4090 lane with ``fifo`` scheduling
and batching ``off``, where a FastTTS session's Phase-2 speculation runs
whoever arrives: a newcomer waits for the lane anyway, so halting
speculation for it (Sec. 4.1.2) would only lengthen the solve in service.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import fasttts_config
from repro.core.fleet import TTSFleet
from repro.search.registry import build_algorithm
from repro.workloads.datasets import build_dataset

DATASET = build_dataset("amc23", seed=0, size=8)


def finishes(arrivals, n=8):
    """``finish_s`` by request id of a one-lane ``fifo`` ``off`` FastTTS
    fleet serving problem *i* at ``arrivals[i]``."""
    fleet = TTSFleet(
        fasttts_config(memory_fraction=0.4, seed=0), DATASET, devices=["rtx4090"]
    )
    for problem, arrival in zip(DATASET, arrivals):
        fleet.submit(problem, build_algorithm("beam_search", n), arrival_s=arrival)
    return {r.request_id: r.finish_s for r in fleet.drain().records}


class TestArrivalMonotonicity:
    """Adding a later arrival never delays an earlier request's finish."""

    def test_a_second_arrival_leaves_the_first_solve_alone(self):
        """Problem 0 alone finishes at 11.77 s; a request arriving at 10 s
        stretched it to 12.42 s while every arrival preempted speculation,
        although that request could not start before the lane was free."""
        alone = finishes([0.0])
        both = finishes([0.0, 10.0])
        assert alone["req-0000"] == pytest.approx(11.77, abs=0.005)
        assert both["req-0000"] == alone["req-0000"]
        assert both["req-0001"] == pytest.approx(27.85, abs=0.005)

    @given(
        st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5),
        st.floats(0.0, 60.0),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_later_arrival_never_delays_an_earlier_finish(self, arrivals, extra, n):
        before = finishes(arrivals, n)
        # Submitted last, the extra request queues behind any arrival tied
        # with it, so every request arriving at or before it is earlier.
        after = finishes([*arrivals, extra], n)
        for index, arrival in enumerate(arrivals):
            if arrival <= extra:
                request_id = f"req-{index:04d}"
                assert after[request_id] <= before[request_id]

