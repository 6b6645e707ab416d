"""Tests for SelectSPEC speculative-candidate selection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.spec_select import SelectSpec, speculative_potential


class TestSpeculativePotential:
    def test_top_bin_gets_full_branching(self):
        assert speculative_potential(0.99, 4) == 4
        assert speculative_potential(1.0, 4) == 4

    def test_bottom_bin_gets_one(self):
        assert speculative_potential(0.01, 4) == 1
        assert speculative_potential(0.0, 4) == 1

    def test_monotone_in_score(self):
        potentials = [speculative_potential(s / 10, 4) for s in range(11)]
        assert potentials == sorted(potentials)

    def test_none_score_middle_bin(self):
        assert 1 <= speculative_potential(None, 4) <= 4

    def test_binning_formula(self):
        """M_i = B - j + 1 with fixed-width bins (Sec. 4.1.1)."""
        assert speculative_potential(0.875, 4) == 4  # bin C1: [0.75, 1]
        assert speculative_potential(0.625, 4) == 3  # bin C2
        assert speculative_potential(0.375, 4) == 2  # bin C3
        assert speculative_potential(0.125, 4) == 1  # bin C4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            speculative_potential(1.5, 4)
        with pytest.raises(ValueError):
            speculative_potential(0.5, 0)


class TestSelectSpec:
    def test_priority_order(self):
        selector = SelectSpec(branching_factor=4)
        selector.offer((0,), 0.2)   # potential 1
        selector.offer((1,), 0.9)   # potential 4
        [(parent, child)] = selector.claim(1)
        assert parent == (1,)
        assert child == 0

    def test_same_parent_drawn_up_to_potential(self):
        selector = SelectSpec(branching_factor=4)
        selector.offer((1,), 0.9)
        claims = selector.claim(4)
        assert claims == [((1,), 0), ((1,), 1), ((1,), 2), ((1,), 3)]
        assert selector.claim(1) == []

    def test_exhausted_pool_claims_nothing(self):
        selector = SelectSpec(branching_factor=2)
        selector.offer((0,), 0.1)  # potential 1
        assert selector.claim(3) == [((0,), 0)]
        assert selector.claim(1) == []
        assert not selector.heap

    def test_fifo_within_equal_potential(self):
        selector = SelectSpec(branching_factor=1)
        selector.offer((5,), 0.5)
        selector.offer((6,), 0.5)
        assert selector.claim(2) == [((5,), 0), ((6,), 0)]

    def test_len_counts_live_candidates(self):
        selector = SelectSpec(branching_factor=4)
        selector.offer((0,), 0.9)
        selector.offer((1,), 0.9)
        assert len(selector) == 2
        selector.claim(4)
        assert len(selector) == 1

    def test_interleaved_offers(self):
        """Slots freed over time mix with new candidates correctly."""
        selector = SelectSpec(branching_factor=4)
        selector.offer((0,), 0.55)  # potential 3
        assert selector.claim(1) == [((0,), 0)]
        selector.offer((1,), 0.95)  # potential 4: jumps the queue
        assert selector.claim(1) == [((1,), 0)]

    def test_bad_branching_factor(self):
        with pytest.raises(ValueError):
            SelectSpec(branching_factor=0)


class ReferenceSelector:
    """SelectSPEC by its definition: each claim goes to the candidate with
    branches left that sorts first by ``(-potential, arrival)``."""

    def __init__(self, branching_factor):
        self.branching = branching_factor
        self.candidates = []  # [-potential, arrival, lineage, started]

    def offer(self, lineage, prev_score):
        potential = speculative_potential(prev_score, self.branching)
        self.candidates.append([-potential, len(self.candidates), lineage, 0])

    def next_branch(self):
        live = [c for c in self.candidates if c[3] < -c[0]]
        if not live:
            return None
        best = min(live, key=lambda c: (c[0], c[1]))
        best[3] += 1
        return best[2], best[3] - 1

    def __len__(self):
        return sum(1 for c in self.candidates if c[3] < -c[0])


SCORES = st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))


class TestSelectSpecOrder:
    @given(
        branching=st.integers(min_value=1, max_value=6),
        ops=st.lists(st.one_of(st.integers(0, 9), SCORES), max_size=60),
    )
    def test_any_interleaving_claims_in_reference_order(self, branching, ops):
        """The heap of ``(-potential, arrival, candidate)`` entries claims
        the same ``(lineage, child)`` sequence as the reference's one claim
        at a time, whatever the interleaving of offers and bursts (an int
        op claims that many)."""
        selector, reference = SelectSpec(branching), ReferenceSelector(branching)
        claims, expected = [], []
        for i, op in enumerate(ops):
            if type(op) is int:
                burst = selector.claim(op)
                claims += burst
                for _ in range(op):
                    claim = reference.next_branch()
                    if claim is not None:
                        expected.append(claim)
                assert len(burst) == op or not len(reference)
            else:
                selector.offer((i,), op)
                reference.offer((i,), op)
            assert len(selector) == len(reference)
        claims += selector.claim(10**6)  # drain what is left
        while len(reference):
            expected.append(reference.next_branch())
        assert claims == expected
        assert selector.claim(1) == [] and not selector.heap
