"""Validation tests for job records."""

import pytest

from repro.engine.jobs import GenJob, VerifyJob


def gen_job(**overrides):
    kwargs = dict(
        lineage=(0,),
        path_segments=(1,),
        path_segment_tokens=(64,),
        new_segment=2,
        step_tokens=10,
    )
    kwargs.update(overrides)
    return GenJob(**kwargs)


class TestGenJob:
    def test_remaining_tokens(self):
        assert gen_job(step_tokens=10, head_start=4).remaining_tokens == 6

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            gen_job(step_tokens=0)

    def test_head_start_bounds(self):
        with pytest.raises(ValueError):
            gen_job(head_start=11)
        with pytest.raises(ValueError):
            gen_job(head_start=-1)

    def test_segment_token_alignment(self):
        with pytest.raises(ValueError):
            gen_job(path_segment_tokens=(64, 10))

    def test_prompt_segment_required(self):
        with pytest.raises(ValueError):
            gen_job(path_segments=(), path_segment_tokens=())


class TestVerifyJob:
    def base(self, **overrides):
        kwargs = dict(
            lineage=(0,),
            step_idx=0,
            path_segments=(1,),
            path_segment_tokens=(64,),
            new_segment=2,
            new_tokens=10,
            mean_soundness=0.0,
        )
        kwargs.update(overrides)
        return VerifyJob(**kwargs)

    def test_valid(self):
        job = self.base()
        assert job.lookahead_child is None

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            self.base(new_tokens=-1)
        with pytest.raises(ValueError):
            self.base(lookahead_tokens=-1)

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            self.base(path_segment_tokens=(64, 1))

