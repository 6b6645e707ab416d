"""Tests for the KV block pool."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CapacityError
from repro.kvcache.block import BlockPool, blocks_for_tokens


class TestBlocksForTokens:
    def test_exact_fit(self):
        assert blocks_for_tokens(32, 16) == 2

    def test_ceiling(self):
        assert blocks_for_tokens(17, 16) == 2

    def test_zero_tokens(self):
        assert blocks_for_tokens(0, 16) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            blocks_for_tokens(-1, 16)

    @given(st.integers(0, 10_000), st.integers(1, 64))
    def test_covers_tokens_minimally(self, tokens, block):
        blocks = blocks_for_tokens(tokens, block)
        assert blocks * block >= tokens
        assert (blocks - 1) * block < tokens or blocks == 0


class TestBlockPool:
    def test_allocate_free_cycle(self):
        pool = BlockPool(total_blocks=10)
        pool.allocate(4)
        assert pool.free_blocks == 6
        pool.free(4)
        assert pool.free_blocks == 10

    def test_over_allocate_raises(self):
        pool = BlockPool(total_blocks=3)
        with pytest.raises(CapacityError):
            pool.allocate(4)
        pool.allocate(3)  # every last block can be taken
        assert pool.free_blocks == 0
        with pytest.raises(CapacityError):
            pool.allocate(1)

    def test_over_free_raises(self):
        pool = BlockPool(total_blocks=3)
        pool.allocate(2)
        with pytest.raises(CapacityError):
            pool.free(3)

    def test_from_bytes(self):
        pool = BlockPool.from_bytes(
            capacity_bytes=16 * 100 * 10, kv_bytes_per_token=100, block_tokens=16
        )
        assert pool.total_blocks == 10
        assert pool.capacity_tokens == 160

    def test_negative_allocate_raises(self):
        with pytest.raises(ValueError):
            BlockPool(total_blocks=2).allocate(-1)

    @given(st.lists(st.integers(1, 5), max_size=20))
    def test_accounting_invariant(self, requests):
        pool = BlockPool(total_blocks=30)
        held = 0
        for req in requests:
            if req <= pool.free_blocks:
                pool.allocate(req)
                held += req
            assert pool.allocated_blocks == held
            assert pool.free_blocks == 30 - held
