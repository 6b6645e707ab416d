"""Fixed-size KV block pool (the PagedAttention memory model).

vLLM divides KV memory into fixed-size blocks (16 tokens by default) so
sequences can grow without contiguous allocation and shared prefixes can be
reference-counted at block granularity. This pool reproduces the accounting
side of that design: strict capacity, explicit allocate/free, and internal
fragmentation (a 17-token segment costs 2 blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError

__all__ = ["BlockPool", "blocks_for_tokens", "DEFAULT_BLOCK_TOKENS"]

DEFAULT_BLOCK_TOKENS = 16


def blocks_for_tokens(n_tokens: int, block_tokens: int = DEFAULT_BLOCK_TOKENS) -> int:
    """Blocks needed to hold ``n_tokens`` (ceiling division)."""
    if n_tokens < 0:
        raise ValueError("n_tokens must be non-negative")
    if block_tokens <= 0:
        raise ValueError("block_tokens must be positive")
    return -(-n_tokens // block_tokens)


@dataclass
class BlockPool:
    """Counting allocator over a fixed number of KV blocks.

    The simulator does not need per-block identity — only exact occupancy —
    so the pool tracks counts. ``allocated_blocks`` is the one count: a
    :class:`~repro.kvcache.cache.PagedKVCache` moves it in place at each
    transition that takes or returns blocks, having checked the need
    against ``total_blocks`` itself; :meth:`allocate` / :meth:`free` are
    the validated spelling for every other caller. Over-freeing or
    over-allocating through them raises immediately; both indicate an
    accounting bug in the caller.
    """

    total_blocks: int
    block_tokens: int = DEFAULT_BLOCK_TOKENS
    allocated_blocks: int = 0

    def __post_init__(self) -> None:
        if self.total_blocks < 0:
            raise ValueError("total_blocks must be non-negative")
        if self.block_tokens <= 0:
            raise ValueError("block_tokens must be positive")

    @classmethod
    def from_bytes(
        cls,
        capacity_bytes: int,
        kv_bytes_per_token: int,
        block_tokens: int = DEFAULT_BLOCK_TOKENS,
    ) -> "BlockPool":
        """Size a pool from a byte budget and a model's per-token KV cost."""
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if kv_bytes_per_token <= 0:
            raise ValueError("kv_bytes_per_token must be positive")
        tokens = capacity_bytes // kv_bytes_per_token
        return cls(total_blocks=tokens // block_tokens, block_tokens=block_tokens)

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self.allocated_blocks

    @property
    def capacity_tokens(self) -> int:
        """Total tokens the pool can hold (ignoring fragmentation)."""
        return self.total_blocks * self.block_tokens

    def allocate(self, n_blocks: int) -> None:
        """Take ``n_blocks`` from the pool or raise :class:`CapacityError`."""
        if n_blocks < 0:
            raise ValueError("n_blocks must be non-negative")
        if n_blocks > self.free_blocks:
            raise CapacityError(
                f"requested {n_blocks} blocks but only {self.free_blocks} free "
                f"of {self.total_blocks}"
            )
        self.allocated_blocks += n_blocks

    def free(self, n_blocks: int) -> None:
        """Return ``n_blocks`` to the pool."""
        if n_blocks < 0:
            raise ValueError("n_blocks must be non-negative")
        if n_blocks > self.allocated_blocks:
            raise CapacityError(
                f"freeing {n_blocks} blocks but only {self.allocated_blocks} allocated"
            )
        self.allocated_blocks -= n_blocks
