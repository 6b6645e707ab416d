"""numpy's first draws from ``Generator(PCG64(seed))``, in pure Python.

A keyed single draw needs one value from a freshly seeded stream. Building
that stream through numpy costs an import of ~16 MiB and a ``SeedSequence``
+ ``PCG64`` + ``Generator`` per key; this module computes the same value
bit for bit from the 64-bit seed alone:

* :func:`start` is ``SeedSequence(seed)``'s pool mixing, its first four
  64-bit output words and PCG64's ``srandom`` - the state numpy's
  ``PCG64(seed)`` starts in - advanced once to its first output word.
* :func:`random`, :func:`normal`, :func:`lognormal`, :func:`exponential`,
  :func:`integers` and :func:`weighted_index` are numpy 2.4's
  ``Generator.random`` / ``normal`` / ``lognormal`` / ``exponential`` /
  ``integers`` and ``choice(n, p=w / w.sum())`` on that fresh stream,
  argument checks included: the 256-layer ziggurats with their tails and
  wedges (tables in :mod:`repro.utils.ziggurat_tables`, read out of the
  numpy wheel), the buffered 32-bit and the 64-bit Lemire bounded-integer
  paths, and ``choice``'s pairwise sum, cumulative sum and
  ``searchsorted``.

Every draw seeds through :func:`start`, the one construction function.
The common case takes one output word; the rare rejection and tail
branches step the state with :func:`_step`. Tests hold the module to
numpy: ``tests/utils/test_rng.py`` compares every ``KeyedRng`` helper
with a fresh numpy stream over 10^5 keys, and ``tests/utils/test_pcg64.py``
forces chosen output words through every table row and tail branch.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import copysign, exp, inf, log1p

from repro.utils.ziggurat_tables import (
    EXP_R, FE, FI, KE, KI, NOR_INV_R, NOR_R, WE, WI,
)

__all__ = [
    "exponential",
    "integers",
    "lognormal",
    "normal",
    "random",
    "start",
    "weighted_index",
]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53

# SeedSequence's hash constants. Its multipliers advance the same way
# whatever the data, so the k-th hashmix uses the fixed pair
# (_HASH_A[k], _HASH_A[k + 1]) and the k-th output word (_HASH_B[k],
# _HASH_B[k + 1]).
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HASH_A = [0x43B0D7E5]
_HASH_B = [0x8B51F9DD]
for _ in range(16):
    _HASH_A.append(_HASH_A[-1] * 0x931E8875 & _M32)
for _ in range(8):
    _HASH_B.append(_HASH_B[-1] * 0x58F38DED & _M32)


def _hashmix(value: int, k: int) -> int:
    """SeedSequence's ``k``-th hashmix of ``value`` (:func:`start` inlines it)."""
    value = (value ^ _HASH_A[k]) * _HASH_A[k + 1] & _M32
    return value ^ value >> 16


# A 64-bit seed fills two of the four pool words; the other two mix zeros.
_POOL_TAIL = (_hashmix(0, 2), _hashmix(0, 3))
# The twelve cross-mixing rounds: (source word, target word, hash pair).
_CROSS = tuple(
    (src, dst, _HASH_A[k], _HASH_A[k + 1])
    for k, (src, dst) in enumerate(
        ((src, dst) for src in range(4) for dst in range(4) if src != dst), start=4
    )
)
# The eight output words: (pool word, hash pair).
_OUTPUT = tuple((k & 3, _HASH_B[k], _HASH_B[k + 1]) for k in range(8))


def start(seed: int) -> tuple[int, int, int]:
    """``PCG64(seed)``'s first 64-bit output, its state after it, and its
    increment - the one place a keyed stream is built.

    ``seed`` is a non-negative integer below ``2**64``, as
    :func:`repro.utils.rng._hash64` returns.
    """
    low = ((seed & _M32) ^ _HASH_A[0]) * _HASH_A[1] & _M32
    high = (seed >> 32 ^ _HASH_A[1]) * _HASH_A[2] & _M32
    pool = [low ^ low >> 16, high ^ high >> 16, *_POOL_TAIL]
    for src, dst, xor, mul in _CROSS:
        value = (pool[src] ^ xor) * mul & _M32
        value = _MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16) & _M32
        pool[dst] = value ^ value >> 16
    words = []
    for src, xor, mul in _OUTPUT:
        value = (pool[src] ^ xor) * mul & _M32
        words.append(value ^ value >> 16)
    initstate = (words[0] | words[1] << 32) << 64 | words[2] | words[3] << 32
    inc = ((words[4] | words[5] << 32) << 65 | (words[6] | words[7] << 32) << 1 | 1) & _M128
    state = (((inc + initstate) * _PCG_MULT + inc) * _PCG_MULT + inc) & _M128
    value = (state >> 64 ^ state) & _M64
    rot = state >> 122
    return (value >> rot | value << (64 - rot)) & _M64, state, inc


def _step(state: int, inc: int) -> tuple[int, int]:
    """The next 64-bit output and the state after it (XSL-RR)."""
    state = (state * _PCG_MULT + inc) & _M128
    value = (state >> 64 ^ state) & _M64
    rot = state >> 122
    return (value >> rot | value << (64 - rot)) & _M64, state


def _check_scale(name: str, value: float) -> None:
    """numpy's non-negative check: ``-0.0`` fails, NaN passes."""
    if value < 0 or (value == 0 and copysign(1.0, value) < 0):
        raise ValueError(f"{name} < 0")


def random(seed: int) -> float:
    """``Generator.random()``: 53 high bits as a double in [0, 1)."""
    return (start(seed)[0] >> 11) * _TO_DOUBLE


def _standard_normal(word: int, state: int, inc: int) -> float:
    """numpy's ``random_standard_normal`` from its first output ``word``."""
    while True:
        idx = word & 0xFF
        rabs = word >> 9 & 0x000FFFFFFFFFFFFF
        x = rabs * WI[idx]
        if word & 0x100:
            x = -x
        if rabs < KI[idx]:
            return x  # ~99.3 % of draws end here
        if idx == 0:
            while True:
                word, state = _step(state, inc)
                xx = -NOR_INV_R * log1p(-(word >> 11) * _TO_DOUBLE)
                word, state = _step(state, inc)
                yy = -log1p(-(word >> 11) * _TO_DOUBLE)
                if yy + yy > xx * xx:
                    return -(NOR_R + xx) if rabs >> 8 & 1 else NOR_R + xx
        word, state = _step(state, inc)
        if (FI[idx - 1] - FI[idx]) * ((word >> 11) * _TO_DOUBLE) + FI[idx] < exp(-0.5 * x * x):
            return x
        word, state = _step(state, inc)


def normal(seed: int, loc: float, scale: float) -> float:
    """``Generator.normal(loc, scale)``."""
    _check_scale("scale", scale)
    return loc + scale * _standard_normal(*start(seed))


def lognormal(seed: int, mean: float, sigma: float) -> float:
    """``Generator.lognormal(mean, sigma)``."""
    _check_scale("sigma", sigma)
    return exp(mean + sigma * _standard_normal(*start(seed)))


def _standard_exponential(word: int, state: int, inc: int) -> float:
    """numpy's ``random_standard_exponential`` from its first output ``word``."""
    while True:
        ri = word >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * WE[idx]
        if ri < KE[idx]:
            return x  # ~98.9 % of draws end here
        word, state = _step(state, inc)
        if idx == 0:
            return EXP_R - log1p(-(word >> 11) * _TO_DOUBLE)
        if (FE[idx - 1] - FE[idx]) * ((word >> 11) * _TO_DOUBLE) + FE[idx] < exp(-x):
            return x
        word, state = _step(state, inc)


def exponential(seed: int, scale: float) -> float:
    """``Generator.exponential(scale)``."""
    _check_scale("scale", scale)
    return scale * _standard_exponential(*start(seed))


def integers(seed: int, low: int, high: int) -> int:
    """``Generator.integers(low, high)`` (int64, ``high`` excluded)."""
    span = high - 1 - low
    if low < -(1 << 63):
        raise ValueError("low is out of bounds for int64")
    if high - 1 > (1 << 63) - 1:
        raise ValueError("high is out of bounds for int64")
    if span < 0:
        raise ValueError("low >= high")
    if span == 0:
        return low  # numpy draws nothing
    word, state, inc = start(seed)
    if span > _M32:
        if span == _M64:
            return low + word
        excl = span + 1
        product = word * excl
        if product & _M64 < excl:
            threshold = (_M64 - span) % excl
            while product & _M64 < threshold:
                word, state = _step(state, inc)
                product = word * excl
        return low + (product >> 64)
    # 32-bit path: PCG64 hands out the low half of each word first and
    # buffers the high half for the next 32-bit request.
    if span == _M32:
        return low + (word & _M32)
    excl = span + 1
    product = (word & _M32) * excl
    if product & _M32 < excl:
        threshold = (_M32 - span) % excl
        high_half = True
        while product & _M32 < threshold:
            if high_half:
                product = (word >> 32) * excl
            else:
                word, state = _step(state, inc)
                product = (word & _M32) * excl
            high_half = not high_half
    return low + (product >> 32)


def _pairwise_sum(values: tuple[float, ...]) -> float:
    """numpy's ``add.reduce`` of a contiguous float64 vector."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = list(values[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += values[i + j]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[i:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def weighted_index(seed: int, *weights: float) -> int:
    """``choice(len(w), p=w / w.sum())`` for finite, non-negative ``w``;
    all-zero weights draw ``integers(0, len(w))`` instead."""
    total = _pairwise_sum(weights)
    if total <= 0:
        return integers(seed, 0, len(weights))
    if total == inf:  # finite weights can still overflow their sum
        raise ValueError("probabilities do not sum to 1")
    cdf = list(accumulate([w / total for w in weights]))
    last = cdf[-1]
    word = start(seed)[0]
    return bisect_right([c / last for c in cdf], (word >> 11) * _TO_DOUBLE)
