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

Every draw seeds through :func:`start`, the one construction function,
in straight-line code. The common case takes one output word (accepted
in :func:`normal` and :func:`lognormal`'s own body); the rare rejection
and tail branches step the state with :func:`_step`. Tests hold the module to
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
# PCG64's seeding (step from zero, add initstate, step) and its first
# output's step, folded: ``initstate * M**2 + inc * (M**2 + M + 1)``.
_PCG_MULT_SQ = _PCG_MULT * _PCG_MULT & _M128
_PCG_MULT_SQ_PLUS = (_PCG_MULT_SQ + _PCG_MULT + 1) & _M128


def start(seed: int) -> tuple[int, int, int]:
    """``PCG64(seed)``'s first 64-bit output, its state after it, and its
    increment - the one place a keyed stream is built.

    ``seed`` is a non-negative integer below ``2**64``, as
    :func:`repro.utils.rng._hash64` returns. ``SeedSequence``'s hash
    constants do not depend on the data, so its pool mixing and output
    words are unrolled with them as literals; ``tests/utils/test_pcg64.py``
    keeps the loop form and holds the two equal.
    """
    v = ((seed & 0xFFFFFFFF) ^ 0x43B0D7E5) * 0xAE5A53A9 & 0xFFFFFFFF
    p0 = v ^ v >> 16
    v = (seed >> 32 ^ 0xAE5A53A9) * 0x8488043D & 0xFFFFFFFF
    p1 = v ^ v >> 16
    # Word src into dst for each ordered pair; words 2 and 3 start as the
    # hashmix of zero, so their first mix starts from a constant product.
    v = (p0 ^ 0x9205B1D5) * 0xE9096E59 & 0xFFFFFFFF
    v = 0xCA01F9DD * p1 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p1 = v ^ v >> 16
    v = (p0 ^ 0xE9096E59) * 0x8D5CB6AD & 0xFFFFFFFF
    v = 0x5228666D - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p2 = v ^ v >> 16
    v = (p0 ^ 0x8D5CB6AD) * 0x9BB16511 & 0xFFFFFFFF
    v = 0x74577501 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p3 = v ^ v >> 16
    v = (p1 ^ 0x9BB16511) * 0x00C238C5 & 0xFFFFFFFF
    v = 0xCA01F9DD * p0 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p0 = v ^ v >> 16
    v = (p1 ^ 0x00C238C5) * 0x4D029A09 & 0xFFFFFFFF
    v = 0xCA01F9DD * p2 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p2 = v ^ v >> 16
    v = (p1 ^ 0x4D029A09) * 0xCC132E1D & 0xFFFFFFFF
    v = 0xCA01F9DD * p3 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p3 = v ^ v >> 16
    v = (p2 ^ 0xCC132E1D) * 0x83A97B41 & 0xFFFFFFFF
    v = 0xCA01F9DD * p0 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p0 = v ^ v >> 16
    v = (p2 ^ 0x83A97B41) * 0xFA8DDCB5 & 0xFFFFFFFF
    v = 0xCA01F9DD * p1 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p1 = v ^ v >> 16
    v = (p2 ^ 0xFA8DDCB5) * 0xAC4C06B9 & 0xFFFFFFFF
    v = 0xCA01F9DD * p3 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p3 = v ^ v >> 16
    v = (p3 ^ 0xAC4C06B9) * 0x26FF5A8D & 0xFFFFFFFF
    v = 0xCA01F9DD * p0 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p0 = v ^ v >> 16
    v = (p3 ^ 0x26FF5A8D) * 0x0E554A71 & 0xFFFFFFFF
    v = 0xCA01F9DD * p1 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p1 = v ^ v >> 16
    v = (p3 ^ 0x0E554A71) * 0x78C50DA5 & 0xFFFFFFFF
    v = 0xCA01F9DD * p2 - 0x4973F715 * (v ^ v >> 16) & 0xFFFFFFFF
    p2 = v ^ v >> 16
    # The eight 32-bit output words, assembled into PCG64's seed words.
    v = (p0 ^ 0x8B51F9DD) * 0x464A0A99 & 0xFFFFFFFF
    initstate = (v ^ v >> 16) << 64
    v = (p1 ^ 0x464A0A99) * 0x819D14A5 & 0xFFFFFFFF
    initstate |= (v ^ v >> 16) << 96
    v = (p2 ^ 0x819D14A5) * 0xD369FDC1 & 0xFFFFFFFF
    initstate |= v ^ v >> 16
    v = (p3 ^ 0xD369FDC1) * 0x501638AD & 0xFFFFFFFF
    initstate |= (v ^ v >> 16) << 32
    v = (p0 ^ 0x501638AD) * 0xA600C129 & 0xFFFFFFFF
    inc = (v ^ v >> 16) << 65 | 1
    v = (p1 ^ 0xA600C129) * 0x8B0167F5 & 0xFFFFFFFF
    inc |= ((v ^ v >> 16) & 0x7FFFFFFF) << 97
    v = (p2 ^ 0x8B0167F5) * 0x5C1E2ED1 & 0xFFFFFFFF
    inc |= (v ^ v >> 16) << 1
    v = (p3 ^ 0x5C1E2ED1) * 0x301D747D & 0xFFFFFFFF
    inc |= (v ^ v >> 16) << 33
    state = (initstate * _PCG_MULT_SQ + inc * _PCG_MULT_SQ_PLUS) & _M128
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
    """``Generator.normal(loc, scale)``: :func:`_check_scale` and the
    ziggurat's one-word accept, which ends ~99.3 % of draws, inline;
    :func:`_standard_normal` for the rest."""
    if scale <= 0 and (scale < 0 or copysign(1.0, scale) < 0):
        raise ValueError("scale < 0")
    word, state, inc = start(seed)
    idx = word & 0xFF
    rabs = word >> 9 & 0x000FFFFFFFFFFFFF
    if rabs < KI[idx]:
        x = rabs * WI[idx]
        return loc + scale * (-x if word & 0x100 else x)
    return loc + scale * _standard_normal(word, state, inc)


def lognormal(seed: int, mean: float, sigma: float) -> float:
    """``Generator.lognormal(mean, sigma)``, inline as :func:`normal`."""
    if sigma <= 0 and (sigma < 0 or copysign(1.0, sigma) < 0):
        raise ValueError("sigma < 0")
    word, state, inc = start(seed)
    idx = word & 0xFF
    rabs = word >> 9 & 0x000FFFFFFFFFFFFF
    if rabs < KI[idx]:
        x = rabs * WI[idx]
        return exp(mean + sigma * (-x if word & 0x100 else x))
    return exp(mean + sigma * _standard_normal(word, state, inc))


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
