"""Hash-keyed random number streams.

The FastTTS paper argues its optimizations are *algorithmically equivalent*
to the baseline search: speculation and reordering never change which beams
the search selects. To make that claim testable in simulation, every
stochastic quantity (step length, quality delta, verifier noise, sampled
answer) must be a pure function of *what* is being generated, never of
*when* or *in which batch* it is generated.

:class:`KeyedRng` provides that: ``rng.stream(*key)`` returns a NumPy
generator seeded by a stable BLAKE2 hash of the root seed and the key parts.
Two servers that execute the same logical search in totally different orders
draw bit-identical values, so any divergence between a baseline run and a
FastTTS run is a real algorithmic divergence, not RNG-consumption skew.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable

import numpy as np

_KeyPart = int | str | float | bytes | bool | tuple

__all__ = ["KeyedRng", "stable_hash64"]


def _encode_part(part: _KeyPart) -> bytes:
    """Canonically encode one key component for hashing.

    Each encoding is prefixed with a type tag so that e.g. ``1`` and ``"1"``
    hash differently, and tuples cannot collide with their flattened parts.
    """
    if isinstance(part, bool):  # must precede int: bool is a subclass of int
        return b"b" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    if isinstance(part, float):
        return b"f" + np.float64(part).tobytes()
    if isinstance(part, str):
        raw = part.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "little") + raw
    if isinstance(part, bytes):
        return b"y" + len(part).to_bytes(4, "little") + part
    if isinstance(part, tuple):
        return b"t" + len(part).to_bytes(4, "little") + _encode_parts(part)
    raise TypeError(f"unhashable rng key part of type {type(part).__name__}")


# Keys repeat a small vocabulary of labels and problem ids. Only ``str``
# parts are memoised by value: ``1 == True == 1.0`` as dict keys (even
# inside tuples), so caching numeric or tuple parts would alias encodings
# that must differ.
_encode_str = functools.lru_cache(maxsize=4096)(_encode_part)


def _encode_parts(parts: tuple) -> bytes:
    """Concatenated encodings of ``parts`` — the hashing hot path.

    Dispatches on the exact type of the overwhelmingly common parts
    (``int``, ``str``, nested ``tuple``) and leaves everything else —
    ``bool``, ``float``, ``bytes``, subclasses — to :func:`_encode_part`'s
    ``isinstance`` chain, so the bytes are the same either way.
    """
    out = []
    for part in parts:
        kind = type(part)
        if kind is int:
            out.append(b"i" + part.to_bytes(16, "little", signed=True))
        elif kind is str:
            out.append(_encode_str(part))
        elif kind is tuple:
            out.append(b"t" + len(part).to_bytes(4, "little") + _encode_parts(part))
        else:
            out.append(_encode_part(part))
    return b"".join(out)


def _hash64(encoded: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(encoded, digest_size=8).digest(), "little")


def stable_hash64(*parts: _KeyPart) -> int:
    """Return a stable 64-bit hash of the given key parts.

    Unlike the builtin :func:`hash`, the result does not depend on
    ``PYTHONHASHSEED``, the process, or the platform.
    """
    return _hash64(_encode_parts(parts))


class KeyedRng:
    """A root seed from which independent, addressable streams are derived.

    Example
    -------
    >>> rng = KeyedRng(seed=7)
    >>> a = rng.stream("step-length", "problem-3", 0).lognormal(4.0, 0.8)
    >>> b = rng.stream("step-length", "problem-3", 0).lognormal(4.0, 0.8)
    >>> a == b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError("seed must be an int")
        self._seed = seed
        self._prefix = _encode_parts((seed,))  # every key starts with the seed

    @property
    def seed(self) -> int:
        """The root seed this instance derives all streams from."""
        return self._seed

    def stream(self, *key: _KeyPart) -> np.random.Generator:
        """Return a fresh generator for the addressed stream.

        The same ``(seed, key)`` pair always yields a generator in the same
        state; distinct keys yield independent streams.
        """
        return np.random.Generator(
            np.random.PCG64(_hash64(self._prefix + _encode_parts(key)))
        )

    def uniform(self, *key: _KeyPart) -> float:
        """One U[0, 1) draw from the addressed stream."""
        return float(self.stream(*key).random())

    def normal(self, *key: _KeyPart, loc: float = 0.0, scale: float = 1.0) -> float:
        """One normal draw from the addressed stream."""
        return float(self.stream(*key).normal(loc, scale))

    def lognormal(self, *key: _KeyPart, mean: float, sigma: float) -> float:
        """One lognormal draw from the addressed stream."""
        return float(self.stream(*key).lognormal(mean, sigma))

    def randint(self, *key: _KeyPart, low: int, high: int) -> int:
        """One integer draw in ``[low, high)`` from the addressed stream."""
        return int(self.stream(*key).integers(low, high))

    def choice_index(self, *key: _KeyPart, weights: Iterable[float]) -> int:
        """Sample an index proportionally to ``weights``."""
        w = np.asarray(list(weights), dtype=np.float64)
        if w.size == 0:
            raise ValueError("weights must be non-empty")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if total <= 0:
            # All-zero weights degrade to a uniform choice.
            return int(self.stream(*key).integers(0, w.size))
        return int(self.stream(*key).choice(w.size, p=w / total))

    def fork(self, *key: _KeyPart) -> "KeyedRng":
        """Derive a child :class:`KeyedRng` rooted at a sub-key.

        Useful for handing a component its own namespace without threading
        long key tuples through every call site.
        """
        return KeyedRng(_hash64(self._prefix + _encode_parts(("fork", *key))))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KeyedRng(seed={self._seed})"
