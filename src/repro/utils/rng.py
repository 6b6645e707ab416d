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

Cost model
----------
A keyed value costs one BLAKE2 hash of its key (:func:`_hash64`, ~2 us
for a typical ``"segment", "problem-3", (0, 1, 2, 3), i``, its small ints
encoded from a table) plus one stream *built* from the seed it hashes to.
The single-draw helpers (:meth:`KeyedRng.uniform`, ``normal``,
``lognormal``, ``exponential``, ``randint``, ``choice_index``) never touch
numpy: :mod:`repro.utils.pcg64` computes numpy's ``SeedSequence`` ->
``PCG64`` seeding (straight-line, ~9 us) and the ``Generator``'s first
draw bit for bit in pure Python (``timeit`` on a 2-vCPU Intel Xeon VM,
CPython 3.11: ~9-11 us for a first ``normal``, against ~12-15 us for
numpy's ``Generator(PCG64(seed))`` build plus draw), so a process that
only draws keyed values never imports numpy's ~16 MiB. The bill is the
number of streams built, and two rules keep it at the number of distinct
values a run consumes:

* **Draw on demand.** Callers ask for a value only when something reads
  it (a speculative child's step length, not its soundness, and no draw to
  learn whether a finished beam can have children; no shuffle of a one-job
  round) - that is their business, not this module's.
* **Derive once per run.** Every draw here builds its stream; nothing is
  remembered process-wide. The objects that draw step values keep what
  they derived in a :class:`StepTables` of their own - the simulated
  generator its step lengths, plans and answers (and its sessions'
  segment chains and truncation cuts), the PRM its scores - so every
  canonical session that solves a problem on the same generator/PRM pair
  (one server, or every matching lane of a pool) reads what the first
  request derived. A forked replica draws on a pair of its own, so it
  never sees, nor fills, a canonical table.

:meth:`KeyedRng.stream` returns a *fresh* numpy ``Generator`` on every
call, built by :func:`_new_stream`, for consumers that draw more than
once from a stream (permutations, the tokenizer); it imports numpy on its
first call. Helpers and streams share one seed derivation
(:func:`_hash64`), so a helper's value always equals the first draw of
``stream(*key)``; :data:`stream_counts` says how many streams were built
(either way).
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING, Iterable

from repro.utils import pcg64

if TYPE_CHECKING:
    import numpy as np

_KeyPart = int | str | float | bytes | bool | tuple

__all__ = [
    "TABLE_CAP",
    "KeyedRng",
    "StepTables",
    "stable_hash64",
    "stream_counts",
]


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
        return b"f" + struct.pack("<d", part)
    if isinstance(part, str):
        raw = part.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "little") + raw
    if isinstance(part, bytes):
        return b"y" + len(part).to_bytes(4, "little") + part
    if isinstance(part, tuple):
        inner = b"".join([_encode_part(p) for p in part])
        return b"t" + len(part).to_bytes(4, "little") + inner
    raise TypeError(f"unhashable rng key part of type {type(part).__name__}")


# Keys repeat a small vocabulary of labels and problem ids. Only ``str``
# parts are memoised by value: ``1 == True == 1.0`` as dict keys (even
# inside tuples), so caching numeric or tuple parts would alias encodings
# that must differ.
_encode_str = functools.lru_cache(maxsize=4096)(_encode_part)
# The encodings of 0 .. 255, the ints lineages and step indices are made of.
_SMALL_INTS = tuple(_encode_part(i) for i in range(256))


def _hash64(prefix: bytes, parts: tuple) -> int:
    """64-bit BLAKE2 of ``prefix`` plus the encoded ``parts``.

    The one derivation behind :func:`stable_hash64`, every stream's
    ``PCG64`` seed and every fork's root seed - the hashing hot path, so
    it encodes a key in one pass. It spells out the exact types keys are
    made of (``str`` through its memo, ``int`` - a small one from
    :data:`_SMALL_INTS` - and a lineage: a tuple of exact ``int``), and
    hands every other part, at any depth, to :func:`_encode_part`'s
    ``isinstance`` chain - ``bool``, ``float``, ``bytes``, subclasses and
    deeper tuples - so the bytes are the same either way.
    """
    out = [prefix]
    for part in parts:
        kind = type(part)
        if kind is str:
            out.append(_encode_str(part))
        elif kind is tuple:
            out.append(b"t" + len(part).to_bytes(4, "little"))
            for item in part:
                if type(item) is not int:
                    out.append(_encode_part(item))
                elif 0 <= item < 256:
                    out.append(_SMALL_INTS[item])
                else:
                    out.append(b"i" + item.to_bytes(16, "little", signed=True))
        elif kind is not int:
            out.append(_encode_part(part))
        elif 0 <= part < 256:
            out.append(_SMALL_INTS[part])
        else:
            out.append(b"i" + part.to_bytes(16, "little", signed=True))
    return int.from_bytes(
        hashlib.blake2b(b"".join(out), digest_size=8).digest(), "little"
    )


def stable_hash64(*parts: _KeyPart) -> int:
    """Return a stable 64-bit hash of the given key parts.

    Unlike the builtin :func:`hash`, the result does not depend on
    ``PYTHONHASHSEED``, the process, or the platform.
    """
    return _hash64(b"", parts)


@dataclass(slots=True)
class _StreamCounts:
    """Keyed-draw traffic since the process started; count by difference."""

    built: int = 0  # ``PCG64`` streams seeded (``stream()`` and every helper draw)


stream_counts = _StreamCounts()

#: Entries a :class:`StepTables` holds before it evicts whole problems.
#: Over three sub-traces of each perf workload, 8 192 build exactly the
#: streams unbounded tables do (the largest, ``edge_single``'s generator,
#: peaks at 8 810 entries); 4 096 rebuild up to 6 % more there and 2 048
#: up to 14 %. At ``--scale 4`` ``edge_single``'s unbounded tables reach
#: 26 583 + 6 794 entries and ~4.6 MiB; 8 192 per owner leave its
#: ``peak_rss_mib`` at 29.8 MiB, 3 % above a drain without tables.
TABLE_CAP = 8192


class StepTables(dict):
    """Derived step values, one table per problem id, least recently used first.

    A problem's table maps a tagged key holding every argument a value
    depends on (``("plan", lineage, step_idx, cap)``, ...) to the value
    its owner derived; the owner's own parameters (model, dataset, rng)
    are the owner's, so a table is never shared between owners. Canonical
    sessions also name their KV here: ``(model tag, segment id)`` holds
    the segment's lane-tree node id (:class:`~repro.core.claims.ClaimNames`).
    """

    def acquire(self, problem_id: str) -> dict:
        """``problem_id``'s table, now the most recently used one.

        Evicts least recently used problems' tables, never this one, while
        the owner holds more than :data:`TABLE_CAP` entries.
        """
        table = self.pop(problem_id, None)
        self[problem_id] = table = {} if table is None else table
        entries = sum(map(len, self.values()))
        while entries > TABLE_CAP and len(self) > 1:
            entries -= len(self.pop(next(iter(self))))
        return table


def _new_stream(seed: int) -> np.random.Generator:
    """Build the numpy stream seeded ``seed`` for :meth:`KeyedRng.stream`."""
    import numpy as np

    stream_counts.built += 1
    return np.random.Generator(np.random.PCG64(seed))


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
        self._prefix = _encode_part(seed)  # every key starts with the seed

    @property
    def seed(self) -> int:
        """The root seed this instance derives all streams from."""
        return self._seed

    def stream(self, *key: _KeyPart) -> np.random.Generator:
        """Return a fresh numpy generator for the addressed stream.

        The same ``(seed, key)`` pair always yields a generator in the same
        state; distinct keys yield independent streams. For one value use
        a helper below: it draws the same bits without numpy.
        """
        return _new_stream(_hash64(self._prefix, key))

    def uniform(self, *key: _KeyPart) -> float:
        """One U[0, 1) draw from the addressed stream."""
        stream_counts.built += 1
        return pcg64.random(_hash64(self._prefix, key))

    def normal(self, *key: _KeyPart, loc: float = 0.0, scale: float = 1.0) -> float:
        """One normal draw from the addressed stream."""
        stream_counts.built += 1
        return pcg64.normal(_hash64(self._prefix, key), loc, scale)

    def lognormal(self, *key: _KeyPart, mean: float, sigma: float) -> float:
        """One lognormal draw from the addressed stream."""
        stream_counts.built += 1
        return pcg64.lognormal(_hash64(self._prefix, key), mean, sigma)

    def exponential(self, *key: _KeyPart, scale: float) -> float:
        """One exponential draw with mean ``scale`` from the addressed stream."""
        stream_counts.built += 1
        return pcg64.exponential(_hash64(self._prefix, key), scale)

    def randint(self, *key: _KeyPart, low: int, high: int) -> int:
        """One integer draw in ``[low, high)`` from the addressed stream."""
        stream_counts.built += 1
        return pcg64.integers(_hash64(self._prefix, key), low, high)

    def choice_index(self, *key: _KeyPart, weights: Iterable[float]) -> int:
        """Sample an index proportionally to ``weights``."""
        weights = tuple(weights)
        if not weights:
            raise ValueError("weights must be non-empty")
        if not all(map(isfinite, weights)):
            raise ValueError("weights must be finite")
        if min(weights) < 0:
            raise ValueError("weights must be non-negative")
        stream_counts.built += 1
        return pcg64.weighted_index(_hash64(self._prefix, key), *weights)

    def fork(self, *key: _KeyPart) -> "KeyedRng":
        """Derive a child :class:`KeyedRng` rooted at a sub-key.

        Useful for handing a component its own namespace without threading
        long key tuples through every call site.
        """
        return KeyedRng(_hash64(self._prefix, ("fork", *key)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KeyedRng(seed={self._seed})"
