"""Token sampling primitives.

The serving simulation never needs concrete token ids, but the examples and
the synthetic tokenizer do (to render believable step text), and sampling
with temperature / top-k / top-p is part of any serving stack's public
surface. This implementation operates on explicit logit arrays and a
caller-supplied generator, so it is deterministic and unit-testable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["sample_token", "sample_tokens", "apply_top_k", "apply_top_p"]


def apply_top_k(logits: np.ndarray, top_k: int) -> np.ndarray:
    """Mask all but the ``top_k`` highest logits with ``-inf``."""
    import numpy as np

    if top_k <= 0:
        raise ValueError("top_k must be positive")
    if top_k >= logits.size:
        return logits.astype(np.float64, copy=True)
    out = logits.astype(np.float64, copy=True)
    threshold = np.partition(out, -top_k)[-top_k]
    out[out < threshold] = -np.inf
    return out


def apply_top_p(logits: np.ndarray, top_p: float) -> np.ndarray:
    """Nucleus filtering: keep the smallest prefix with mass >= ``top_p``."""
    import numpy as np

    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must be in (0, 1]")
    out = logits.astype(np.float64, copy=True)
    order = np.argsort(out)[::-1]
    probs = _softmax(out[order])
    keep = np.cumsum(probs) - probs < top_p  # first token always kept
    out[order[~keep]] = -np.inf
    return out


def sample_token(
    logits: np.ndarray,
    generator: np.random.Generator,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
) -> int:
    """Sample one token id from logits with the usual decoding knobs.

    ``temperature == 0`` means greedy argmax.
    """
    import numpy as np

    work = np.asarray(logits, dtype=np.float64)
    if work.ndim != 1 or work.size == 0:
        raise ValueError("logits must be a non-empty 1-D array")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0:
        return int(np.argmax(work))
    work = work / temperature
    if top_k is not None:
        work = apply_top_k(work, top_k)
    if top_p is not None:
        work = apply_top_p(work, top_p)
    probs = _softmax(work)
    return int(generator.choice(work.size, p=probs))


def sample_tokens(
    logits: np.ndarray,
    generator: np.random.Generator,
    n: int,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
) -> list[int]:
    """Sample ``n`` i.i.d. tokens from one logit vector."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [
        sample_token(logits, generator, temperature=temperature, top_k=top_k, top_p=top_p)
        for _ in range(n)
    ]


def _softmax(logits: np.ndarray) -> np.ndarray:
    import numpy as np

    finite = logits[np.isfinite(logits)]
    if finite.size == 0:
        raise ValueError("all logits were filtered out")
    shifted = logits - finite.max()
    exp = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
    return exp / exp.sum()
