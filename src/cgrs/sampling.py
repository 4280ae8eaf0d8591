"""Seedable temperature / top-p sampling over logit vectors.

The sampler is a pure function of (logits, temperature, top_p, u) where u is
a uniform variate supplied by the caller; all run-level randomness therefore
lives in the counter-based streams of :mod:`cgrs.rng`.
"""

from __future__ import annotations

import numpy as np

#: Logit floor substituted for zero-probability entries when converting a
#: probability vector to logits; exp() of it underflows to exactly 0.
LOG_ZERO = -1e30

#: Head size of the first partial selection in :func:`nucleus_filter`.
_HEAD_START = 64


def distribution_to_logits(probs: np.ndarray) -> np.ndarray:
    """Log-probabilities with zero entries floored to a huge negative value."""
    probs = np.asarray(probs, dtype=np.float64)
    out = np.full(probs.shape, LOG_ZERO)
    nz = probs > 0.0
    out[nz] = np.log(probs[nz])
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax; hugely negative entries underflow to 0."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def nucleus_filter(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Zero out everything outside the smallest prefix with mass >= top_p.

    Tokens are ranked by probability (stable order on ties, so lower ids win);
    the token that crosses the threshold is kept.  Returns a renormalized
    vector.

    The ranking never sorts the whole vocabulary.  A partial selection finds
    the k-th largest probability; the head is every positive entry at or above
    it, so ties with the pivot all enter and the head is an exact prefix of
    the full stable ranking.  Only the head is sorted.  While its mass stays
    below ``top_p`` the head grows fourfold.  ``np.cumsum`` adds left to right,
    so the head's prefix sums, the cutoff and the returned vector equal those
    of a full stable sort, bit for bit.
    """
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")
    if top_p == 1.0:
        return probs
    n = probs.size
    k = min(_HEAD_START, n)
    while True:
        pivot = np.partition(probs, n - k)[n - k]
        head = np.flatnonzero(probs >= pivot) if pivot > 0.0 else np.flatnonzero(probs > 0.0)
        head = head[np.argsort(-probs[head], kind="stable")]
        csum = np.cumsum(probs[head])
        # a zero pivot means the head already holds every positive entry
        if pivot <= 0.0 or k == n or csum[-1] >= top_p:
            break
        k = min(4 * k, n)
    cutoff = int(np.searchsorted(csum, top_p, side="left"))
    keep = head[: cutoff + 1]
    out = np.zeros_like(probs)
    out[keep] = probs[keep]
    return out / out.sum()


def sample_from_logits(
    logits: np.ndarray, temperature: float, top_p: float, u: float
) -> int:
    """Pick a token id by inverse-CDF over the tempered, nucleus-filtered softmax.

    ``temperature = 0`` degenerates to greedy argmax.  The inverse CDF walks
    outcomes in token-id order, so the selection is fully determined by ``u``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if temperature < 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    if temperature == 0.0:
        return int(np.argmax(logits))
    probs = softmax(logits / temperature)
    probs = nucleus_filter(probs, top_p)
    csum = np.cumsum(probs)
    idx = int(np.searchsorted(csum, u, side="right"))
    if idx >= probs.size:  # u landed beyond fp cumsum tail
        idx = int(np.flatnonzero(probs > 0)[-1])
    return idx
