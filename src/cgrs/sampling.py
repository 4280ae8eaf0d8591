"""Seedable temperature / top-p sampling straight from probabilities.

The sampler is a pure function of (probs, temperature, top_p, u, banned)
where u is a uniform variate supplied by the caller; all run-level randomness
therefore lives in the counter-based streams of :mod:`cgrs.rng`.

:func:`sample_from_probs` is the one sampling core.  :func:`nucleus_filter`
and :func:`sample_from_logits` are thin adapters over its helpers.
"""

from __future__ import annotations

import numpy as np

#: Logit floor substituted for zero-probability entries when converting a
#: probability vector to logits; exp() of it underflows to exactly 0.
LOG_ZERO = -1e30

#: Head size of the first partial selection in :func:`_nucleus`.
_HEAD_START = 64

#: Smallest tempered total taken as is.  Above it, every token holding more
#: than 2**-60 of the mass is a normal float; below it, ``p ** (1/T)`` has
#: underflowed (or the ban left no mass) and the weights are rebuilt.
_MIN_TOTAL = np.finfo(np.float64).tiny * 2.0**60


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


def _check_top_p(top_p: float) -> None:
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")


def _check_draw(temperature: float, u: float) -> None:
    if temperature < 0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")


def _weights(
    probs: np.ndarray, power: float, banned: np.ndarray | None
) -> tuple[np.ndarray, float]:
    """``probs ** power`` with the banned ids zeroed, and its total.

    If the ban leaves no probability mass it is ignored, so the draw falls
    back to the unmasked weights.  If the power underflows, the weights are
    taken relative to the largest probability, which keeps their ratios.
    """
    w = probs ** power if power != 1.0 else probs
    if banned is not None and banned.size:
        if w is probs:
            w = probs.copy()
        w[banned] = 0.0
    total = float(w.sum())
    if total >= _MIN_TOTAL:
        return w, total
    base = probs
    if banned is not None and banned.size:
        base = probs.copy()
        base[banned] = 0.0
        if not base.any():
            base = probs
    top = base.max()
    if not top > 0.0:
        raise ValueError("probs hold no probability mass")
    w = (base / top) ** power
    return w, float(w.sum())


def _nucleus(w: np.ndarray, total: float, top_p: float) -> np.ndarray:
    """Ids of the smallest stable-ranked prefix whose share of ``total`` reaches top_p.

    Tokens are ranked by weight (stable order on ties, so lower ids win); the
    token that crosses the threshold is kept.  The ranking never sorts the
    whole vocabulary.  A partial selection finds the k-th largest weight; the
    head is every positive entry at or above it, so ties with the pivot all
    enter and the head is an exact prefix of the full stable ranking.  Only
    the head is sorted.  While its share stays below ``top_p`` the head grows
    fourfold.  ``np.cumsum`` adds left to right, so the head's prefix sums
    and the cutoff equal those of a full stable sort, bit for bit.
    """
    n = w.size
    k = min(_HEAD_START, n)
    while True:
        pivot = np.partition(w, n - k)[n - k]
        head = np.flatnonzero(w >= pivot) if pivot > 0.0 else np.flatnonzero(w > 0.0)
        head = head[np.argsort(-w[head], kind="stable")]
        csum = np.cumsum(w[head] / total)
        # a zero pivot means the head already holds every positive entry
        if pivot <= 0.0 or k == n or csum[-1] >= top_p:
            break
        k = min(4 * k, n)
    cutoff = int(np.searchsorted(csum, top_p, side="left"))
    return head[: cutoff + 1]


def _draw(w: np.ndarray, keep: np.ndarray | None, u: float) -> int:
    """Inverse CDF over ``w[keep]`` (all of ``w`` when keep is None), in id order."""
    vals = w if keep is None else w[keep]
    csum = np.cumsum(vals)
    idx = int(np.searchsorted(csum, u * csum[-1], side="right"))
    if idx >= vals.size:  # u * total rounded up to the last prefix sum
        idx = int(np.flatnonzero(vals)[-1])
    return idx if keep is None else int(keep[idx])


def nucleus_filter(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Zero out everything outside the smallest prefix with mass >= top_p.

    ``probs`` must sum to 1.  Tokens are ranked as in :func:`_nucleus`.
    Returns a renormalized vector.
    """
    _check_top_p(top_p)
    if top_p == 1.0:
        return probs
    keep = _nucleus(probs, 1.0, top_p)
    out = np.zeros_like(probs)
    out[keep] = probs[keep]
    return out / out.sum()


def sample_from_probs(
    probs: np.ndarray,
    temperature: float,
    top_p: float,
    u: float,
    banned: np.ndarray | None = None,
) -> int:
    """Pick a token id by inverse CDF over the tempered, banned, nucleus-filtered probs.

    The weights are ``probs ** (1/T)`` with the ``banned`` ids (valid token
    ids) zeroed; tempering is monotone, so the ranking and its ties do not
    change.  ``temperature = 0`` degenerates to greedy argmax over the
    weights.  The nucleus is taken over the weights' share of their total,
    and the inverse CDF walks the kept ids in token-id order, so the
    selection is fully determined by ``u``.
    """
    _check_draw(temperature, u)
    _check_top_p(top_p)
    probs = np.asarray(probs, dtype=np.float64)
    power = 1.0 if temperature in (0.0, 1.0) else 1.0 / temperature
    w, total = _weights(probs, power, banned)
    if temperature == 0.0:
        return int(np.argmax(w))
    if top_p == 1.0:
        return _draw(w, None, u)
    return _draw(w, np.sort(_nucleus(w, total, top_p)), u)


def sample_from_logits(
    logits: np.ndarray, temperature: float, top_p: float, u: float
) -> int:
    """Pick a token id by inverse CDF over the tempered, nucleus-filtered softmax.

    ``temperature = 0`` degenerates to greedy argmax; otherwise this is
    :func:`sample_from_probs` over ``softmax(logits / temperature)``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    _check_draw(temperature, u)
    if temperature == 0.0:
        return int(np.argmax(logits))
    return sample_from_probs(softmax(logits / temperature), 1.0, top_p, u)
