"""Seedable temperature / top-p sampling straight from probabilities.

The sampler is a pure function of (probs, temperature, top_p, u, banned)
where u is a uniform variate supplied by the caller; all run-level randomness
therefore lives in the counter-based streams of :mod:`cgrs.rng`.

:func:`sample_from_probs` is the one sampling core.  :func:`nucleus_filter`
and :func:`sample_from_logits` are thin adapters over its helpers.

Top-p is defined on the tempered total, but the cutoff only needs that total
well enough to fix one index.  So an unsettled step at ``0 < T < 1`` tempers
only the threshold head in float64 and brackets the total with one float32
pass (:func:`_certified_nucleus`, :func:`_total_bounds`): the bracket's half
width is 8 times a stated error budget, about ``6.5e-5`` of the total at
``T = 0.6`` over 151,936 ids, where the measured float32 error is below
``1e-7``.  When the cutoff is the same at both ends it is the full path's,
and the draw picks the same id; otherwise the full path runs, unchanged.
"""

from __future__ import annotations

import math

import numpy as np

#: Logit floor substituted for zero-probability entries when converting a
#: probability vector to logits; exp() of it underflows to exactly 0.
LOG_ZERO = -1e30

#: Head size of the first partial selection in :func:`_nucleus`.
_HEAD_START = 64

#: The threshold head holds every entry at or above this share of the
#: largest one.
_HEAD_RATIO = 2.0**-10

#: Largest threshold head that is ranked as is; a larger one (a flat
#: distribution) goes to the partial-selection loop.
_HEAD_CAP = 4096

#: Smallest tempered total taken as is.  Above it, every token holding more
#: than 2**-60 of the mass is a normal float; below it, ``p ** (1/T)`` has
#: underflowed (or the ban left no mass) and the weights are rebuilt.
_MIN_TOTAL = np.finfo(np.float64).tiny * 2.0**60

#: The sampler's one prefix sum, for the draw and the nucleus cutoff alike.
#: It adds left to right, bit for bit as ``np.cumsum`` does, without the
#: Python-level dispatch of that wrapper.
_prefix_sum = np.add.accumulate

#: Relative slack of the settled-top test in :func:`_top_settles`, far above
#: the rounding of the power, the pairwise sum and the division.
_SETTLE_MARGIN = 1.0 + 1e-9

#: Relative slack of the probability threshold that gathers a superset of the
#: threshold head in :func:`_certified_nucleus`, far above the power's rounding.
_SUPERSET_SLACK = 1.0 - 1e-6

#: Float32 ratios ``r`` are clamped up to ``2 ** (-_CLAMP_EXP / a)``, so no
#: ``r ** a`` is subnormal (float32's smallest normal is ``2 ** -126``).
_CLAMP_EXP = 120.0

#: The certificate's margin is this multiple of the float32 total's error budget.
_MARGIN_FACTOR = 8.0


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
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature}")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")


def _sums(w: np.ndarray, cumulative: bool) -> np.ndarray:
    """Prefix sums of ``w`` if cumulative, else its total as a one-entry array."""
    return _prefix_sum(w) if cumulative else np.add.reduce(w, keepdims=True)


def _weights(
    probs: np.ndarray, power: float, banned: np.ndarray | None, cumulative: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``probs ** power`` with the banned ids zeroed, and its :func:`_sums`.

    Either way the last entry of the sums is the weights' total.  If the ban
    leaves no probability mass it is ignored, so the draw falls back to the
    unmasked weights.  If the power underflows, the weights are taken
    relative to the largest probability, which keeps their ratios.  A NaN
    total is rebuilt too, and the NaN largest probability is rejected.

    The last prefix sum and the pairwise ``sum`` differ only by rounding, so
    the test against ``_MIN_TOTAL`` could go either way between the two only
    for a total within rounding of ``_MIN_TOTAL`` (about 2.6e-290).
    """
    w = probs ** power if power != 1.0 else probs
    if banned is not None and banned.size:
        if w is probs:
            w = probs.copy()
        w[banned] = 0.0
    sums = _sums(w, cumulative)
    if sums[-1] >= _MIN_TOTAL:
        return w, sums
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
    return w, _sums(w, cumulative)


def _threshold_head(w: np.ndarray, top: int | None = None) -> np.ndarray | None:
    """Ids of the weights at or above ``_HEAD_RATIO`` of the largest (None if over ``_HEAD_CAP``).

    Every weight left out is strictly below every one taken, so the head,
    ranked, is an exact prefix of the stable ranking of ``w`` whatever the
    reference weight is.  A positive ``w[top]`` (the most probable id, whose
    tempered weight is the largest up to rounding) stands in for a pass
    over ``w`` to find the largest.
    """
    ref = w[top] if top is not None else 0.0
    if not ref > 0.0:
        ref = w.max()
    head = np.flatnonzero(w >= float(ref) * _HEAD_RATIO)
    return head if head.size <= _HEAD_CAP else None


def _cutoff(ranked_w: np.ndarray, total: float, top_p: float) -> int:
    """Index of the first ranked weight whose prefix share of ``total`` reaches top_p.

    ``_prefix_sum`` adds left to right, so the prefix sums of a ranked head
    equal those of a full stable sort, bit for bit.  ``ranked_w.size`` means
    the head falls short.
    """
    return int(_prefix_sum(ranked_w / total).searchsorted(top_p, side="left"))


def _nucleus(w: np.ndarray, total: float, top_p: float, top: int | None = None) -> np.ndarray:
    """Ids of the smallest stable-ranked prefix whose share of ``total`` reaches top_p.

    Tokens are ranked by weight (stable order on ties, so lower ids win); the
    token that crosses the threshold is kept.  The ranking never sorts the
    whole vocabulary: the :func:`_threshold_head` is ranked first.  If that
    head holds more than ``_HEAD_CAP`` entries or falls short of top_p, a
    partial selection finds the k-th largest weight; the head is every
    positive entry at or above it, so ties with the pivot all enter and the
    head is again an exact prefix.  While its share stays below ``top_p``
    the head grows fourfold.  ``top`` is passed on to the threshold head.
    """
    ranked = _threshold_head(w, top)
    if ranked is not None:
        ranked = ranked[np.argsort(-w[ranked], kind="stable")]
        cutoff = _cutoff(w[ranked], total, top_p)
        if cutoff < ranked.size:
            return ranked[: cutoff + 1]
    n = w.size
    k = min(_HEAD_START, n)
    while True:
        pivot = np.partition(w, n - k)[n - k]
        head = np.flatnonzero(w >= pivot) if pivot > 0.0 else np.flatnonzero(w > 0.0)
        head = head[np.argsort(-w[head], kind="stable")]
        cutoff = _cutoff(w[head], total, top_p)
        # a zero pivot means the head already holds every positive entry
        if cutoff < head.size or pivot <= 0.0 or k == n:
            return head[: cutoff + 1]
        k = min(4 * k, n)


def _top_settles(probs: np.ndarray, top: int, top_p: float, banned: np.ndarray | None) -> bool:
    """Whether the most probable id ``top``, tempered at ``0 < T <= 1``, alone holds top_p.

    Tempering with ``a = 1/T >= 1`` only sharpens: ``p_j ** a <= p_top **
    (a - 1) * p_j`` for every j, so an unbanned top token's share of the
    unbanned weights is at least ``p_top / sum(probs)``.  The share is held
    to at least 0.5 as well: every other probability is then below
    ``p_top`` by far more than rounding, so no lower id can temper to the
    top's weight and take its place in the stable ranking.  A largest
    probability below the bar cannot settle probabilities that sum to 1, so
    it is turned away before paying for the sum.
    """
    bar = max(top_p, 0.5)
    if not probs[top] >= bar:  # argmax stops at a NaN, which fails too
        return False
    if probs[top] < bar * float(probs.sum()) * _SETTLE_MARGIN:
        return False
    return banned is None or top not in banned


def _total_bounds(
    probs: np.ndarray, top: int, ref: float, power: float, banned: np.ndarray | None
) -> tuple[float, float]:
    """Bounds on the tempered total ``sum(probs ** power)`` (banned ids zeroed), from float32.

    ``ref`` is the top's float64 weight ``probs[top] ** power``; the total is
    ``ref * sum(r ** power)`` with ``r = probs / probs[top]``.  Each ratio is
    formed as ``fl32(fl32(p) * fl32(1 / p_top))``, clamped up to
    ``2 ** (-_CLAMP_EXP / a)`` and raised to ``fl32(a)``, ``a = power``; the
    banned ids are zeroed and the rest summed pairwise in float32.  The
    relative error budget, in float32 unit roundoffs ``u = 2 ** -24``:

    - the ratio's three roundings, raised to ``a``: ``4a u``;
    - the exponent rounded to float32: ``|a - fl32(a)| * |ln r| <= 120 ln 2 u``,
      under ``84 u``, since no ratio is left below the clamp;
    - the float32 power, at most 4 ulp: ``8 u``;
    - numpy's pairwise sum, blocks of at most 128 held in eight running
      sums and halved down from V: ``(ceil(log2 V) + 20) u``;
    - the float64 weights and their total, which the float32 sum stands
      for: ``2 ** -40``.

    The margin is ``_MARGIN_FACTOR`` times that budget, about ``6.5e-5``
    at ``T = 0.6`` and ``V = 151,936``; the largest error measured against
    the float64 total over 9,228 such steps of the benchmark's Zipf model
    was ``7.4e-8`` (about ``1.2 u``).  A clamped entry adds at most
    ``2 ** -119`` of the top's weight, so the lower bound also drops
    ``V * 2 ** -119 * ref``.  Entries below float32's normal range are
    clamped like any other, which holds while ``p_top * 2 ** (-_CLAMP_EXP /
    a) >= 2 ** -125``, and ``p_top <= 2 ** 64`` keeps the cast finite;
    :func:`_certified_nucleus` checks both.
    """
    r = probs.astype(np.float32)
    r *= np.float32(1.0 / float(probs[top]))
    np.maximum(r, np.float32(2.0 ** (-_CLAMP_EXP / power)), out=r)
    np.power(r, np.float32(power), out=r)
    if banned is not None and banned.size:
        r[banned] = 0.0
    total = float(np.add.reduce(r))
    budget = (4.0 * power + 112.0 + math.ceil(math.log2(probs.size))) * 2.0**-24 + 2.0**-40
    margin = _MARGIN_FACTOR * budget
    return ref * (total * (1.0 - margin) - probs.size * 2.0**-119), ref * total * (1.0 + margin)


def _certified_nucleus(
    probs: np.ndarray, power: float, top_p: float, banned: np.ndarray | None, top: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The full path's nucleus at ``power > 1`` (ids in id order, weights); None if not certified.

    ``top`` is the most probable id, not banned.  One compare pass gathers
    every id whose probability reaches ``p_top * _HEAD_RATIO ** (1 / a)``
    less a ``_SUPERSET_SLACK``: a superset of the :func:`_threshold_head`.  Over
    ``_HEAD_CAP`` of them, it gives up before any other pass over the
    vocabulary.  Their float64 weights ``p ** a`` are the full vector's, bit
    for bit, because numpy's power rounds each element alone, whatever its
    position or the array's length (``probs`` is contiguous, and tests pin
    this); filtered at ``_HEAD_RATIO`` of the top's weight they are exactly
    the threshold head.  :func:`_total_bounds` brackets the float64 total.
    Division and prefix sums round monotonically, so the :func:`_cutoff`
    can only grow with the total: when it is the same at both bounds, and
    inside the head, it is the full path's cutoff, and the kept ids and
    weights are the full path's.
    """
    p_top = float(probs[top])
    # a NaN top fails too
    if not (2.0**-125 <= p_top * 2.0 ** (-_CLAMP_EXP / power) and p_top <= 2.0**64):
        return None
    near_top = probs >= p_top * _HEAD_RATIO ** (1.0 / power) * _SUPERSET_SLACK
    if np.count_nonzero(near_top) > _HEAD_CAP:
        return None
    ids = np.flatnonzero(near_top)
    w = probs[ids] ** power
    if banned is not None and banned.size:
        w[ids.searchsorted(banned[near_top[banned]])] = 0.0
    ref = float(w[ids.searchsorted(top)])
    lo, hi = _total_bounds(probs, top, ref, power, banned)
    if not lo >= _MIN_TOTAL:
        return None
    in_head = w >= ref * _HEAD_RATIO
    ids, w = ids[in_head], w[in_head]
    order = np.argsort(-w, kind="stable")
    ranked_w = w[order]
    cutoff = _cutoff(ranked_w, lo, top_p)
    if cutoff >= order.size or cutoff != _cutoff(ranked_w, hi, top_p):
        return None
    keep = np.sort(order[: cutoff + 1])
    return ids[keep], w[keep]


def _draw(vals: np.ndarray, u: float, csum: np.ndarray | None = None) -> int:
    """Inverse CDF over ``vals`` in index order, given their prefix sums ``csum`` or not."""
    if csum is None:
        csum = _prefix_sum(vals)
    idx = int(csum.searchsorted(u * csum[-1], side="right"))
    if idx >= vals.size:  # u * total rounded up to the last prefix sum
        idx = int(np.flatnonzero(vals)[-1])
    return idx


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
    ids) zeroed; tokens are ranked by weight.  ``temperature = 0``
    degenerates to greedy argmax over the weights.  The nucleus is taken over
    the weights' share of their total, and the inverse CDF walks the kept ids
    in token-id order, so the selection is fully determined by ``u``.

    ``probs`` must be nonnegative; they need not sum to 1.  At ``0 < T <= 1``
    and ``top_p < 1``, a top token that alone holds top_p of the tempered
    mass (:func:`_top_settles`) is returned without tempering the vocabulary.
    Otherwise, at ``T < 1`` and with the top not banned,
    :func:`_certified_nucleus` tempers only the threshold head and certifies
    the cutoff from a float32 total; it gives way to the full path when the
    head is over ``_HEAD_CAP``, the total is too small, the head falls short
    of top_p, or a bound of the total would move the cutoff.  On the full
    path the top's id spares the threshold head a pass for the largest
    weight.  At ``top_p = 1`` and ``T > 0`` the draw's prefix sums over the
    whole vocabulary are the only total it takes.

    ``probs`` is made contiguous first, so a strided view draws as its
    contiguous copy, and the head's gathered weights are the full vector's
    bits whenever numpy's float64 power is elementwise on contiguous arrays
    (a test pins this for gathers of 1 to 64 ids and larger).
    """
    _check_draw(temperature, u)
    _check_top_p(top_p)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    top = kept = None
    if top_p < 1.0 and 0.0 < temperature <= 1.0:
        top = int(np.argmax(probs))
        if _top_settles(probs, top, top_p, banned):
            return top
        if temperature < 1.0 and (banned is None or top not in banned):
            kept = _certified_nucleus(probs, 1.0 / temperature, top_p, banned, top)
    if kept is None:
        power = 1.0 if temperature in (0.0, 1.0) else 1.0 / temperature
        cumulative = top_p == 1.0 and temperature > 0.0
        w, sums = _weights(probs, power, banned, cumulative)
        if temperature == 0.0:
            return int(np.argmax(w))
        if cumulative:
            return _draw(w, u, sums)
        keep = np.sort(_nucleus(w, float(sums[-1]), top_p, top))
        kept = keep, w[keep]
    keep, weights = kept
    return int(keep[_draw(weights, u)])


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
