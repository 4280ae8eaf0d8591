"""Seedable temperature / top-p sampling straight from probabilities.

The sampler is a pure function of (probs, temperature, top_p, u, banned)
where u is a uniform variate supplied by the caller; all run-level randomness
therefore lives in the counter-based streams of :mod:`cgrs.rng`.

:func:`sample_from_probs` is the one sampling core.  :func:`nucleus_filter`
and :func:`sample_from_logits` are thin adapters over its helpers.

Every nucleus that a settled top (:func:`_top_settles`) does not answer
starts from one threshold head: one compare pass (:func:`_head`) gathers
the ids whose weight reaches ``2 ** -10`` of the most probable id left's.
The head is an exact prefix of the stable ranking by weight, so
:func:`_rank` sorts it alone and reads the cutoff off its prefix sums,
against one of two totals.  Top-p is defined on the tempered total, but the
cutoff only needs that total well enough to fix one index.  So an unsettled
step at ``0 < T < 1`` tempers only a band of the vocabulary
(:func:`_certified_nucleus`): one float64 compare pass gathers the ids
whose weight reaches ``2 ** -20`` of the reference's, the band is tempered
and the head taken from it.  The tempered mass of the tail below the band
is bracketed from its first two moments (:func:`_moment_bounds`),
``sum(p)`` from the kept total and ``sum(p ** 2)`` from one dot product,
by Hölder's inequality for ``T > 1/2`` and Lyapunov's for ``T <= 1/2``.
The bracket's float64 slack covers the total's and the dot's rounding, the
full path's own rounding of its total, and squares and weights that
underflowed.  When the cutoff is the same at both ends it is the full
path's, and the draw picks the same id.  Otherwise, and at any other
``T > 0`` and in :func:`nucleus_filter`, the full path gathers the head
from the whole tempered vector and ranks it against its exact total
(:func:`_exact_nucleus`).  A head over ``_HEAD_CAP`` ids or short of top_p
goes to the partial-selection loop (:func:`_nucleus`), the only fallback.
"""

from __future__ import annotations

import math

import numpy as np

#: Logit floor substituted for zero-probability entries when converting a
#: probability vector to logits; exp() of it underflows to exactly 0.
LOG_ZERO = -1e30

#: Head size of the first partial selection in :func:`_nucleus`.
_HEAD_START = 64

#: The threshold head holds every weight at or above this share of the
#: weight of the most probable id left.
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
#: the rounding of the power, the sum and the division.
_SETTLE_MARGIN = 1.0 + 1e-9

#: The band that :func:`_certified_nucleus` tempers holds every id whose
#: weight reaches this share of the reference's weight; the weight below it
#: is bracketed from its first two moments.
_BAND_RATIO = 2.0**-20

#: Length of the rows in which :func:`_square_sum` hands the vocabulary to
#: BLAS.  OpenBLAS runs a dot product of more than 10,000 entries on its
#: thread pool, whose workers then spin between steps and cost more than the
#: product saves.
_DOT_ROW = 8192

#: Largest ``1/T`` that :func:`_certified_nucleus` takes.  Up to it the band's
#: bar ``2 ** (-20 T)`` stays far below the head's after rounding, and the
#: rounding of :func:`_moment_bounds`'s Lyapunov power stays inside its slack.
_MAX_POWER = 2.0**20


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


def check_temperature(temperature: float) -> None:
    """The one temperature rule: finite and nonnegative (0 is greedy)."""
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and nonnegative, got {temperature}")


def check_top_p(top_p: float) -> None:
    """The one top-p rule: it lies in (0, 1]."""
    if not 0.0 < top_p <= 1.0:
        raise ValueError(f"top_p must lie in (0, 1], got {top_p}")


def _check_draw(temperature: float, u: float) -> None:
    check_temperature(temperature)
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
    unmasked weights.  If the power underflows, or overflows (probabilities
    above 1, which numpy warns of), the weights are taken relative to the
    largest probability, which keeps their ratios.  A NaN total is rebuilt
    too, and the NaN largest probability is rejected.

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
    if _MIN_TOTAL <= sums[-1] < math.inf:
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


def _cutoff(ranked_w: np.ndarray, total: float, top_p: float) -> int:
    """Index of the first ranked weight whose prefix share of ``total`` reaches top_p.

    ``_prefix_sum`` adds left to right, so the prefix sums of a ranked head
    equal those of a full stable sort, bit for bit.  ``ranked_w.size`` means
    the head falls short.
    """
    return int(_prefix_sum(ranked_w / total).searchsorted(top_p, side="left"))


def _rank(w: np.ndarray, top_p: float, lo: float, hi: float | None = None) -> np.ndarray | None:
    """Positions, in order, of the stable-ranked prefix of ``w`` whose share of ``lo`` reaches top_p.

    Tokens are ranked by weight, stable on ties so lower positions win, and
    the token that crosses the threshold is kept.  ``w`` must be an exact
    prefix of the ranking: every weight left out of it is below every weight
    in it.  None if ``w`` falls short of top_p, or if the total ``hi`` would
    cut at another index.
    """
    order = np.argsort(-w, kind="stable")
    ranked = w[order]
    cutoff = _cutoff(ranked, lo, top_p)
    if cutoff >= order.size or (hi is not None and cutoff != _cutoff(ranked, hi, top_p)):
        return None
    return np.sort(order[: cutoff + 1])


def _head(v: np.ndarray, bar: float, banned: np.ndarray | None = None) -> np.ndarray | None:
    """Ids, in id order, of the entries of ``v`` at or above ``bar`` and not banned; None if over ``_HEAD_CAP``.

    One compare pass over ``v``; the count gives up over the cap before any
    id is listed.  Every entry left out is below ``bar`` or banned, so on
    weights the gather is an exact prefix of the stable ranking.  A NaN bar
    gathers nothing.
    """
    mask = v >= bar
    if banned is not None and banned.size:
        mask[banned] = False
    if np.count_nonzero(mask) > _HEAD_CAP:
        return None
    return np.flatnonzero(mask)


def _nucleus(w: np.ndarray, total: float, top_p: float) -> np.ndarray:
    """Ids, in id order, of the smallest stable-ranked prefix whose share of ``total`` reaches top_p.

    A partial selection finds the k-th largest weight; the head is every
    positive entry at or above it, so ties with the pivot all enter and the
    head is an exact prefix of the ranking.  While its share stays below
    ``top_p`` the head grows fourfold, from ``_HEAD_START``.
    """
    n = w.size
    k = min(_HEAD_START, n)
    while True:
        pivot = np.partition(w, n - k)[n - k]
        head = np.flatnonzero(w >= pivot) if pivot > 0.0 else np.flatnonzero(w > 0.0)
        keep = _rank(w[head], top_p, total)
        # a zero pivot means the head already holds every positive entry
        if keep is not None or pivot <= 0.0 or k == n:
            return head if keep is None else head[keep]
        k = min(4 * k, n)


def _exact_nucleus(
    w: np.ndarray, total: float, top_p: float, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nucleus of the weights ``w`` and their exact ``total`` (ids in id order, weights).

    The threshold head is gathered from ``w`` itself, at ``_HEAD_RATIO`` of
    the reference weight, so an unmasked or max-relative rebuild by
    :func:`_weights` stays on its total's scale.  The reference is ``top``,
    the most probable id, or, when its weight is 0 (banned), the largest
    weight; the top spares a pass for the largest.  A head over
    ``_HEAD_CAP`` or short of top_p goes to the partial selection of
    :func:`_nucleus`.
    """
    ref = w[top]
    ids = _head(w, (ref if ref > 0.0 else w.max()) * _HEAD_RATIO)
    keep = None if ids is None else _rank(w[ids], top_p, total)
    keep = _nucleus(w, total, top_p) if keep is None else ids[keep]
    return keep, w[keep]


def _top_settles(
    probs: np.ndarray, top: int, top_p: float, banned: np.ndarray | None, total: float | None
) -> bool:
    """Whether the most probable id ``top``, tempered at ``0 < T <= 1``, alone holds top_p.

    Tempering with ``a = 1/T >= 1`` only sharpens: ``p_j ** a <= p_top **
    (a - 1) * p_j`` for every j, so an unbanned top token's share of the
    unbanned weights is at least ``p_top / sum(probs)``.  The share is held
    to at least 0.5 as well: every other probability is then below
    ``p_top`` by far more than rounding, so no lower id can temper to the
    top's weight and take its place in the stable ranking.  A largest
    probability below the bar cannot settle probabilities that sum to 1, so
    it is turned away before paying for the sum.

    ``total`` is the sum of ``probs`` if the caller has it, else ``einsum``
    takes it here, as :class:`~cgrs.certainty.TokenDistribution` and
    :func:`_certified_nucleus` do.
    """
    bar = max(top_p, 0.5)
    if not probs[top] >= bar:  # argmax stops at a NaN, which fails too
        return False
    if total is None:
        total = float(np.einsum("i->", probs))
    if probs[top] < bar * total * _SETTLE_MARGIN:
        return False
    return banned is None or top not in banned


def _square_sum(v: np.ndarray) -> float:
    """``v . v`` of a contiguous vector, as BLAS dot products of at most ``_DOT_ROW`` entries."""
    cut = v.size - v.size % _DOT_ROW
    rows = v[:cut].reshape(-1, 1, _DOT_ROW)
    rest = v[cut:]
    return float(np.add.reduce((rows @ rows.transpose(0, 2, 1)).ravel())) + float(rest @ rest)


def _moment_bounds(
    p: np.ndarray, w: np.ndarray, probs: np.ndarray, b: float, power: float,
    banned: np.ndarray | None, total: float,
) -> tuple[float, float]:
    """Bounds on the full path's float64 total of ``probs ** power``, the ``banned`` ids zeroed.

    ``p`` holds the probabilities of the band, every id not banned with
    ``p >= b``, and ``w`` their weights ``p ** power``; ``banned`` holds
    distinct ids and ``total`` is the sum of ``probs``.  The tail, the ids
    not banned below ``b``, has tempered mass ``S_a = sum(p ** a)`` with ``a
    = power``, bracketed from ``S1 = total - sum(p)`` and ``S2 = probs .
    probs - sum(p ** 2)``, the sums taken over the band and the banned ids.
    Every tail ``p`` is below ``b``, so for ``1 < a < 2`` (Hölder) ``S2 * b
    ** (a - 2) <= S_a <= min(S1 ** (2 - a) * S2 ** (a - 1), b ** (a - 1) *
    S1)``, and for ``a >= 2`` (Lyapunov) ``S2 ** (a - 1) / S1 ** (a - 2) <=
    S_a <= b ** (a - 2) * S2``; the Lyapunov lower bound is taken as ``S2 *
    (S2 / S1) ** (a - 2)``, whose ratio is at most ``b`` and cannot
    underflow to a zero divisor.

    With ``n = probs.size`` and ``u = 2 ** -53``, the slack ``eps = (n + 4) *
    2 ** -51`` covers, on ``S1`` and ``S2``, the total's error of at most ``n
    u`` of its sum (``einsum``'s, or any order's), the dot's ``gamma_n``, the
    band's and the bans' sums and the subtractions, each at most ``n u``;
    and, relative on both bounds, the full path's own total, within ``n u``
    of the exact sum of its weights (power and additions), the band's sum,
    and the rounding of the bounds' powers (the ratio's, raised to ``a - 2
    <= _MAX_POWER``, errs at most ``a u`` on a tail below ``n * 2 ** -20`` of
    the band).  Squares and weights that underflowed err by at most ``2 **
    -1074`` each, an absolute ``n * 2 ** -1073`` on ``S2`` and on both bounds.
    """
    n = probs.size
    dot = _square_sum(probs)
    out = p if banned is None else np.concatenate([p, probs[banned]])
    s1, s2 = total - float(np.add.reduce(out)), dot - float(out @ out)
    eps = (n + 4) * 2.0**-51
    tiny = n * 2.0**-1073
    s1 = max(s1 + eps * total, 0.0)
    s2_lo, s2 = s2 - eps * dot - tiny, max(s2 + eps * dot + tiny, 0.0)
    if power < 2.0:  # Hölder
        tail_lo = s2_lo * b ** (power - 2.0) if s2_lo > 0.0 else 0.0
        tail_hi = min(s1 ** (2.0 - power) * s2 ** (power - 1.0), b ** (power - 1.0) * s1)
    else:  # Lyapunov
        tail_lo = s2_lo * (s2_lo / s1) ** (power - 2.0) if s2_lo > 0.0 else 0.0
        tail_hi = b ** (power - 2.0) * s2
    band = float(np.add.reduce(w))
    return (band + tail_lo) * (1.0 - eps) - tiny, (band + tail_hi) * (1.0 + eps) + tiny


def _certified_nucleus(
    probs: np.ndarray, power: float, top_p: float, banned: np.ndarray | None, top: int,
    total: float | None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The full path's nucleus at ``power > 1`` (ids in id order, weights); None if not certified.

    ``top`` is the most probable id and ``total`` the sum of ``probs``
    (``einsum`` takes it here when the caller has none).  The reference
    ``p_ref`` is the top's probability or, when the top is banned, that of
    the most probable id left, found in a first :func:`_head` gather at the
    top's bar: every id outside it lies below what it holds.  With ``a =
    power``, one compare pass gathers the band, the ids not banned with
    ``p >= b = p_ref * _BAND_RATIO ** (1 / a)``; only the band is tempered,
    and its weights are the full vector's bits.  The ranked head is the
    band's ids whose weight reaches ``_HEAD_RATIO`` of the reference's; the
    band holds every such id, so the head is an exact prefix of the
    ranking, as the full path's is.  :func:`_moment_bounds` brackets the
    total.

    Division and prefix sums round monotonically, so the :func:`_cutoff`
    can only grow with the total: when :func:`_rank` finds it the same at
    both bounds, and inside the head, it is the full path's cutoff, and the
    kept ids and weights are the full path's.  The reference's weight must
    reach ``_MIN_TOTAL``: the full path's total, a sum of nonnegative
    weights, is at least that weight, so it is taken as is, and ``b`` is a
    normal float.  ``power`` must not exceed ``_MAX_POWER``, and a top whose
    weight ``p_top ** a``, or square, times V could overflow float64 is
    left to the full path: it bounds every weight, square and sum here.  So
    is a gather over ``_HEAD_CAP``, a banned top with no id left within its
    bar, and a bracket that is not finite (a NaN in ``probs``).
    """
    p_top = probs[top]
    if not (p_top > 0.0 and power <= _MAX_POWER):  # a NaN top fails too
        return None
    if p_top > 1.0 and max(power, 2.0) * math.log2(p_top) + math.log2(probs.size) >= 1023.0:
        return None
    share = _BAND_RATIO ** (1.0 / power)
    banned = np.unique(banned) if banned is not None and banned.size else None
    p_ref = p_top
    if banned is not None and top in banned:
        ids = _head(probs, p_top * share, banned)
        if ids is None or not ids.size:
            return None
        p_ref = probs[ids].max()
    ref = p_ref**power
    if not ref >= _MIN_TOTAL:
        return None
    b = float(p_ref * share)
    ids = _head(probs, b, banned)
    if ids is None:
        return None
    p = probs[ids]
    w = p**power
    if total is None:
        total = np.einsum("i->", probs)
    lo, hi = _moment_bounds(p, w, probs, b, power, banned, float(total))
    in_head = w >= ref * _HEAD_RATIO
    ids, w = ids[in_head], w[in_head]
    keep = _rank(w, top_p, lo, hi) if hi < math.inf else None
    return None if keep is None else (ids[keep], w[keep])


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

    ``probs`` must sum to 1: the shares are taken of a total of 1.  Tokens
    are ranked as in :func:`_rank`, and the nucleus is found as on the
    sampler's full path (:func:`_exact_nucleus`).  Returns a renormalized
    vector.
    """
    check_top_p(top_p)
    if top_p == 1.0:
        return probs
    keep, kept = _exact_nucleus(probs, 1.0, top_p, int(np.argmax(probs)))
    out = np.zeros_like(probs)
    out[keep] = kept
    return out / out.sum()


def sample_from_probs(
    probs: np.ndarray,
    temperature: float,
    top_p: float,
    u: float,
    banned: np.ndarray | None = None,
    total: float | None = None,
    top: int | None = None,
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
    Otherwise, at ``T < 1``, :func:`_certified_nucleus` tempers only the
    band of ids within ``2 ** -20`` of the reference's weight, found by one
    float64 compare pass, ranks the head taken from it against a bracket of
    the total built from the tail's first two moments, and measures, when
    the top is banned, against the most probable id left; it gives way to
    the full path when the band is over ``_HEAD_CAP``, the total is too
    small, no id left lies within a banned top's bar, a power could
    overflow, the head falls short of top_p, or a bound of the total would
    move the cutoff.  The full
    path, also taken at ``T >= 1``, tempers the whole vocabulary and ranks
    the same head, gathered from the tempered vector, against the exact
    total (:func:`_exact_nucleus`); the top's id spares it a pass for the
    largest weight.  At ``top_p = 1`` and ``T > 0`` the draw's prefix sums
    over the whole vocabulary are the only total it takes.

    ``total`` and ``top``, the sum of ``probs`` and the first id of its
    largest entry, spare the draw passes over the vocabulary when the
    caller has them, as a :class:`~cgrs.certainty.TokenDistribution` does;
    numpy's argmax would also copy its read-only ``probs`` first.  A greedy
    draw returns ``top`` when no ban holds it; ``top_p = 1`` draws at ``T >
    0`` do not read them.

    ``probs`` is made contiguous first, so a strided view draws as its
    contiguous copy, and the head's gathered weights are the full vector's
    bits whenever numpy's float64 power is elementwise on contiguous arrays
    (a test pins this for gathers of 1 to 64 ids and larger).
    """
    _check_draw(temperature, u)
    check_top_p(top_p)
    if temperature == 0.0 and top is not None and (banned is None or top not in banned):
        return top
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    power = 1.0 if temperature in (0.0, 1.0) else 1.0 / temperature
    if top_p == 1.0 or temperature == 0.0:
        w, sums = _weights(probs, power, banned, temperature > 0.0)
        return _draw(w, u, sums) if temperature > 0.0 else int(np.argmax(w))
    if top is None:
        top = int(np.argmax(probs))
    if temperature <= 1.0 and _top_settles(probs, top, top_p, banned, total):
        return top
    kept = _certified_nucleus(probs, power, top_p, banned, top, total) if temperature < 1.0 else None
    if kept is None:
        w, sums = _weights(probs, power, banned)
        kept = _exact_nucleus(w, float(sums[-1]), top_p, top)
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
    check_top_p(top_p)
    if temperature == 0.0:
        return int(np.argmax(logits))
    return sample_from_probs(softmax(logits / temperature), 1.0, top_p, u)
