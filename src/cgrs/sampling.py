"""Seedable temperature / top-p sampling straight from probabilities.

The sampler is a pure function of (probs, temperature, top_p, u, banned)
where u is a uniform variate supplied by the caller; all run-level randomness
therefore lives in the counter-based streams of :mod:`cgrs.rng`.

:func:`sample_from_probs` is the one sampling core.  :func:`nucleus_filter`
and :func:`sample_from_logits` are thin adapters over its helpers.

Every nucleus that a settled top (:func:`_top_settles`) does not answer
starts from one threshold head (:func:`_head`): one compare pass gathers
the ids whose weight reaches ``2 ** -10`` of the most probable id left's
(up to float32 rounding when the top is banned).  The head is an exact
prefix of the stable ranking by weight, so :func:`_rank` sorts it alone and
reads the cutoff off its prefix sums, against one of two totals.  Top-p is
defined on the tempered total, but the cutoff only needs that total well
enough to fix one index.  So an unsettled step at ``0 < T < 1`` tempers
only the head in float64 and brackets the total with one float32 pass,
``exp2(a * log2 r)`` over the ratios ``r`` to the most probable id left
(:func:`_certified_nucleus`, :func:`_total_bounds`).  Zero and subnormal
ratios go through ``log2`` and ``exp2`` as they are: every weight below
``2 ** -_TAIL_EXP`` of the reference's enters the bracket as an absolute
error.  The bracket's half width is 8 times a stated error budget, about
``9.2e-5`` of the total at ``T = 0.6`` over 151,936 ids.  The budget takes
numpy's own float32 tolerances for ``log2`` and ``exp2``, which a test
measures.  When the cutoff is the same at both ends it is the full path's,
and the draw picks the same id.  Otherwise, and at any other ``T > 0`` and
in :func:`nucleus_filter`, the full path gathers the head from the whole
tempered vector and ranks it against its exact total
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
#: the rounding of the power, the pairwise sum and the division.
_SETTLE_MARGIN = 1.0 + 1e-9

#: Relative slack of the probability threshold that gathers a superset of the
#: threshold head in :func:`_head`, far above the power's rounding.
_SUPERSET_SLACK = 1.0 - 1e-6

#: A tempered ratio ``r ** a`` below ``2 ** -_TAIL_EXP`` enters the float32
#: total's bounds as an absolute error, not a relative one; float32's
#: smallest normal is ``2 ** -126``.
_TAIL_EXP = 120.0

#: Largest errors, in float32 ulp, of numpy's float32 ``log2`` and ``exp2``
#: that the float32 total's error budget allows: the ``ulperror`` tolerances
#: of numpy's own validation sets for the two functions.
_LOG2_ULP = 3
_EXP2_ULP = 2

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


def _head(
    probs: np.ndarray, power: float, p_ref: float, banned: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The threshold head of ``probs ** power`` (ids in id order, weights); None if over ``_HEAD_CAP``.

    The head is every id whose weight reaches ``_HEAD_RATIO`` of ``p_ref **
    power``, the weight of a reference id that is not banned: the most
    probable id left, or one within float32 rounding of it (the ``banned``
    ids weigh 0).  Every weight left out is strictly below every one taken,
    whatever the reference, so the head is an exact prefix of the stable
    ranking.  One compare pass on ``probs`` gathers every id at or above
    ``p_ref * _HEAD_RATIO ** (1 / power)`` less a ``_SUPERSET_SLACK``, a
    superset of the head; over ``_HEAD_CAP`` of them it gives up before any
    power.  Their weights ``probs[ids] ** power`` are the full vector's, bit
    for bit, because numpy's power rounds each element alone, whatever its
    position or the array's length (``probs`` is contiguous, and tests pin
    this); with the banned ids zeroed and filtered at ``_HEAD_RATIO`` of the
    reference weight they are exactly the head.  The full path passes its
    tempered weights at ``power = 1`` and no ban: the gather is then itself a
    threshold on the weights, an exact prefix as it is.  An empty gather (a
    NaN reference) gives up too.
    """
    near = probs >= p_ref * _HEAD_RATIO ** (1.0 / power) * _SUPERSET_SLACK
    ids = np.flatnonzero(near)
    if not 0 < ids.size <= _HEAD_CAP:
        return None
    if power == 1.0 and banned is None:  # the gather is itself a threshold on the weights
        return ids, probs[ids]
    w = probs[ids] ** power
    if banned is not None and banned.size:
        w[ids.searchsorted(banned[near[banned]])] = 0.0
    in_head = w >= p_ref**power * _HEAD_RATIO
    return ids[in_head], w[in_head]


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

    The :func:`_head` is gathered from ``w`` itself, so an unmasked or
    max-relative rebuild by :func:`_weights` stays on its total's scale.  It
    is measured against ``top``, the most probable id, or, when its weight
    is 0 (banned), the largest weight; the top spares a pass for the
    largest.  A head over ``_HEAD_CAP`` or short of top_p goes to the
    partial selection of :func:`_nucleus`.
    """
    ref = w[top]
    head = _head(w, 1.0, ref if ref > 0.0 else w.max(), None)
    keep = None if head is None else _rank(head[1], top_p, total)
    if keep is None:
        keep = _nucleus(w, total, top_p)
        return keep, w[keep]
    return head[0][keep], head[1][keep]


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


def _masked_f32(probs: np.ndarray, banned: np.ndarray | None) -> np.ndarray:
    """``probs`` cast to float32, with the ``banned`` ids zeroed."""
    r = probs.astype(np.float32)
    if banned is not None and banned.size:
        r[banned] = 0.0
    return r


def _total_bounds(r: np.ndarray, p_ref: float, ref: float, power: float) -> tuple[float, float]:
    """Bounds on the tempered total ``sum(probs ** power)`` (banned ids zeroed), from float32.

    ``r`` is :func:`_masked_f32` of the probabilities, and is overwritten.
    ``p_ref`` is the probability of an id not banned and ``ref`` its float64
    weight ``p_ref ** power``; the total is ``ref * sum(rho ** a)`` with
    ``rho = probs / p_ref`` and ``a = power``.  Each ratio is ``fl32(fl32(p)
    * fl32(1 / p_ref))``, raised to ``a`` as ``exp2(fl32(a) * log2(r))``,
    and the results are summed pairwise in float32.  A zero ratio (an exact
    zero, a ban, an underflow) gives ``log2 = -inf`` and ``exp2 = 0``, and a
    subnormal one goes through as it is.  The relative error budget, in
    float32 unit roundoffs ``u = 2 ** -24``, holds for every entry whose
    weight ``rho ** a`` is at least ``2 ** -_TAIL_EXP`` of the reference's
    (``E = _TAIL_EXP``):

    - the ratio's three roundings, raised to ``a``: ``4a u``;
    - ``exp2``, at most ``_EXP2_ULP`` ulp: ``2 * _EXP2_ULP u``;
    - the exponent ``y = a * log2(r)``: ``log2`` at most ``_LOG2_ULP`` ulp,
      ``fl32(a)`` and the product one rounding each, so ``|dy| <= (2 *
      _LOG2_ULP + 2) u |y|``, which scales the result by ``2 ** dy``, at most
      ``ln 2 * 8 u * |y|``.  Such an entry has ``|y| <= E``, which gives
      ``665 u`` in the worst case, so the ratios are split at ``|y| = Y0 =
      ceil(log2 V) + 6``: an entry above ``2 ** -Y0`` of the reference's
      weight is off by at most ``ln 2 * 8 u * Y0``, and the rest, at most
      ``V * 2 ** -Y0 <= 2 ** -6`` of a total of at least 1 (the reference's
      ratio is 1), add at most ``2 ** -6 * ln 2 * 8 u * E``;
    - numpy's pairwise sum, blocks of at most 128 held in eight running
      sums and halved down from V: ``(ceil(log2 V) + 20) u``;
    - the float64 weights and their total, which the float32 sum stands
      for: ``2 ** -40``.

    ``_LOG2_ULP`` and ``_EXP2_ULP`` are the ``ulperror`` tolerances of numpy's
    own float32 validation sets (``umath-validation-set-log2.csv`` and
    ``-exp2.csv``); a test measures both functions against float64 over the
    ratios, subnormal ones included, and the exponents down to where
    ``exp2`` underflows.  The margin is ``_MARGIN_FACTOR`` times the budget,
    about ``9.2e-5`` at ``T = 0.6`` and ``V = 151,936``.

    Every other entry, banned ones included, weighs below ``2 ** -E`` of the
    reference's in float64, and its float32 result is below ``2 ** -119``:
    the cast and the product round monotonically, so its ratio is 0 or at
    most that of a probability ``p_ref * 2 ** (-E / a)``, and ``log2`` and
    ``exp2``, inside their tolerances, take such a ratio to within a few
    ulp of ``2 ** -E``, or to 0.  Each such entry is off by at most ``2 **
    -119`` of the reference's weight either way, so both bounds move by ``V
    * 2 ** -119 * ref``.  An entry whose probability is
    below float32's normal range is one of these while ``p_ref * 2 ** (-E /
    a) >= 2 ** -125``, and a largest probability up to ``2 ** 64`` keeps the
    cast finite; :func:`_certified_nucleus` checks both.
    """
    with np.errstate(divide="ignore", under="ignore"):
        r *= np.float32(1.0 / float(p_ref))
        np.log2(r, out=r)
        r *= np.float32(power)
        np.exp2(r, out=r)
    total = float(np.add.reduce(r))
    log_v = math.ceil(math.log2(r.size))
    exponent = math.log(2.0) * (2 * _LOG2_ULP + 2) * (log_v + 6 + _TAIL_EXP / 64)
    budget = (4.0 * power + 2 * _EXP2_ULP + exponent + log_v + 20) * 2.0**-24 + 2.0**-40
    margin = _MARGIN_FACTOR * budget
    tail = r.size * 2.0**-119
    return ref * (total * (1.0 - margin) - tail), ref * (total * (1.0 + margin) + tail)


def _certified_nucleus(
    probs: np.ndarray, power: float, top_p: float, banned: np.ndarray | None, top: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The full path's nucleus at ``power > 1`` (ids in id order, weights); None if not certified.

    ``top`` is the most probable id.  When it is banned, the reference is
    the argmax of the float32 cast with the bans zeroed, which the float32
    pass reuses: an id not banned whose probability is within float32
    rounding of the largest left.  The full path measures its head against
    the largest weight left instead, but every :func:`_head` is an exact
    prefix of the ranking whatever its reference, so the cutoff found in
    either is the same.  Only the head is tempered in float64, and
    :func:`_total_bounds` brackets the float64 total from the reference's
    weight.  Division and prefix sums round monotonically, so the
    :func:`_cutoff` can only grow with the total: when :func:`_rank` finds
    it the same at both bounds, and inside the head, it is the full path's
    cutoff, and the kept ids and weights are the full path's.  A ban that
    leaves no mass in float32 is left to the full path, and so is a top
    whose weight ``p_top ** power``, times V, could overflow float64: it
    bounds every weight in the head and the total.
    """
    p_top = probs[top]
    if not p_top <= 2.0**64:  # a NaN top fails too
        return None
    if p_top > 1.0 and power * math.log2(p_top) + math.log2(probs.size) >= 1023.0:
        return None
    p_ref, r = p_top, None
    if banned is not None and top in banned:
        r = _masked_f32(probs, banned)
        ref_id = int(np.argmax(r))
        if not r[ref_id] > 0.0:  # no mass left, or a NaN
            return None
        p_ref = probs[ref_id]
    if not 2.0**-125 <= p_ref * 2.0 ** (-_TAIL_EXP / power):
        return None
    head = _head(probs, power, p_ref, banned)
    if head is None:
        return None
    ids, w = head
    if r is None:
        r = _masked_f32(probs, banned)
    lo, hi = _total_bounds(r, p_ref, p_ref**power, power)
    keep = _rank(w, top_p, lo, hi) if lo >= _MIN_TOTAL else None
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
    threshold head and ranks it against a float32 bracket of the total,
    measured, when the top is banned, against the id left that the float32
    cast ranks first; it gives way to the full path when the head is over
    ``_HEAD_CAP``, the total is too small, the ban leaves no mass, the head
    falls short of top_p, or a bound of the total would move the cutoff.
    The full path, also taken at ``T >= 1``, tempers the whole vocabulary
    and ranks the same head, gathered from the tempered vector, against the
    exact total (:func:`_exact_nucleus`); the top's id spares it a pass for
    the largest weight.  At ``top_p = 1`` and ``T > 0`` the draw's prefix sums over the
    whole vocabulary are the only total it takes.

    ``probs`` is made contiguous first, so a strided view draws as its
    contiguous copy, and the head's gathered weights are the full vector's
    bits whenever numpy's float64 power is elementwise on contiguous arrays
    (a test pins this for gathers of 1 to 64 ids and larger).
    """
    _check_draw(temperature, u)
    check_top_p(top_p)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    power = 1.0 if temperature in (0.0, 1.0) else 1.0 / temperature
    if top_p == 1.0 or temperature == 0.0:
        w, sums = _weights(probs, power, banned, temperature > 0.0)
        return _draw(w, u, sums) if temperature > 0.0 else int(np.argmax(w))
    top = int(np.argmax(probs))
    if temperature <= 1.0 and _top_settles(probs, top, top_p, banned):
        return top
    kept = _certified_nucleus(probs, power, top_p, banned, top) if temperature < 1.0 else None
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
