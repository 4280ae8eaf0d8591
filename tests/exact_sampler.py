"""The sampler's rule, stated once, in float64 and at 50 digits.

:func:`cgrs.sampling.sample_from_probs` keeps the nucleus of Holtzman et
al. (arXiv 1904.09751) of the tempered weights and draws from it by
inverse CDF.  This module is the one home of that rule, in two arithmetics:

- **The float64 rule** (:func:`tempered_argsort_nucleus` and
  :func:`tempered_argsort_draw`) is the rule as the engine computes it: the
  weights ``probs ** (1/T)``, a full stable argsort, the cumulative shares
  of the weights' pairwise total and one ``searchsorted``.  The engine must
  pick the same id for every ``u`` wherever the weights' total lies in
  ``[_MIN_TOTAL, inf)``; outside that range the engine rebuilds the weights
  relative to the largest probability, and only the 50-digit rule holds.
- **The 50-digit rule** (:func:`exact_weights`, :func:`exact_nucleus` and
  :func:`exact_draw`) states what the draw means, in stdlib ``decimal``
  arithmetic.  numpy only groups and orders the ids; every weight, sum and
  comparison is a ``Decimal``.  A float64 draw can be held to its id only
  away from the rule's boundaries, so it names the ids allowed near them.

Both rules read alike:

- the weights are ``exp(ln p / T)`` (``p ** (1/T)`` in float64) for every
  id not banned, with ``T`` the exact binary value of the float; a banned
  id weighs 0.  A ban that leaves no positive probability is ignored, as
  the engine ignores it;
- ids are ranked by weight, stable on ties so the lower id comes first;
- the nucleus is the shortest ranked prefix whose weight reaches ``top_p``
  of the total (every positive weight at ``top_p = 1``);
- the draw walks the kept ids in id order and returns the first whose
  prefix weight exceeds ``u`` times the kept total.

:func:`exact_draw` reports when ``u`` times the kept total, or ``top_p``
times the total, lies within ``BAND`` of the total (or kept total) from a
prefix weight, or when the last kept and the first dropped weights lie
within ``BAND`` of each other (float64 rounding may rank them either way).
The engine's errors are far smaller: ``fl(1/T)`` and the float64 power err
by at most about ``745 * 2 ** -52`` relative on any weight that is not
negligible next to the total (a ratio ``r`` with ``|ln r| / T`` above 745
underflows), about ``2e-13``, and 256 float64 additions by at most ``256 *
2 ** -53``, about ``3e-14``.  A total that is bracketed (from two moments)
is certified, and the settled top has a ``1e-9`` margin; so ``BAND =
1e-9`` leaves three orders of magnitude of room.

:func:`hard_cases` is a seeded generator of vectors at ``V <= 256`` that
reach the sampler's edges: exact ties and zeros, subnormals, totals from
1e-300 to 1e300, one dominant id, near-uniform vectors (some with entries
a few ulp apart), runs of adjacent doubles, random bans (a banned top among them, and bans that leave no
mass), ``T`` from 0.01 to 2 and ``top_p`` from 1e-6 to 1.  At a full
vocabulary size, :func:`exact_head` computes the head at 50 digits and
sums the rest of the mass in chunks, for :func:`exact_draw`'s ``rest``.
"""

from __future__ import annotations

import decimal
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from itertools import accumulate
from typing import Iterator

import numpy as np

#: Decimal digits of every oracle computation.
PRECISION = 50

#: Relative distance from a boundary of the rule inside which a draw is
#: ambiguous; see the module docstring.
BAND = Decimal("1e-9")


def _context() -> decimal.Context:
    return decimal.Context(prec=PRECISION, Emin=-10**6, Emax=10**6)


def tempered_argsort_nucleus(
    probs: np.ndarray, temperature: float, top_p: float, banned=None
) -> tuple[np.ndarray, np.ndarray]:
    """The float64 rule's nucleus: the kept ids, in id order, and the weights ``probs ** (1/T)``.

    The banned ids weigh 0, unless the ban leaves no positive probability.
    The shares are the prefix sums of the stably ranked weights, each
    divided by the weights' pairwise total, and the cutoff is the first
    that reaches ``top_p``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if banned is not None:
        left = probs.copy()
        left[np.asarray(banned, dtype=np.intp)] = 0.0
        if left.any():
            probs = left
    w = probs ** (1.0 / temperature)
    order = np.argsort(-w, kind="stable")[: np.count_nonzero(w)]
    if top_p < 1.0:
        order = order[: int(np.searchsorted(np.cumsum(w[order] / w.sum()), top_p)) + 1]
    return np.sort(order), w


def tempered_argsort_draw(keep: np.ndarray, w: np.ndarray, u):
    """The float64 rule's draw: inverse CDF over :func:`tempered_argsort_nucleus`.

    ``u`` is one uniform (an id is returned) or a sequence of them (a list
    of ids).
    """
    csum = np.cumsum(w[keep])
    idx = np.searchsorted(csum, np.multiply(u, csum[-1]), side="right")
    return keep[np.minimum(idx, keep.size - 1)].tolist()


@dataclass(frozen=True)
class ExactNucleus:
    """The exact nucleus of one list of :func:`exact_weights`.

    ``keep`` holds the kept ids in id order and ``prefix`` the prefix sums
    of their exact weights.  ``ranked`` holds every id of positive weight
    in rank order.  ``near_top_p`` is True when ``top_p`` times the total
    lies within ``BAND`` of the total from the prefix weight at the cutoff
    or the one before it.  ``tie_block`` is the rank one past the last
    weight within ``BAND`` of the cutoff's weight when that run of
    near-equal weights crosses the cutoff and is not one exact tie, else 0:
    float64 weights may then rank the run's ids in another order.
    """

    keep: list[int]
    prefix: list[Decimal]
    ranked: np.ndarray
    near_top_p: bool
    tie_block: int


class ExactWeights(list):
    """The weights of :func:`exact_weights`, with the levels that :func:`exact_nucleus` ranks by.

    ``levels`` holds the distinct positive weights, descending, and
    ``codes`` each id's index into ``levels`` (``len(levels)`` for a zero
    weight).
    """

    levels: list[Decimal]
    codes: np.ndarray


def exact_weights(probs: np.ndarray, temperature: float, banned) -> ExactWeights:
    """``exp(ln p / T)`` per id, 0 for a banned id or a zero probability, at 50 digits.

    The ban is ignored when it leaves no positive probability.  The weight
    of each distinct probability is computed once, and ranks as that
    probability does.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if banned is not None:
        left = probs.copy()
        left[np.asarray(banned, dtype=np.intp)] = 0.0
        if (left > 0.0).any():
            probs = left
    values, inverse = np.unique(probs, return_inverse=True)
    ctx = _context()
    inverse_t = ctx.divide(1, Decimal(temperature))
    level = np.empty(values.size, dtype=object)
    for k, p in enumerate(values.tolist()):
        level[k] = ctx.exp(ctx.multiply(ctx.ln(Decimal(p)), inverse_t)) if p > 0.0 else Decimal(0)
    weights = ExactWeights(level[inverse].tolist())
    weights.levels = level[values > 0.0][::-1].tolist()
    levels = weights.levels
    assert all(a > b for a, b in zip(levels, levels[1:] + [0])), "two values, one weight"
    # the values ascend, so the k-th has code values.size - 1 - k, and a zero
    # (the first value when there is one) len(levels); a short code sorts by radix
    weights.codes = (values.size - 1 - inverse).astype(np.min_scalar_type(values.size))
    return weights


def exact_nucleus(weights: ExactWeights, top_p: float, rest: Decimal = Decimal(0)) -> ExactNucleus:
    """The nucleus of the :func:`exact_weights` ``weights``; see :class:`ExactNucleus`.

    The ids are ranked by the codes of their weight levels, so the mass of a
    run of equal weights is one product.  ``rest`` is the mass of weights
    left out of ``weights``, each below every positive weight in it (as
    :func:`exact_head` leaves them); the cutoff must then lie inside
    ``weights``, or ValueError is raised.
    """
    levels, codes = weights.levels, weights.codes
    counts = np.bincount(codes, minlength=len(levels) + 1).tolist()
    ranked = np.argsort(codes, kind="stable")[: len(weights) - counts[-1]]
    ctx = _context()
    total = rest
    for w, n in zip(levels, counts):
        total = ctx.add(total, ctx.multiply(w, n))
    level, cutoff, near = len(levels) - 1, ranked.size - 1, False
    if top_p < 1.0 or rest > 0:
        target = ctx.multiply(Decimal(top_p), total)
        band = ctx.multiply(BAND, total)
        mass, start = Decimal(0), 0
        for level, (w, n) in enumerate(zip(levels, counts)):
            def mass_at(j):  # the prefix mass after j ids of this weight
                return ctx.add(mass, ctx.multiply(w, j))

            if mass_at(n) >= target:
                # the fewest ids of this weight whose prefix reaches the target
                j = bisect_left(range(n + 1), True, key=lambda j: mass_at(j) >= target)
                cutoff = start + j - 1
                near = min(abs(ctx.subtract(mass_at(k), target)) for k in (j, j - 1)) <= band
                break
            mass, start = mass_at(n), start + n
        else:
            raise ValueError("the cutoff lies past the weights given")
    edge = levels[level]
    tol = ctx.multiply(BAND, edge)
    close = [k for k, w in enumerate(levels) if abs(ctx.subtract(w, edge)) <= tol]
    end = sum(counts[: close[-1] + 1])
    tie_block = end if end > cutoff + 1 and len(close) > 1 else 0
    keep = np.sort(ranked[: cutoff + 1]).tolist()
    prefix_sums = list(accumulate((weights[i] for i in keep), ctx.add))
    return ExactNucleus(keep, prefix_sums, ranked, near, tie_block)


def draw_from(nucleus: ExactNucleus, u: float) -> tuple[int, set[int]]:
    """The inverse-CDF draw over the kept ids in id order, and every id drawn within ``BAND`` of it.

    The second is the set of kept ids whose share of the kept total meets
    ``[u - BAND, u + BAND]``: the exact id alone unless ``u`` lies within
    ``BAND`` of a boundary.
    """
    ctx = _context()
    prefix = nucleus.prefix
    threshold = ctx.multiply(Decimal(u), prefix[-1])
    band = ctx.multiply(BAND, prefix[-1])
    token = bisect_right(prefix, threshold)
    assert token < len(prefix), "u lies in [0, 1)"
    lo = bisect_left(prefix, ctx.subtract(threshold, band))
    hi = bisect_right(prefix, ctx.add(threshold, band))
    return nucleus.keep[token], set(nucleus.keep[lo: hi + 1])


def exact_draw(
    weights: ExactWeights,
    top_p: float,
    u: float,
    rest: Decimal = Decimal(0),
    nucleus: ExactNucleus | None = None,
) -> tuple[int, str, set[int]]:
    """The exact id, the boundaries it lies near ("" if none), and the ids allowed.

    Away from every boundary only the exact id is allowed.  Near ``u``'s,
    any id drawn within ``BAND`` of ``u`` is; near ``top_p``'s, any id so
    drawn from the nuclei at ``top_p`` and ``2 * BAND`` either side of it.
    When near-equal weights straddle the cutoff (``"rank"``), any id ranked
    up to the end of their run is allowed.  ``rest`` is as in
    :func:`exact_nucleus`, and ``nucleus``, the :func:`exact_nucleus` of
    ``weights`` at ``top_p``, spares ranking them again for each ``u``.
    """
    if nucleus is None:
        nucleus = exact_nucleus(weights, top_p, rest)
    token, allowed = draw_from(nucleus, u)
    near_u = len(allowed) > 1
    if nucleus.near_top_p:
        step = float(2 * BAND)
        for moved in (max(top_p - step, top_p / 2), min(1.0, top_p + step)):
            allowed |= draw_from(exact_nucleus(weights, moved, rest), u)[1]
    if nucleus.tie_block:
        allowed.update(nucleus.ranked[: nucleus.tie_block].tolist())
    named = (("u", near_u), ("top_p", nucleus.near_top_p), ("rank", nucleus.tie_block))
    return token, "+".join(name for name, hit in named if hit), allowed


@dataclass(frozen=True)
class HardCase:
    """One sampler input from :func:`hard_cases`, with a label naming how it was built.

    ``near_ties`` marks a vector built with distinct entries a few ulp
    apart, whose ranking float64 weights may not keep.
    """

    label: str
    probs: np.ndarray
    temperature: float
    top_p: float
    banned: np.ndarray | None
    near_ties: bool


def _base_vector(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "ties_zeros":  # a few exact levels and exact zeros
        levels = rng.choice([0.0, 1.0, 2.0, 2.0, 3.0, 8.0], n)
        if not levels.any():
            levels[int(rng.integers(n))] = 1.0
        return levels / levels.sum()
    if kind == "subnormal":  # normal entries next to subnormal ones
        p = rng.dirichlet(np.full(n, 0.5))
        tiny = rng.random(n) < 0.4
        tiny[int(np.argmax(p))] = False
        p[tiny] = rng.integers(1, 2**40, int(tiny.sum())) * 5e-324
        return p
    if kind == "dominant":  # one id holds all but 1e-12 to 0.5
        rest = float(10.0 ** rng.uniform(-12.0, math.log10(0.5)))
        p = rng.dirichlet(np.ones(n)) * rest
        p[int(rng.integers(n))] += 1.0 - rest
        return p
    if kind == "near_uniform":  # exact ties, or entries 1e-6 or 1e-3 apart
        spread = float(rng.choice([0.0, 1e-6, 1e-3]))
        return (1.0 + spread * rng.standard_normal(n)) / n
    if kind == "ulp_uniform":  # entries a few ulp apart, which temper to near-ties
        return (1.0 + 1e-15 * rng.standard_normal(n)) / n
    if kind == "adjacent":  # runs of adjacent doubles, which temper to near-ties
        p = rng.dirichlet(np.full(n, 0.3))
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(n))
            run = min(n - i, int(rng.integers(2, 6)))
            toward = 1.0 if rng.random() < 0.5 else 0.0
            for k in range(1, run):
                p[i + k] = np.nextafter(p[i + k - 1], toward)
        return p
    # "zipf": Zipf ranks scattered over the ids
    return (rng.permutation(n) + 1.0) ** -float(rng.uniform(0.5, 3.0))


KINDS = ("ties_zeros", "subnormal", "dominant", "near_uniform", "ulp_uniform", "adjacent", "zipf")

#: The kinds built with distinct entries a few ulp apart.
NEAR_TIE_KINDS = ("ulp_uniform", "adjacent")


def hard_cases(seed: int, count: int) -> Iterator[HardCase]:
    """``count`` seeded sampler inputs at ``V <= 256``; see the module docstring."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.choice([1, 2, 3, 7, 16, 64, 256]))
        kind = KINDS[case % len(KINDS)]
        probs = _base_vector(rng, n, kind)
        scale = 0
        if rng.random() < 0.3:  # a total from 1e-300 to 1e300
            scale = int(rng.integers(-300, 301))
            probs = probs / probs.sum() * 10.0**scale
        temperature = float(np.exp(rng.uniform(math.log(0.01), math.log(2.0))))
        if rng.random() < 0.15:
            temperature = float(rng.choice([0.01, 0.1, 0.5, 1.0, 2.0]))
        top_p = float(np.exp(rng.uniform(math.log(1e-6), 0.0)))
        if rng.random() < 0.2:
            top_p = 1.0
        banned = None
        roll = rng.random()
        if roll < 0.5 and n > 1:
            banned = rng.choice(n, int(rng.integers(1, n)), replace=False)
            if roll < 0.2:  # the most probable id among them
                banned = np.union1d(banned, [int(np.argmax(probs))])
            banned = np.sort(banned).astype(np.int64)
        elif roll < 0.55:  # a ban that leaves no mass: every positive id
            banned = np.flatnonzero(probs > 0.0).astype(np.int64)
        label = f"{case}:{kind}:V={n}:1e{scale}:T={temperature:.3g}:top_p={top_p:.3g}"
        yield HardCase(label, probs, temperature, top_p, banned, kind in NEAR_TIE_KINDS)


def boundary_uniforms(nucleus: ExactNucleus, offsets: tuple[float, ...]) -> list[float]:
    """Uniforms ``offset`` away from each inner prefix share of the kept ids, for each offset."""
    ctx = _context()
    out = []
    for mass in nucleus.prefix[:-1]:
        edge = float(ctx.divide(mass, nucleus.prefix[-1]))
        out.extend(edge + f for f in offsets if 0.0 <= edge + f < 1.0)
    return out


def boundary_top_ps(
    weights: ExactWeights, offsets: tuple[float, ...], rest: Decimal = Decimal(0)
) -> list[float]:
    """``top_p`` values ``offset`` away from each ranked prefix share of the total, for each offset.

    ``rest`` is as in :func:`exact_nucleus`.
    """
    ctx = _context()
    masses = list(accumulate(sorted((w for w in weights if w > 0), reverse=True), ctx.add))
    total = ctx.add(masses[-1], rest)
    out = []
    for mass in masses[:-1]:
        share = float(ctx.divide(mass, total))
        out.extend(share + f for f in offsets if 0.0 < share + f <= 1.0)
    return out


#: Exponent of the weight share, of the most probable id left's, down to
#: which :func:`exact_head` computes weights at 50 digits: ``2 ** -12``, a
#: superset of the sampler's ``2 ** -10`` threshold head.
HEAD_EXP = 12

#: Length of the chunks in which :func:`exact_head` sums the tail.
TAIL_CHUNK = 8192


def exact_head(
    probs: np.ndarray, temperature: float, banned
) -> tuple[np.ndarray, ExactWeights, Decimal]:
    """The head of a long vector at 50 digits, and the rest of its tempered mass.

    The head is every id not banned whose probability reaches ``p_ref * 2 **
    (-HEAD_EXP * T)``, ``p_ref`` the most probable id left: its ids in id
    order and its :func:`exact_weights`.  Every other id weighs less than
    every head id, so the head's positions rank as its ids do.  The rest of
    the ids not banned are tempered in float64, ``exp(ln p / T)``, each
    within ``(|ln p| / T + 3) * 2 ** -53`` of its exact weight (at most about
    ``2e-12`` at ``T = 0.1``, where ``|ln p| <= 745``), or below ``2 **
    -1074`` when it underflows, and summed with one rounding per chunk of
    ``TAIL_CHUNK`` weights (``math.fsum``), the chunks added at 50 digits.
    So ``rest`` errs by a few parts in ``1e12`` of the tail at most, far
    inside ``BAND``.  The ban is taken as is: the vectors are long ones, where a
    ban leaves mass.
    """
    probs = np.asarray(probs, dtype=np.float64)
    left = probs.copy()
    if banned is not None:
        left[np.asarray(banned)] = 0.0
    p_ref = float(left.max())
    in_head = left >= p_ref * 2.0 ** (-HEAD_EXP * temperature)
    ids = np.flatnonzero(in_head)
    weights = exact_weights(probs[ids], temperature, None)
    tail = left[~in_head]
    tail = tail[tail > 0.0]
    ctx = _context()
    rest = Decimal(0)
    with np.errstate(under="ignore"):
        tail_w = np.exp(np.log(tail) / temperature)
    for start in range(0, tail_w.size, TAIL_CHUNK):
        rest = ctx.add(rest, Decimal(math.fsum(tail_w[start:start + TAIL_CHUNK])))
    return ids, weights, rest
