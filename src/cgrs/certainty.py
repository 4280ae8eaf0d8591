"""Answer-certainty scoring from token-level entropy.

Certainty of a tentative answer a = (a_1 .. a_n) is one minus the mean Shannon
entropy of the per-token distributions, normalized by the maximum achievable
entropy ln|V|:

    certainty = 1 - (mean_i H(p_i)) / ln(vocab_size)

All entropies are in nats; the normalization makes the score base-invariant.
A uniform distribution at every position gives 0, a one-hot at every position
gives 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

#: Absolute tolerance on probability normalization.
NORMALIZATION_ATOL = 1e-6


@dataclass(frozen=True, eq=False)
class TokenDistribution:
    """Next-token probability distribution at one position.

    ``probs`` holds one probability per outcome.  For full-vocabulary
    distributions the outcome index is the token id.  A distribution
    reconstructed from top-k log-probs carries ``outcome_token_ids``: its
    first k outcomes map to those real token ids and its final outcome is
    the aggregated residual bucket, and :attr:`truncated` is True.

    ``probs`` is read-only once validated: a writable array is stored as a
    read-only view of it, so nothing can write through ``probs``.  The
    caller's own array stays writable, and a write to it would leave the
    kept facts below stale, so a backend must not reuse the buffer it built
    a distribution from (none in this package does).  Each fact derived from
    ``probs`` is computed by the distribution once and kept: ``total``, the
    sum validation takes, and ``top_id``, the token id of the most probable
    real outcome (the residual excluded, the lowest id on a tie), at
    construction; the entropy of :func:`token_entropy` on first use.  A
    backend that returns the same object for a repeated state pays for them
    once.  Those facts belong to the object, so distributions compare and
    hash by identity.

    Validation reads a full-vocabulary vector twice: ``einsum`` takes the
    total, and an argmax over the entries' bit patterns finds the top id and
    shows that no entry has its sign bit set.  Only a vector with a set sign
    bit (a negative, a ``-0.0``, a sign-bit NaN) is read twice more, by a
    min test that accepts ``-0.0`` and a float argmax.  A truncated vector
    takes the min test and the float argmax over its real outcomes.
    """

    probs: np.ndarray
    outcome_token_ids: tuple[int, ...] | None = None
    total: float = field(init=False, repr=False)
    top_id: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        ids = self.outcome_token_ids
        # +inf, a NaN or an overflow fails the sum.  einsum adds in SIMD lanes,
        # not pairwise: on nonnegative entries its error is at most n * 2 ** -53
        # of the total (1.7e-11 at n = 151,936), far inside NORMALIZATION_ATOL,
        # and it is the faster pass.
        total = float(np.einsum("i->", probs))
        # Entries whose sign bit is clear order as their bits do, so when the
        # largest bit pattern has a clear sign bit no entry is negative, -0.0
        # or a sign-bit NaN, and that pattern's first id is the float argmax.
        # Only a set sign bit costs the min test (-0.0 passes it) and a float
        # argmax.  Taken before probs is made read-only, since numpy's argmax
        # copies a read-only array; an input that is read-only already pays
        # that copy.
        top = None if ids is not None else int(probs.view(np.uint64).argmax())
        signed = top is None or np.signbit(probs[top])
        if not ((not signed or probs.min() >= 0.0) and np.isfinite(total)):
            raise ValueError("probs must be finite and nonnegative, with a finite sum")
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"probs must sum to 1 within {NORMALIZATION_ATOL}, got {total}")
        if ids is not None:
            if len(ids) != probs.size - 1:
                raise ValueError(
                    "outcome_token_ids must cover all outcomes except the residual bucket"
                )
            top = ids[int(probs[:-1].argmax())]
        elif signed:
            top = int(probs.argmax())
        if probs.flags.writeable:
            probs = probs.view()  # no copy; the caller's array keeps its flags
            probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "top_id", top)

    @property
    def truncated(self) -> bool:
        """True for a top-k reconstruction, one that carries ``outcome_token_ids``."""
        return self.outcome_token_ids is not None

    def __reduce__(self):
        # a copy or an unpickled distribution is built anew: validated, its
        # probs read-only, its entropy not yet kept
        return type(self), (self.probs, self.outcome_token_ids)


@lru_cache(maxsize=64)
def _log_vocab(vocab_size: int) -> float:
    """ln |V|, the certainty normalizer; one value per vocabulary size."""
    return float(np.log(vocab_size))


@dataclass
class CertaintyScore:
    """Certainty of a probed answer, with the entropy evidence behind it.

    ``value`` is ``1 - mean_entropy / ln|V|``, where |V| is the backend
    vocabulary's size.
    """

    value: float
    mean_entropy: float  # nats
    truncated: bool = False  # True when any distribution was a top-k reconstruction


#: Mean entries per run of nonzero probabilities below which the two ufunc
#: calls each run costs in Python outweigh the masked copy they save.
_MIN_ENTRIES_PER_RUN = 2048


def token_entropy(dist: TokenDistribution) -> float:
    """Shannon entropy in nats of one token distribution, with 0*ln(0) = 0.

    A :class:`TokenDistribution` computes it once and keeps it in its
    instance dict; two threads that race on the first call compute the same
    value twice.  (``functools.cached_property`` would hold one lock per
    attribute, shared by all instances, on Python 3.10 and 3.11.)  A long
    vector with few exact zeros takes ``p ln p`` run by run, straight from
    ``probs`` into one buffer; any other takes it from the masked copy
    ``p[p > 0]``.  Both buffers hold the nonzero terms in index order, so the
    one reduction returns the same bits either way.
    """
    try:
        entropy = dist.__dict__.get("_entropy")
    except AttributeError:  # a raw array has no instance dict
        raise TypeError(f"expected a TokenDistribution, got {type(dist).__name__}") from None
    if entropy is None:
        entropy = _entropy(dist.probs)
        object.__setattr__(dist, "_entropy", entropy)
    return entropy


def _entropy(p: np.ndarray) -> float:
    """The entropy kernel of :func:`token_entropy`."""
    if p.size >= _MIN_ENTRIES_PER_RUN:
        zeros = np.flatnonzero(p == 0.0)
        # k zeros split the vector into at most k + 1 runs
        if (zeros.size + 1) * _MIN_ENTRIES_PER_RUN <= p.size:
            return _entropy_by_runs(p, zeros)
    nz = p[p > 0.0]
    return float(-np.add.reduce(nz * np.log(nz)))


def _entropy_by_runs(p: np.ndarray, zeros: np.ndarray) -> float:
    """``token_entropy`` of ``p``, whose exact zeros sit at the sorted ``zeros``."""
    terms = np.empty(p.size - zeros.size)
    start = filled = 0
    for stop in [*zeros.tolist(), p.size]:
        if stop > start:
            run = p[start:stop]
            seg = terms[filled:filled + run.size]
            np.log(run, out=seg)
            np.multiply(run, seg, out=seg)
            filled += run.size
        start = stop + 1
    return float(-np.add.reduce(terms))


#: Terms from which ``np.add.reduce`` sums pairwise, in eight lanes; below it
#: numpy adds left to right from 0.0, so the scoring loop's own sum has its bits.
#: The 8 is the ``n < 8`` branch of ``pairwise_sum`` in numpy's
#: ``_core/src/umath/loops_utils.h.src`` (``core/`` before numpy 2.0); a float
#: reduction starts from add's identity, 0.0.  test_bits_match_the_reference_formula
#: fails on a numpy that sums in another order.
_PAIRWISE_TERMS = 8


def certainty_score(
    distributions: Sequence[TokenDistribution],
    vocab_size: int,
) -> CertaintyScore:
    """Score a probed answer from its per-token distributions.

    Args:
        distributions: one distribution per answer token, in answer order.
        vocab_size: true vocabulary size |V| used for the ln|V| normalizer
            (also when a distribution is a truncated top-k reconstruction).

    Raises:
        ValueError: empty distribution list, vocab_size < 2, or a
            full-vocabulary distribution whose length differs from vocab_size.
        TypeError: an entry that is not a :class:`TokenDistribution`.
    """
    n = len(distributions)
    if n == 0:
        raise ValueError("cannot score an empty answer: no token distributions")
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be at least 2, got {vocab_size}")
    entropies = []
    entropy_sum = 0.0
    truncated = False
    for d in distributions:
        entropy = token_entropy(d)  # first: it names a raw array's type
        if d.truncated:
            truncated = True
        elif d.probs.size != vocab_size:
            raise ValueError(
                f"distribution has {d.probs.size} outcomes, expected vocab_size {vocab_size}"
            )
        entropies.append(entropy)
        entropy_sum += entropy
    # the reduction and division np.mean makes, without its dispatch
    if n >= _PAIRWISE_TERMS:
        entropy_sum = float(np.add.reduce(entropies))
    mean_entropy = entropy_sum / n
    value = 1.0 - mean_entropy / _log_vocab(vocab_size)
    # guard against fp drift just outside the closed interval
    value = min(1.0, max(0.0, value))
    return CertaintyScore(value=value, mean_entropy=mean_entropy, truncated=truncated)
