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
from typing import Sequence

import numpy as np

#: Absolute tolerance on probability normalization.
NORMALIZATION_ATOL = 1e-6


@dataclass(frozen=True)
class TokenDistribution:
    """Next-token probability distribution at one position.

    ``probs`` holds one probability per outcome.  For full-vocabulary
    distributions the outcome index is the token id.  For distributions
    reconstructed from top-k log-probs (``truncated=True``) the first k
    outcomes map to real token ids via ``outcome_token_ids`` and the final
    outcome is the aggregated residual bucket.
    """

    probs: np.ndarray
    truncated: bool = False
    outcome_token_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        # a NaN or negative entry fails the min test; +inf or an overflow, the sum
        lo = probs.min()
        total = float(probs.sum())
        if not (lo >= 0.0 and np.isfinite(total)):
            raise ValueError("probs must be finite and nonnegative, with a finite sum")
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"probs must sum to 1 within {NORMALIZATION_ATOL}, got {total}")
        if self.truncated:
            if self.outcome_token_ids is None:
                raise ValueError("truncated distributions must carry outcome_token_ids")
            if len(self.outcome_token_ids) != probs.size - 1:
                raise ValueError(
                    "outcome_token_ids must cover all outcomes except the residual bucket"
                )

    def argmax_token_id(self) -> int:
        """Token id of the most probable real outcome (residual excluded)."""
        if self.truncated:
            assert self.outcome_token_ids is not None
            return self.outcome_token_ids[int(np.argmax(self.probs[:-1]))]
        return int(np.argmax(self.probs))


@dataclass(frozen=True)
class CertaintyScore:
    """Certainty of a probed answer, with the entropy evidence behind it."""

    value: float
    mean_entropy: float  # nats
    n_tokens: int
    vocab_size: int
    truncated: bool = False  # True when any distribution was a top-k reconstruction

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"certainty value must lie in [0, 1], got {self.value}")
        if self.n_tokens <= 0:
            raise ValueError("a certainty score requires at least one answer token")
        expected = 1.0 - self.mean_entropy / np.log(self.vocab_size)
        if abs(self.value - expected) > 1e-9:
            raise ValueError(
                f"inconsistent certainty: value {self.value} vs derived {expected}"
            )


def token_entropy(dist: TokenDistribution | np.ndarray | Sequence[float]) -> float:
    """Shannon entropy in nats of one token distribution, with 0*ln(0) = 0."""
    if not isinstance(dist, TokenDistribution):
        dist = TokenDistribution(np.asarray(dist, dtype=np.float64))
    p = dist.probs
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def certainty_score(
    distributions: Sequence[TokenDistribution | np.ndarray | Sequence[float]],
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
    """
    if len(distributions) == 0:
        raise ValueError("cannot score an empty answer: no token distributions")
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be at least 2, got {vocab_size}")
    dists = [
        d if isinstance(d, TokenDistribution) else TokenDistribution(np.asarray(d, dtype=np.float64))
        for d in distributions
    ]
    truncated = any(d.truncated for d in dists)
    for d in dists:
        if not d.truncated and d.probs.size != vocab_size:
            raise ValueError(
                f"distribution has {d.probs.size} outcomes, expected vocab_size {vocab_size}"
            )
    entropies = [token_entropy(d) for d in dists]
    mean_entropy = float(np.mean(entropies))
    value = 1.0 - mean_entropy / float(np.log(vocab_size))
    # guard against fp drift just outside the closed interval
    value = min(1.0, max(0.0, value))
    return CertaintyScore(
        value=value,
        mean_entropy=mean_entropy,
        n_tokens=len(dists),
        vocab_size=vocab_size,
        truncated=truncated,
    )
