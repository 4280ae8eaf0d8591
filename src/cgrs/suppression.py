"""Certainty-to-suppression schedule and trigger-token masking.

The suppression probability is a thresholded linear ramp of the certainty
score:

    p = max(0, (certainty - delta) / (1 - delta)),   0 <= delta < 1

Below the threshold ``delta`` nothing is suppressed; above it, the Bernoulli
masking probability climbs linearly and reaches 1 at full certainty.  The
engine's sampler masks by zeroing the trigger probabilities
(:func:`cgrs.sampling.sample_from_probs`); :func:`mask_triggers` is the same
mask in logit space, setting the trigger logits to a large negative value.
Either way the relative probabilities of all other tokens are untouched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .certainty import CertaintyScore
from .rng import decision_uniform

#: Logit value written into masked positions.
MASK_NEG_VALUE = -1e9


def check_delta(delta: float) -> None:
    """The one delta rule: it lies in [0, 1); delta = 1 would make the ramp degenerate."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")


def check_trigger_ids(sorted_ids: Sequence[int], vocab_size: int) -> None:
    """The one trigger-id rule: the distinct ids lie in the vocabulary, and leave one out.

    ``sorted_ids`` lists distinct ids in ascending order, such as
    :attr:`cgrs.lexicon.TriggerTokenSet.sorted_ids`, so the range test reads
    only its ends.
    """
    if len(sorted_ids):
        for t in (sorted_ids[0], sorted_ids[-1]):
            if not 0 <= t < vocab_size:
                raise ValueError(f"trigger id {t} out of range for vocabulary of {vocab_size}")
    if len(sorted_ids) == vocab_size:
        raise ValueError(
            f"trigger set covers the entire vocabulary of {vocab_size} tokens;"
            " a mask would leave nothing to sample"
        )


def suppression_probability(certainty: float, delta: float) -> float:
    """Map a certainty score to a suppression probability.

    Raises:
        ValueError: certainty outside [0, 1], or delta outside [0, 1)
            (:func:`check_delta`).
    """
    if not 0.0 <= certainty <= 1.0:
        raise ValueError(f"certainty must lie in [0, 1], got {certainty}")
    check_delta(delta)
    return max(0.0, (certainty - delta) / (1.0 - delta))


def update_state(certainty: CertaintyScore, delta: float) -> float:
    """The suppression probability a fresh probe sets; it holds until the next probe."""
    return suppression_probability(certainty.value, delta)


def should_suppress(p: float, seed: int, step: int) -> bool:
    """The Bernoulli suppression decision for one decode step.

    A pure function of (seed, step, p): the counter-based stream gives every
    step its own uniform, so any step's decision can be drawn in any order
    and replays identically.  The uniform lies in [0, 1), so at ``p <= 0``
    or ``p >= 1`` the outcome is fixed and nothing is drawn; a NaN ``p``
    draws and never fires.
    """
    if p <= 0.0:
        return False
    if p >= 1.0:
        return True
    return decision_uniform(seed, step) < p


def mask_triggers(logits: np.ndarray, triggers: Iterable[int]) -> np.ndarray:
    """Return a copy of ``logits`` with trigger positions set to ``MASK_NEG_VALUE``.

    Non-trigger entries are bit-identical to the input, so post-softmax the
    unmasked tokens keep their exact relative probabilities while every masked
    token's probability underflows to zero.

    Raises:
        ValueError: non-finite logits, or trigger ids that
            :func:`check_trigger_ids` rejects.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError("logits must be a nonempty 1-D vector")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    trigger_ids = sorted(set(int(t) for t in triggers))
    check_trigger_ids(trigger_ids, logits.size)
    masked = logits.copy()
    masked[trigger_ids] = MASK_NEG_VALUE
    return masked
