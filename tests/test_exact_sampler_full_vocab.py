"""The certified draw against the exact oracle of ``exact_sampler.py`` at Qwen's vocabulary size."""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from itertools import accumulate

import numpy as np
import pytest
from exact_sampler import boundary_top_ps, boundary_uniforms, exact_draw, exact_head, exact_nucleus

from cgrs import sampling
from cgrs.sampling import sample_from_probs

QWEN_VOCAB = 151_936


def _vector(name: str, temperature: float) -> tuple[np.ndarray, np.ndarray | None]:
    """A probability vector over Qwen's vocabulary, and its ban.

    The Zipf exponent is ``1.1 * T / 0.6``, so the tempered vector is Zipf
    with exponent 1.83 at every ``T``, as ``T = 0.6`` makes Zipf(1.1).  The
    banned-top vector bans its top, three of the next four ids and 20 more,
    as trigger masking would.
    """
    rng = np.random.default_rng(1936)
    if name == "sparse":
        sparse = np.zeros(QWEN_VOCAB)
        sparse[rng.choice(QWEN_VOCAB, 40, replace=False)] = rng.dirichlet(np.full(40, 0.5))
        return sparse, None
    zipf = (rng.permutation(QWEN_VOCAB) + 1.0) ** -(1.1 * temperature / 0.6)
    zipf /= zipf.sum()
    if name == "zipf":
        return zipf, None
    order = np.argsort(-zipf, kind="stable")
    ban = np.concatenate([order[:1], order[2:5], rng.choice(order[5:], 20, replace=False)])
    return zipf, np.sort(ban)


@pytest.mark.parametrize("temperature", [0.1, 0.3, 0.6])
@pytest.mark.parametrize("name", ["zipf", "sparse", "banned_top"])
def test_certified_draws_are_the_exact_id(monkeypatch, name, temperature):
    # The head at 50 digits against the rest of the tempered mass summed in
    # chunks.  Draws at random uniforms and 1e-6 either side of each kept
    # boundary, at top_p values midway between the ranked prefix shares of
    # the sampler's threshold head and 1e-6 either side of a share.  Every
    # draw must pick the exact id, and the midway draws must take the
    # certified path.  Runs in about 2 s on a 2-vCPU host.
    probs, ban = _vector(name, temperature)
    certified = sampling._certified_nucleus
    outcomes = []

    def spy(*args):
        kept = certified(*args)
        outcomes.append(kept is not None)
        return kept

    monkeypatch.setattr(sampling, "_certified_nucleus", spy)
    rng = np.random.default_rng(int(temperature * 10) + len(name))
    ids, weights, rest = exact_head(probs, temperature, ban)
    ranked = sorted(weights, reverse=True)
    head = [w for w in ranked if w >= ranked[0] * Decimal(sampling._HEAD_RATIO)]
    total = sum(weights) + rest
    shares = [float(mass / total) for mass in accumulate(head)]
    # a top_p between the k-th and (k+1)-th shares cuts at rank k >= 1
    midway = [(a + b) / 2.0 for a, b in zip(shares, shares[1:])][:4]
    near = boundary_top_ps(weights, (-1e-6, 1e-6), rest)
    results = Counter()
    for top_p in midway + [float(s) for s in rng.choice(near, min(4, len(near)), replace=False)]:
        nucleus = exact_nucleus(weights, top_p, rest)
        far = boundary_uniforms(nucleus, (-1e-6, 1e-6))
        us = [float(u) for u in rng.random(3)]
        us += [float(u) for u in rng.choice(far, min(4, len(far)), replace=False)] if far else []
        for u in us:
            want, reason, allowed = exact_draw(weights, top_p, u, rest)
            outcomes.clear()
            got = sample_from_probs(probs, temperature, top_p, u, ban)
            where = (name, temperature, top_p, u, reason)
            if reason:
                assert got in {int(ids[i]) for i in allowed}, where
            else:
                assert got == int(ids[want]), where
            results[top_p in midway, outcomes == [True]] += 1
    # at T = 0.1 the Lyapunov upper bound b ** 8 * S2 spans about 2% of the
    # total on the flat Zipf vectors, so the midway cutoff nearest that
    # width falls back, to the same exact id
    assert results[True, True] >= 19, results
    assert temperature == 0.1 or not results[True, False], results
