"""The sampler against the exact-arithmetic oracle of ``exact_sampler.py`` on hard vectors."""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal

import numpy as np
from exact_sampler import (
    boundary_top_ps,
    boundary_uniforms,
    exact_draw,
    exact_nucleus,
    exact_weights,
    hard_cases,
    tempered_argsort_draw,
    tempered_argsort_nucleus,
)

from cgrs.sampling import _MIN_TOTAL, sample_from_probs

#: Hard cases drawn from :func:`exact_sampler.hard_cases`.
CASES = 1400

#: Largest share of the draws placed away from a boundary that may still
#: land within ``BAND`` of one, on vectors without near-ties and on those
#: built with them (``HardCase.near_ties``).  Those draws only need to pick
#: an allowed id; every other draw must pick the exact one.
AMBIGUOUS_SHARE = 0.01
NEAR_TIE_AMBIGUOUS_SHARE = 0.7


class TestOracle:
    """The oracle on vectors whose answer is known by hand."""

    def test_weights_are_tempered_powers(self):
        # exp(2 ln p) at 50 digits: p ** 2 to within a unit in the 48th digit
        w = exact_weights(np.array([0.25, 0.0, 0.75]), 0.5, None)
        want = [Decimal("0.0625"), Decimal(0), Decimal("0.5625")]
        assert all(abs(a - b) < Decimal("1e-48") for a, b in zip(w, want))

    def test_ban_that_leaves_no_mass_is_ignored(self):
        probs = np.array([0.0, 0.4, 0.6])
        assert exact_weights(probs, 1.0, np.array([1, 2])) == exact_weights(probs, 1.0, None)
        assert exact_weights(probs, 1.0, np.array([2]))[2] == 0

    def test_nucleus_and_draw(self):
        # ranked 3 (0.4), 0 (0.3), 2 (0.2), 1 (0.1); top_p 0.6 keeps 3 and 0
        w = exact_weights(np.array([0.3, 0.1, 0.2, 0.4]), 1.0, None)
        nucleus = exact_nucleus(w, 0.6)
        assert nucleus.keep == [0, 3] and nucleus.ranked.tolist() == [3, 0, 2, 1]
        # in id order: 0 holds [0, 3/7), 3 holds [3/7, 1)
        assert exact_draw(w, 0.6, 0.42)[:2] == (0, "")
        assert exact_draw(w, 0.6, 0.43)[:2] == (3, "")
        token, reason, allowed = exact_draw(w, 0.6, 3 / 7)
        assert reason == "u" and allowed == {0, 3}

    def test_exact_ties_rank_by_id(self):
        w = exact_weights(np.array([0.2, 0.4, 0.4]), 0.7, None)
        nucleus = exact_nucleus(w, 0.3)
        assert nucleus.keep == [1] and not nucleus.tie_block

    def test_near_tie_at_the_cutoff_is_flagged(self):
        high = 0.4
        low = float(np.nextafter(high, 0.0))
        w = exact_weights(np.array([0.2, low, high]), 0.7, None)
        token, reason, allowed = exact_draw(w, 0.3, 0.5)
        assert token == 2 and reason == "rank" and allowed == {1, 2}


def test_hard_vectors_draw_the_exact_id():
    # Each case draws at a few random uniforms, at uniforms 1e-6
    # either side of each kept boundary, and at top_p values 1e-6 either
    # side of a ranked prefix share: all far outside BAND, so they must
    # draw the exact id unless near-equal weights straddle the cutoff.
    # Draws placed 1e-12 from a boundary, inside BAND, must be flagged and
    # pick an allowed id.  The float64 rule, which the engine must match id
    # for id, must pick an allowed id at every uniform too, wherever it holds:
    # outside [_MIN_TOTAL, inf) the engine rebuilds its weights.  Runs in
    # about 10 s on a 2-vCPU host.
    rng = np.random.default_rng(1904)
    outside, inside, reasons, paths = Counter(), 0, Counter(), Counter()
    float64_draws = 0
    for case in hard_cases(seed=27, count=CASES):
        weights = exact_weights(case.probs, case.temperature, case.banned)
        top_ps = [case.top_p]
        shares = boundary_top_ps(weights, (-1e-6, 1e-6))
        if shares:
            top_ps += [float(x) for x in rng.choice(shares, min(2, len(shares)), replace=False)]
        for top_p in top_ps:
            nucleus = exact_nucleus(weights, top_p)
            with np.errstate(all="ignore"):  # the float64 weights may overflow or underflow
                rule = tempered_argsort_nucleus(case.probs, case.temperature, top_p, case.banned)
            holds = _MIN_TOTAL <= rule[1].sum() < math.inf
            far = boundary_uniforms(nucleus, (-1e-6, 1e-6))
            near = boundary_uniforms(nucleus, (-1e-12, 1e-12))
            us = [float(u) for u in rng.random(3)]
            us += [float(u) for u in rng.choice(far, min(4, len(far)), replace=False)] if far else []
            placed = [float(u) for u in rng.choice(near, min(2, len(near)), replace=False)] if near else []
            for u in us + placed:
                want, reason, allowed = exact_draw(weights, top_p, u)
                with np.errstate(over="ignore"):  # p ** (1/T) overflows at totals near 1e300
                    got = sample_from_probs(case.probs, case.temperature, top_p, u, case.banned)
                where = (case.label, top_p, u, reason)
                if holds:
                    float64_draws += 1
                    assert tempered_argsort_draw(*rule, u) in allowed, where
                if u in placed:
                    inside += 1
                    assert "u" in reason, where
                    assert got in allowed, where
                    continue
                outside[case.near_ties] += 1
                paths[len(nucleus.keep) == 1] += 1
                if reason:
                    reasons[case.near_ties, reason] += 1
                    assert got in allowed, where
                else:
                    assert got == want, where
    assert outside[False] >= 5000 and outside[True] >= 1000 and inside >= 500, (outside, inside)
    assert float64_draws >= 0.7 * (sum(outside.values()) + inside), float64_draws
    for near_ties, cap in ((False, AMBIGUOUS_SHARE), (True, NEAR_TIE_AMBIGUOUS_SHARE)):
        ambiguous = sum(n for (ties, _), n in reasons.items() if ties == near_ties)
        assert ambiguous <= cap * outside[near_ties], (near_ties, reasons, outside)
    # the draws reach single-id nuclei and wider ones alike
    assert min(paths.values()) >= 0.1 * sum(outside.values()), paths

