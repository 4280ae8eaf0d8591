"""Certainty scoring tests: entropy oracle, normalization, boundary cases."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cgrs.certainty import (
    CertaintyScore,
    TokenDistribution,
    certainty_score,
    token_entropy,
)


def entropy_oracle(probs):
    """Independent reference: -sum p ln p via math.log, skipping zeros."""
    return -sum(p * math.log(p) for p in probs if p > 0.0)


class TestTokenEntropy:
    def test_uniform_4(self):
        h = token_entropy(np.full(4, 0.25))
        assert abs(h - math.log(4)) < 1e-12

    def test_one_hot_is_zero(self):
        h = token_entropy(np.array([0.0, 1.0, 0.0, 0.0]))
        assert h == 0.0

    def test_half_quarter_quarter(self):
        h = token_entropy(np.array([0.5, 0.25, 0.25]))
        assert abs(h - 1.5 * math.log(2)) < 1e-12

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            probs = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 5.0))
            # sprinkle exact zeros to exercise the 0*ln(0) = 0 convention
            if rng.random() < 0.3 and n > 2:
                kill = rng.integers(0, n)
                probs[kill] = 0.0
                probs /= probs.sum()
            assert abs(token_entropy(probs) - entropy_oracle(probs)) < 1e-12

    def test_entropy_bounds(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            probs = rng.dirichlet(np.ones(n))
            h = token_entropy(probs)
            assert -1e-15 <= h <= math.log(n) + 1e-12


class TestTokenDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TokenDistribution(probs=np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            TokenDistribution(probs=np.array([0.5, 0.4]))

    def test_accepts_within_normalization_tolerance(self):
        TokenDistribution(probs=np.array([0.5, 0.5 + 5e-7]))

    def test_rejects_nan_inf(self):
        with pytest.raises(ValueError):
            TokenDistribution(probs=np.array([np.nan, 1.0]))
        with pytest.raises(ValueError):
            TokenDistribution(probs=np.array([np.inf, 1.0]))

    @pytest.mark.parametrize(
        "probs",
        [
            [np.nan, 1.0],
            [np.inf, 1.0],
            [-np.inf, 1.0],
            [1.1, -0.1],
            [1e308, 1e308],
        ],
        ids=["nan", "pos_inf", "neg_inf", "negative", "sum_overflows"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rejects_non_finite_or_negative(self, probs):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            TokenDistribution(probs=np.array(probs))

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError):
            TokenDistribution(probs=np.ones((2, 2)) / 4.0)

    def test_truncated_requires_outcome_ids(self):
        with pytest.raises(ValueError):
            TokenDistribution(probs=np.array([0.5, 0.5]), truncated=True)
        d = TokenDistribution(
            probs=np.array([0.6, 0.3, 0.1]),
            truncated=True,
            outcome_token_ids=(7, 2),
        )
        assert d.argmax_token_id() == 7

    def test_argmax_full(self):
        d = TokenDistribution(probs=np.array([0.1, 0.7, 0.2]))
        assert d.argmax_token_id() == 1

    def test_argmax_tie_lowest_index(self):
        d = TokenDistribution(probs=np.array([0.4, 0.4, 0.2]))
        assert d.argmax_token_id() == 0


class TestCertaintyScore:
    def test_uniform_then_onehot_vocab4(self):
        dists = [
            TokenDistribution(probs=np.full(4, 0.25)),
            TokenDistribution(probs=np.array([1.0, 0.0, 0.0, 0.0])),
        ]
        score = certainty_score(dists, vocab_size=4)
        assert abs(score.value - 0.5) < 1e-12
        assert abs(score.mean_entropy - math.log(4) / 2) < 1e-12
        assert score.n_tokens == 2
        assert score.vocab_size == 4

    def test_all_onehot_gives_one(self):
        dists = [TokenDistribution(probs=np.array([0.0, 1.0]))] * 3
        assert certainty_score(dists, vocab_size=2).value == 1.0

    def test_all_uniform_gives_zero(self):
        dists = [TokenDistribution(probs=np.full(8, 0.125))] * 5
        assert abs(certainty_score(dists, vocab_size=8).value) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            certainty_score([], vocab_size=4)

    def test_vocab_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            certainty_score([TokenDistribution(probs=np.array([1.0]))], vocab_size=1)

    def test_length_mismatch_rejected(self):
        dists = [TokenDistribution(probs=np.full(4, 0.25))]
        with pytest.raises(ValueError, match="vocab"):
            certainty_score(dists, vocab_size=5)

    def test_truncated_distributions_use_declared_vocab(self):
        # 3 buckets but vocab_size 100: normalizer must be ln(100)
        d = TokenDistribution(
            probs=np.array([0.5, 0.25, 0.25]),
            truncated=True,
            outcome_token_ids=(3, 9),
        )
        score = certainty_score([d], vocab_size=100)
        expected = 1.0 - 1.5 * math.log(2) / math.log(100)
        assert abs(score.value - expected) < 1e-12
        assert score.truncated

    def test_value_identity_invariant(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            n_tok = int(rng.integers(1, 8))
            vocab = int(rng.integers(2, 64))
            dists = [
                TokenDistribution(probs=rng.dirichlet(np.ones(vocab)))
                for _ in range(n_tok)
            ]
            score = certainty_score(dists, vocab_size=vocab)
            assert 0.0 <= score.value <= 1.0
            assert abs(score.value - (1.0 - score.mean_entropy / math.log(vocab))) < 1e-9

    def test_score_invariant_enforced_on_construction(self):
        with pytest.raises(ValueError):
            CertaintyScore(
                value=0.9, mean_entropy=0.5, n_tokens=1, vocab_size=4, truncated=False
            )

    def test_score_requires_positive_tokens(self):
        with pytest.raises(ValueError):
            CertaintyScore(
                value=1.0, mean_entropy=0.0, n_tokens=0, vocab_size=4, truncated=False
            )

    def test_peaked_beats_flat(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            vocab = int(rng.integers(3, 32))
            flat = rng.dirichlet(np.ones(vocab) * 50.0)  # near uniform
            idx = int(rng.integers(0, vocab))
            peaked = np.full(vocab, 0.01 / (vocab - 1))
            peaked[idx] = 0.99
            c_flat = certainty_score(
                [TokenDistribution(probs=flat)], vocab_size=vocab
            ).value
            c_peak = certainty_score(
                [TokenDistribution(probs=peaked)], vocab_size=vocab
            ).value
            assert c_peak > c_flat
