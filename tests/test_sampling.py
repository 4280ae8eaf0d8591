"""Sampling tests: softmax, nucleus filter, temperature, bans, inverse-CDF draws."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cgrs.rng import sampling_uniform
from cgrs.sampling import (
    _weights,
    distribution_to_logits,
    nucleus_filter,
    sample_from_logits,
    sample_from_probs,
    softmax,
)
from cgrs.suppression import mask_triggers

QWEN_VOCAB = 151_936
LARGE_V_TOP_PS = (0.05, 0.5, 0.95, 0.999)


def argsort_nucleus_filter(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Oracle: the full-stable-argsort nucleus filter the engine replaced."""
    if top_p == 1.0:
        return probs
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    cutoff = int(np.searchsorted(csum, top_p, side="left"))
    keep = order[: cutoff + 1]
    out = np.zeros_like(probs)
    out[keep] = probs[keep]
    return out / out.sum()


def argsort_cdf(
    logits: np.ndarray, temperature: float, top_p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: :func:`argsort_nucleus_filter` of the tempered softmax, and its V-length CDF."""
    probs = argsort_nucleus_filter(softmax(logits / temperature), top_p)
    return probs, np.cumsum(probs)


def argsort_draw(probs: np.ndarray, csum: np.ndarray, u: float) -> int:
    """Oracle: the inverse-CDF draw over :func:`argsort_cdf`."""
    idx = int(np.searchsorted(csum, u, side="right"))
    if idx >= probs.size:
        idx = int(np.flatnonzero(probs > 0)[-1])
    return idx


def argsort_sample_from_logits(
    logits: np.ndarray, temperature: float, top_p: float, u: float
) -> int:
    """Oracle: inverse-CDF sampling over :func:`argsort_nucleus_filter`."""
    logits = np.asarray(logits, dtype=np.float64)
    if temperature == 0.0:
        return int(np.argmax(logits))
    return argsort_draw(*argsort_cdf(logits, temperature, top_p), u)


@pytest.fixture(scope="module")
def large_vectors() -> dict[str, np.ndarray]:
    """Probability vectors over Qwen's vocabulary size, one per hard case."""
    rng = np.random.default_rng(2025)
    # Zipf(1.1) with its ranks scattered over the ids, tempered at T=0.6
    zipf = (rng.permutation(QWEN_VOCAB) + 1.0) ** -1.1
    zipf = softmax(distribution_to_logits(zipf / zipf.sum()) / 0.6)
    # one head token, then 2000 exact ties holding the mass from 0.01 to
    # 0.9995: every cutoff in LARGE_V_TOP_PS lands inside the tie block
    ties = np.zeros(QWEN_VOCAB)
    ids = rng.permutation(QWEN_VOCAB)
    ties[ids[0]] = 0.01
    ties[ids[1:2001]] = 0.9895 / 2000
    tail = rng.random(QWEN_VOCAB - 2001)
    ties[ids[2001:]] = 0.0005 * tail / tail.sum()
    sparse = np.zeros(QWEN_VOCAB)
    sparse[rng.choice(QWEN_VOCAB, 40, replace=False)] = rng.dirichlet(np.ones(40))
    uniform = np.full(QWEN_VOCAB, 1.0 / QWEN_VOCAB)
    return {"zipf": zipf, "ties": ties, "sparse": sparse, "uniform": uniform}


@pytest.fixture
def argsort_sizes(monkeypatch):
    """Sizes of every array ``np.argsort`` is asked to sort while active."""
    sizes: list[int] = []
    real = np.argsort

    def counting(a, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return sizes


@pytest.fixture
def cumsum_sizes(monkeypatch):
    """Sizes of every array ``np.cumsum`` is asked to sum while active."""
    sizes: list[int] = []
    real = np.cumsum

    def counting(a, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting)
    return sizes


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax(np.zeros(5))
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            logits = rng.normal(size=int(rng.integers(2, 80))) * 20.0
            probs = softmax(logits)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert (probs >= 0.0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            logits = rng.normal(size=10)
            assert np.allclose(softmax(logits), softmax(logits + 123.456), atol=1e-12)

    def test_extreme_logits_stable(self):
        probs = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) < 1e-12
        assert probs[0] > 0.999

    def test_masked_value_vanishes(self):
        probs = softmax(np.array([0.0, -1e9, 1.0]))
        assert probs[1] == 0.0


class TestDistributionToLogits:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            probs = rng.dirichlet(np.ones(int(rng.integers(2, 30))))
            back = softmax(distribution_to_logits(probs))
            assert np.allclose(back, probs, atol=1e-12)

    def test_zero_prob_floor(self):
        logits = distribution_to_logits(np.array([0.5, 0.5, 0.0]))
        assert logits[2] <= -1e29
        back = softmax(logits)
        assert back[2] == 0.0
        assert np.allclose(back[:2], 0.5, atol=1e-12)


class TestNucleusFilter:
    def test_top_p_one_passthrough(self):
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(6))
        assert np.array_equal(nucleus_filter(probs, 1.0), probs)

    def test_known_cutoff(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        kept = nucleus_filter(probs, 0.8)
        # cumulative 0.5, 0.8: second token included at exactly top_p
        assert np.allclose(kept, [0.5 / 0.8, 0.3 / 0.8, 0.0, 0.0], atol=1e-12)

    def test_smallest_set_reaching_mass(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            probs = rng.dirichlet(np.ones(n))
            top_p = float(rng.uniform(0.05, 0.999))
            kept = nucleus_filter(probs, top_p)
            assert abs(kept.sum() - 1.0) < 1e-9
            support = kept > 0.0
            mass = probs[support].sum()
            assert mass >= top_p - 1e-12
            # dropping the smallest kept element must fall below top_p
            if support.sum() > 1:
                smallest = probs[support].min()
                assert mass - smallest < top_p + 1e-12

    def test_keeps_highest_probability_tokens(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            probs = rng.dirichlet(np.ones(12))
            kept = nucleus_filter(probs, float(rng.uniform(0.1, 0.95)))
            if (kept == 0).any() and (kept > 0).any():
                assert probs[kept > 0].min() >= probs[kept == 0].max() - 1e-15

    def test_invalid_top_p(self):
        probs = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            nucleus_filter(probs, 0.0)
        with pytest.raises(ValueError):
            nucleus_filter(probs, 1.5)

    def test_deterministic_under_ties(self):
        probs = np.full(4, 0.25)
        a = nucleus_filter(probs, 0.5)
        b = nucleus_filter(probs, 0.5)
        assert np.array_equal(a, b)
        assert a[a > 0].size == 2


class TestSampleFromLogits:
    def test_temperature_zero_is_argmax(self):
        logits = np.array([0.1, 3.0, -2.0])
        for u in (0.0, 0.37, 0.999):
            assert sample_from_logits(logits, 0.0, 0.95, u) == 1

    def test_u_zero_picks_first_positive(self):
        logits = distribution_to_logits(np.array([0.0, 0.4, 0.6]))
        assert sample_from_logits(logits, 1.0, 1.0, 0.0) == 1

    def test_u_near_one_picks_last_positive(self):
        logits = distribution_to_logits(np.array([0.4, 0.6, 0.0]))
        assert sample_from_logits(logits, 1.0, 1.0, 1.0 - 1e-12) == 1

    def test_inverse_cdf_boundaries(self):
        probs = np.array([0.2, 0.5, 0.3])
        logits = distribution_to_logits(probs)
        assert sample_from_logits(logits, 1.0, 1.0, 0.1999) == 0
        assert sample_from_logits(logits, 1.0, 1.0, 0.2001) == 1
        assert sample_from_logits(logits, 1.0, 1.0, 0.6999) == 1
        assert sample_from_logits(logits, 1.0, 1.0, 0.7001) == 2

    def test_masked_token_never_sampled(self):
        rng = np.random.default_rng(40)
        logits = np.array([1.0, -1e9, 0.5, -1e9])
        for _ in range(500):
            tok = sample_from_logits(logits, 1.0, 1.0, float(rng.random()))
            assert tok in (0, 2)

    def test_temperature_sharpens(self):
        rng = np.random.default_rng(41)
        logits = np.array([2.0, 1.0, 0.0])
        n = 4000
        hot = sum(
            sample_from_logits(logits, 2.0, 1.0, float(rng.random())) == 0
            for _ in range(n)
        )
        rng = np.random.default_rng(41)
        cold = sum(
            sample_from_logits(logits, 0.25, 1.0, float(rng.random())) == 0
            for _ in range(n)
        )
        assert cold > hot

    def test_empirical_frequencies(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        logits = distribution_to_logits(probs)
        rng = np.random.default_rng(42)
        n = 20_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[sample_from_logits(logits, 1.0, 1.0, float(rng.random()))] += 1
        assert np.allclose(counts / n, probs, atol=0.015)

    def test_invalid_parameters(self):
        logits = np.zeros(3)
        with pytest.raises(ValueError):
            sample_from_logits(logits, -0.5, 0.9, 0.5)
        with pytest.raises(ValueError):
            sample_from_logits(logits, 1.0, 0.9, 1.5)
        with pytest.raises(ValueError):
            sample_from_logits(logits, 1.0, 0.9, -0.1)

    def test_nucleus_excludes_tail(self):
        # top token holds 0.97: top_p=0.95 keeps only it
        probs = np.array([0.97, 0.02, 0.01])
        logits = distribution_to_logits(probs)
        rng = np.random.default_rng(43)
        for _ in range(300):
            assert sample_from_logits(logits, 1.0, 0.95, float(rng.random())) == 0


class TestLargeVocabularyExactness:
    """The partial-selection nucleus equals the full-argsort one, bit for bit."""

    @pytest.mark.parametrize("name", ["zipf", "ties", "sparse", "uniform"])
    @pytest.mark.parametrize("top_p", LARGE_V_TOP_PS)
    def test_matches_argsort_oracle(self, large_vectors, name, top_p):
        probs = large_vectors[name]
        assert np.array_equal(nucleus_filter(probs, top_p), argsort_nucleus_filter(probs, top_p))

    def test_ties_at_cutoff_keep_lower_ids(self, large_vectors):
        probs = large_vectors["ties"]
        tie = probs[probs > 1e-4].min()
        block = np.flatnonzero(probs == tie)
        kept = np.flatnonzero(nucleus_filter(probs, 0.5))
        kept_ties = np.intersect1d(kept, block)
        assert 0 < kept_ties.size < block.size
        assert np.array_equal(kept_ties, block[: kept_ties.size])

    def test_sampled_ids_match_oracle(self, large_vectors):
        logits = {n: distribution_to_logits(p) for n, p in large_vectors.items()}
        names = sorted(logits)
        for step in range(100):
            name = names[step % len(names)]
            top_p = LARGE_V_TOP_PS[(step // len(names)) % len(LARGE_V_TOP_PS)]
            u = sampling_uniform(7, step)
            expected = argsort_sample_from_logits(logits[name], 0.6, top_p, u)
            assert sample_from_logits(logits[name], 0.6, top_p, u) == expected, (name, top_p, step)


class TestNucleusSortsOnlyAHead:
    """Structural guard, no timing: the full vocabulary is never sorted."""

    @pytest.mark.parametrize("top_p", LARGE_V_TOP_PS)
    def test_zipf_sorts_a_small_head(self, large_vectors, argsort_sizes, top_p):
        kept = int(np.count_nonzero(nucleus_filter(large_vectors["zipf"], top_p)))
        assert argsort_sizes
        # the head starts at 64 and grows fourfold, so it overshoots the
        # nucleus by at most a factor of four
        assert max(argsort_sizes) <= max(64, 4 * kept)
        assert max(argsort_sizes) < QWEN_VOCAB // 30

    def test_sparse_vector_sorts_only_its_nonzeros(self, argsort_sizes):
        rng = np.random.default_rng(5)
        probs = np.zeros(50_000)
        probs[rng.choice(probs.size, 6, replace=False)] = rng.dirichlet(np.ones(6))
        out = nucleus_filter(probs, 0.999999)
        assert argsort_sizes and max(argsort_sizes) <= 6
        assert np.array_equal(out, argsort_nucleus_filter(probs, 0.999999))

    def test_near_uniform_head_grows_to_the_vocabulary(self, deadline, argsort_sizes):
        rng = np.random.default_rng(6)
        probs = 1.0 + 1e-3 * rng.random(QWEN_VOCAB)
        probs /= probs.sum()
        with deadline(10):
            out = nucleus_filter(probs, 0.999999)
        # geometric growth: a handful of selections, the last nearly all of V
        assert len(argsort_sizes) <= 8
        assert argsort_sizes[-1] > 0.99 * QWEN_VOCAB
        assert np.array_equal(out, argsort_nucleus_filter(probs, 0.999999))


class TestSampleFromProbs:
    """The probability-space core picks the oracle's ids and honours bans."""

    @pytest.mark.parametrize("banned", [False, True], ids=["unmasked", "top5_banned"])
    @pytest.mark.parametrize("top_p", LARGE_V_TOP_PS + (1.0,))
    @pytest.mark.parametrize("temperature", [0.6, 1.0])
    @pytest.mark.parametrize("name", ["zipf", "ties", "sparse", "uniform"])
    def test_matches_argsort_oracle(self, large_vectors, name, temperature, top_p, banned):
        probs = large_vectors[name]
        logits = distribution_to_logits(probs)
        ban = None
        if banned:
            ban = np.sort(np.argsort(-probs, kind="stable")[:5])
            logits = mask_triggers(logits, ban)
        oracle = argsort_cdf(logits, temperature, top_p)
        for step in range(100):
            u = sampling_uniform(7, step)
            got = sample_from_probs(probs, temperature, top_p, u, ban)
            assert got == argsort_draw(*oracle, u), step

    def test_temperature_zero_is_argmax_over_unbanned(self):
        probs = np.array([0.1, 0.5, 0.3, 0.1])
        assert sample_from_probs(probs, 0.0, 0.9, 0.5) == 1
        assert sample_from_probs(probs, 0.0, 0.9, 0.5, np.array([1])) == 2

    def test_banned_tokens_never_sampled(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            probs = rng.dirichlet(np.ones(12))
            ban = np.sort(rng.choice(12, 4, replace=False))
            top_p = float(rng.choice([0.5, 0.9, 1.0]))
            token = sample_from_probs(probs, 0.7, top_p, float(rng.random()), ban)
            assert token not in ban

    @pytest.mark.parametrize("temperature", [1.0, 0.6])
    def test_ban_leaving_no_mass_draws_unmasked(self, temperature):
        # only triggers carry mass: the ban is ignored, so 1 and 2 keep their
        # tempered 0.7 : 0.3 odds instead of being drawn uniformly
        probs = np.array([0.0, 0.7, 0.3, 0.0, 0.0])
        ban = np.array([1, 2])
        w = probs ** (1.0 / temperature)
        edge = w[1] / w.sum()
        for u in np.linspace(0.0, 0.999, 500):
            if abs(u - edge) > 1e-9:
                assert sample_from_probs(probs, temperature, 1.0, u, ban) == (1 if u < edge else 2)
        assert sample_from_probs(probs, 0.0, 1.0, 0.5, ban) == 1

    @pytest.mark.parametrize("name", ["zipf", "uniform"])
    def test_low_temperature_underflow_matches_oracle(self, large_vectors, name):
        # at T = 0.01 the uniform vector's p ** 100 underflows to zero
        probs = large_vectors[name]
        oracle = argsort_cdf(distribution_to_logits(probs), 0.01, 0.95)
        for step in range(20):
            u = sampling_uniform(9, step)
            assert sample_from_probs(probs, 0.01, 0.95, u) == argsort_draw(*oracle, u)

    def test_underflowing_power_keeps_ratios(self):
        # 0.5 ** 1020 is barely normal and 0.49 ** 1020 subnormal: the weights
        # are rebuilt relative to the largest probability at full precision
        w, total = _weights(np.array([0.5, 0.49, 0.01]), 1020.0, None)
        assert w[0] == 1.0 and total == w.sum()
        assert w[1] == pytest.approx(0.98**1020, rel=1e-10)

    def test_no_mass_rejected(self):
        with pytest.raises(ValueError, match="no probability mass"):
            sample_from_probs(np.zeros(4), 0.5, 0.9, 0.5)

    def test_invalid_parameters(self):
        probs = np.full(3, 1.0 / 3.0)
        for temperature, top_p, u in ((-0.5, 0.9, 0.5), (1.0, 0.0, 0.5), (1.0, 0.9, 1.0)):
            with pytest.raises(ValueError):
                sample_from_probs(probs, temperature, top_p, u)


class TestDrawSumsOnlyTheNucleus:
    """Structural guard, no timing: below top_p = 1 no prefix sum spans the vocabulary."""

    @pytest.mark.parametrize("entry", ["probs", "logits"])
    @pytest.mark.parametrize("top_p", LARGE_V_TOP_PS)
    def test_cumsum_no_longer_than_the_sorted_head(
        self, large_vectors, argsort_sizes, cumsum_sizes, entry, top_p
    ):
        probs = large_vectors["zipf"]
        if entry == "probs":
            sample_from_probs(probs, 0.6, top_p, 0.5)
        else:
            sample_from_logits(distribution_to_logits(probs), 0.6, top_p, 0.5)
        assert argsort_sizes and cumsum_sizes
        assert max(cumsum_sizes) <= max(argsort_sizes)
