"""Sampling tests: softmax, nucleus filter, temperature, bans, inverse-CDF draws."""

from __future__ import annotations

import decimal
import itertools
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from cgrs import sampling
from cgrs.certainty import TokenDistribution
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


def tempered_argsort_nucleus(
    probs: np.ndarray, temperature: float, top_p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: kept ids (in id order) of a full stable argsort of ``probs ** (1/T)``, and the weights."""
    w = probs ** (1.0 / temperature)
    order = np.argsort(-w, kind="stable")
    cutoff = int(np.searchsorted(np.cumsum(w[order] / w.sum()), top_p, side="left"))
    return np.sort(order[: cutoff + 1]), w


def tempered_argsort_draw(keep: np.ndarray, w: np.ndarray, u: float) -> int:
    """Oracle: the inverse-CDF draw over :func:`tempered_argsort_nucleus`."""
    csum = np.cumsum(w[keep])
    idx = int(np.searchsorted(csum, u * csum[-1], side="right"))
    return int(keep[min(idx, keep.size - 1)])


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


def _counted(monkeypatch, name: str, module=np) -> list[int]:
    """Sizes of the first argument of every ``module.<name>`` call while active."""
    sizes: list[int] = []
    real = getattr(module, name)

    def counting(a, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return sizes


@pytest.fixture
def argsort_sizes(monkeypatch):
    """Sizes of every array ``np.argsort`` is asked to sort while active."""
    return _counted(monkeypatch, "argsort")


@pytest.fixture
def cumsum_sizes(monkeypatch):
    """Sizes of every array the sampler's one prefix sum, ``cgrs.sampling._prefix_sum``, sums while active."""
    return _counted(monkeypatch, "_prefix_sum", sampling)


@pytest.fixture
def partition_sizes(monkeypatch):
    """Sizes of every array ``np.partition`` is asked to select from while active."""
    return _counted(monkeypatch, "partition")


@pytest.fixture
def weights_sizes(monkeypatch):
    """Sizes of every vector ``cgrs.sampling._weights`` is asked to temper while active."""
    return _counted(monkeypatch, "_weights", sampling)


@pytest.fixture
def certified_sizes(monkeypatch):
    """Sizes of every vector passed to ``cgrs.sampling._certified_nucleus`` while active."""
    return _counted(monkeypatch, "_certified_nucleus", sampling)


@pytest.fixture
def band_sizes(monkeypatch):
    """Sizes of the id lists every ``cgrs.sampling._head`` gather returns while active (None: it gave up)."""
    sizes: list[int | None] = []
    real = sampling._head

    def gathering(v, bar, banned=None):
        ids = real(v, bar, banned)
        sizes.append(None if ids is None else ids.size)
        return ids

    monkeypatch.setattr(sampling, "_head", gathering)
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
        with pytest.raises(ValueError, match="top_p must lie in"):
            sample_from_logits(logits, 0.0, 5.0, 0.5)  # greedy checks top_p too

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

    @pytest.mark.parametrize("temperature", [1.0, 0.6])
    def test_near_uniform_small_nucleus_sorts_a_bounded_head(
        self, deadline, argsort_sizes, temperature
    ):
        # every token is within 2**-10 of the largest, so the threshold head
        # would be the whole vocabulary: past the cap, the head must grow from
        # 64 as before and overshoot the nucleus by at most a factor of four
        rng = np.random.default_rng(6)
        probs = 1.0 + 1e-3 * rng.random(QWEN_VOCAB)
        probs /= probs.sum()
        u = sampling_uniform(6, 0)
        with deadline(10):
            if temperature == 1.0:
                kept = np.flatnonzero(nucleus_filter(probs, 0.05))
            else:
                token = sample_from_probs(probs, temperature, 0.05, u)
        sizes = list(argsort_sizes)
        keep, w = tempered_argsort_nucleus(probs, temperature, 0.05)
        if temperature == 1.0:
            assert np.array_equal(kept, keep)
        else:
            assert token == tempered_argsort_draw(keep, w, u)
        assert sizes and max(sizes) <= max(64, 4 * keep.size)


class TestSampleFromProbs:
    """The probability-space core picks the oracle's ids and honours bans."""

    @pytest.mark.parametrize("banned", ["unmasked", "top5_banned", "top_banned"])
    @pytest.mark.parametrize("top_p", LARGE_V_TOP_PS + (1.0,))
    @pytest.mark.parametrize("temperature", [0.6, 1.0, 0.1, 0.3])
    @pytest.mark.parametrize("name", ["zipf", "ties", "sparse", "uniform"])
    def test_matches_argsort_oracle(self, large_vectors, name, temperature, top_p, banned):
        probs = large_vectors[name]
        logits = distribution_to_logits(probs)
        ban = None
        if banned != "unmasked":
            ban = np.sort(np.argsort(-probs, kind="stable")[: 5 if banned == "top5_banned" else 1])
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
        probs = np.array([0.5, 0.49, 0.01])
        w, sums = _weights(probs, 1020.0, None)
        assert w[0] == 1.0 and sums.tolist() == [w.sum()]
        assert w[1] == pytest.approx(0.98**1020, rel=1e-10)
        # the draw's prefix sums come from the same rebuilt weights
        w_all, csum = _weights(probs, 1020.0, None, cumulative=True)
        assert np.array_equal(w_all, w) and np.array_equal(csum, np.cumsum(w))

    @pytest.mark.parametrize("banned", [False, True])
    @pytest.mark.parametrize("top_p", [1.0, 0.95])
    @pytest.mark.parametrize("temperature", [0.02, 0.3])
    def test_overflowing_power_draws_as_normalised(self, temperature, top_p, banned):
        # scaled by 1e15, the top's p ** 50 overflows at T = 0.02: the weights
        # are rebuilt relative to the largest probability, as after an
        # underflow, and numpy's warning on the power is the only one
        zipf = np.arange(1, 5001) ** -1.2
        probs = np.random.default_rng(0).permutation(zipf / zipf.sum())
        ban = np.array([int(np.argmax(probs))]) if banned else None
        for u in [0.1, 0.5, 0.9] + [sampling_uniform(3, step) for step in range(20)]:
            expected = sample_from_probs(probs, temperature, top_p, u, ban)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                got = sample_from_probs(probs * 1e15, temperature, top_p, u, ban)
            assert got == expected, u
            overflowed = ["overflow encountered in power"] if temperature == 0.02 else []
            assert [str(w.message) for w in seen] == overflowed

    def test_no_mass_rejected(self):
        with pytest.raises(ValueError, match="no probability mass"):
            sample_from_probs(np.zeros(4), 0.5, 0.9, 0.5)
        # a NaN largest entry never settles the draw on its own
        with pytest.raises(ValueError, match="no probability mass"):
            sample_from_probs(np.array([0.9, math.nan, 0.1]), 0.5, 0.5, 0.5)

    def test_invalid_parameters(self):
        probs = np.full(3, 1.0 / 3.0)
        for temperature, top_p, u in (
            (-0.5, 0.9, 0.5),
            (1.0, 0.0, 0.5),
            (1.0, 0.9, 1.0),
            (math.nan, 0.9, 0.5),
            (math.inf, 0.9, 0.5),
            (math.nan, 1.0, 0.5),
        ):
            with pytest.raises(ValueError):
                sample_from_probs(probs, temperature, top_p, u)


@pytest.fixture(scope="module")
def ban_vectors() -> dict[str, np.ndarray]:
    """Vectors for the ban checks; each holds some ids at zero probability."""
    rng = np.random.default_rng(18)
    zipf = (rng.permutation(QWEN_VOCAB) + 1.0) ** -1.1
    zipf[rng.choice(QWEN_VOCAB, 1000, replace=False)] = 0.0
    ids = rng.permutation(QWEN_VOCAB)
    peaked = np.zeros(QWEN_VOCAB)
    peaked[ids[0]] = 0.9
    peaked[ids[1:1001]] = 0.1 * rng.dirichlet(np.ones(1000))
    # one head token and 2000 exact ties, as in large_vectors, over a zero tail
    tied = np.zeros(QWEN_VOCAB)
    tied[ids[0]] = 0.01
    tied[ids[1:2001]] = 0.9895 / 2000
    tail = rng.random(50_000)
    tied[ids[2001:52_001]] = 0.0005 * tail / tail.sum()
    sparse = np.zeros(QWEN_VOCAB)
    sparse[rng.choice(QWEN_VOCAB, 40, replace=False)] = rng.dirichlet(np.ones(40))
    small = rng.dirichlet(np.ones(200))
    small[rng.choice(200, 20, replace=False)] = 0.0
    zipf /= zipf.sum()
    return {"zipf": zipf, "peaked": peaked, "tied": tied, "sparse": sparse, "small": small}


class TestBanIsZeroing:
    """A ban picks the id that zeroing the banned probabilities picks, and a
    ban that lists each id twice picks the same id."""

    @pytest.mark.parametrize("name", ["zipf", "peaked", "tied", "sparse", "small"])
    def test_ban_matches_zeroed_probs(self, ban_vectors, name):
        probs = ban_vectors[name]
        rng = np.random.default_rng(7)
        top = np.argsort(-probs, kind="stable")
        bans = [
            top[:1],
            top[:5],
            rng.choice(probs.size, 50, replace=False),
            rng.choice(np.flatnonzero(probs == 0.0), 10, replace=False),
        ]
        step = 0
        for ban in map(np.sort, bans):
            zeroed = probs.copy()
            zeroed[ban] = 0.0
            assert zeroed.any()  # every ban here leaves mass
            twice = np.concatenate([ban, ban])
            for temperature in (0.0, 0.1, 0.6, 1.0, 1.5):
                for top_p in (0.05, 0.5, 0.95, 1.0):
                    u = sampling_uniform(18, step)
                    step += 1
                    want = sample_from_probs(zeroed, temperature, top_p, u)
                    case = (len(ban), temperature, top_p, u)
                    assert sample_from_probs(probs, temperature, top_p, u, ban) == want, case
                    assert sample_from_probs(probs, temperature, top_p, u, twice) == want, case


class TestDrawAtTopPOne:
    """At top_p = 1 the draw's prefix sums are its only total, and its guard still holds."""

    @pytest.mark.parametrize("temperature", [1.0, 0.6])
    def test_one_prefix_sum_over_the_vocabulary(self, large_vectors, cumsum_sizes, temperature):
        probs = large_vectors["zipf"]
        ban = np.sort(np.argsort(-probs, kind="stable")[:5])
        for banned in (None, ban):
            cumsum_sizes.clear()
            sample_from_probs(probs, temperature, 1.0, 0.5, banned)
            assert cumsum_sizes == [QWEN_VOCAB]

    @pytest.mark.parametrize("banned", [None, [0]], ids=["unmasked", "banned"])
    @pytest.mark.parametrize("temperature", [1.0, 0.6])
    def test_nan_rejected(self, temperature, banned):
        probs = np.array([0.5, math.nan, 0.5])
        ban = None if banned is None else np.array(banned)
        with pytest.raises(ValueError, match="no probability mass"):
            sample_from_probs(probs, temperature, 1.0, 0.5, ban)

    @pytest.mark.parametrize("temperature", [1.0, 0.6])
    def test_ban_leaving_no_mass_matches_oracle(self, temperature):
        # the ban covers every positive entry, so the draw ignores it
        rng = np.random.default_rng(int(temperature * 10) + 50)
        for trial in range(40):
            n = int(rng.integers(2, 200))
            probs = np.zeros(n)
            ban = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            probs[ban] = rng.dirichlet(np.ones(ban.size))
            keep, w = tempered_argsort_nucleus(probs, temperature, 1.0)
            for step in range(10):
                u = sampling_uniform(trial, step)
                got = sample_from_probs(probs, temperature, 1.0, u, ban)
                assert got == tempered_argsort_draw(keep, w, u), (trial, step)

    @pytest.mark.parametrize("name", ["zipf", "uniform"])
    def test_low_temperature_underflow_matches_oracle(self, large_vectors, name):
        # at T = 0.01 the uniform vector's p ** 100 underflows to zero, so
        # the weights are rebuilt before the prefix sums are taken
        probs = large_vectors[name]
        oracle = argsort_cdf(distribution_to_logits(probs), 0.01, 1.0)
        for step in range(20):
            u = sampling_uniform(10, step)
            assert sample_from_probs(probs, 0.01, 1.0, u) == argsort_draw(*oracle, u)


class TestDrawSumsOnlyTheNucleus:
    """Structural guard, no timing: below top_p = 1 no prefix sum spans the vocabulary."""

    @pytest.mark.parametrize("entry", ["probs", "logits"])
    @pytest.mark.parametrize("top_p", LARGE_V_TOP_PS)
    def test_cumsum_no_longer_than_the_sorted_head(
        self,
        large_vectors,
        argsort_sizes,
        cumsum_sizes,
        partition_sizes,
        weights_sizes,
        entry,
        top_p,
    ):
        counted = (weights_sizes, argsort_sizes, cumsum_sizes, partition_sizes)
        for name in ("zipf", "ties"):
            for sizes in counted:
                sizes.clear()
            probs = large_vectors[name]
            logits = distribution_to_logits(probs)
            if entry == "probs":
                token = sample_from_probs(probs, 0.6, top_p, 0.5)
            else:
                token = sample_from_logits(logits, 0.6, top_p, 0.5)
            if name == "zipf" and top_p <= 0.5:
                # the top token holds 0.545 of this vector's mass, so it alone
                # is the nucleus and the draw forms no weights at all
                assert not any(counted)
            else:
                # the ties vector's top holds 0.01, so every top_p runs the head
                assert argsort_sizes and cumsum_sizes, name
                assert max(cumsum_sizes) <= max(argsort_sizes), name
            if entry == "probs":
                keep, w = tempered_argsort_nucleus(probs, 0.6, top_p)
                assert token == tempered_argsort_draw(keep, w, 0.5), name
            else:
                assert token == argsort_sample_from_logits(logits, 0.6, top_p, 0.5), name


def tie_pair_below(x: float, temperature: float) -> tuple[float, float]:
    """The first adjacent doubles ``a < b <= x``, searching down, with equal tempered weights."""
    top = int(np.float64(x).view(np.int64))
    for _ in range(100):
        doubles = np.arange(top - 100_000, top + 1, dtype=np.int64).view(np.float64)
        w = doubles ** (1.0 / temperature)
        ties = np.flatnonzero(w[:-1] == w[1:])
        if ties.size:
            return float(doubles[ties[-1]]), float(doubles[ties[-1] + 1])
        top -= 100_000
    raise AssertionError("no tempered tie found")


def settle_boundary_vector(
    vocab: int, bar: float, offset: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """A vector whose top holds ``bar * (1 + 1e-9) + offset`` of its exact sum, and the top's id.

    Every other id holds one of three levels, 4:2:1, scattered over the ids.
    The vector sums to about ``1 + 5e-7``, inside the normalization
    tolerance, so the top passes the settle test's first check, ``p_top >=
    bar``, on either side, and the sum decides.
    """
    top = vocab // 3
    levels = np.array([4.0, 2.0, 1.0])[rng.permutation(vocab - 1) % 3]
    rest = levels * ((1.0 - bar) * (1.0 + 5e-7) / levels.sum())
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        values, counts = np.unique(rest, return_counts=True)
        rest_total = sum(Decimal(float(v)) * int(c) for v, c in zip(values, counts))
        share = Decimal(bar) * (1 + Decimal("1e-9")) + Decimal(offset)
        p_top = float(share * rest_total / (1 - share))
        got = Decimal(p_top) / (Decimal(p_top) + rest_total)
        assert abs(got - share) < Decimal("1e-15")
    return np.insert(rest, top, p_top), top


def exact_nucleus(
    probs: np.ndarray, temperature: float, top_p: float, banned: np.ndarray
) -> tuple[np.ndarray, list[Decimal]]:
    """Oracle at 50 digits: the nucleus of ``probs ** (1/T)`` with ``banned`` zeroed.

    Returns the kept ids, in id order, and their weights.

    The weights are taken once per distinct probability, so a vector with few
    distinct values costs a few powers.
    """
    masked = probs.copy()
    masked[banned] = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = 1 / Decimal(repr(temperature))
        # ranked by weight, and within one value by id
        groups = [
            (Decimal(float(v)) ** a, np.flatnonzero(masked == v))
            for v in np.unique(masked[masked > 0.0])[::-1]
        ]
        need = Decimal(top_p) * sum(w * ids.size for w, ids in groups)
        kept, mass = [], Decimal(0)
        for w, ids in groups:
            if mass + w * ids.size >= need:
                m = int(((need - mass) / w).to_integral_value(rounding=decimal.ROUND_CEILING))
                kept.append((w, ids[: max(m, 1)]))
                break
            kept.append((w, ids))
            mass += w * ids.size
    ids = np.concatenate([i for _, i in kept])
    weights = [w for w, i in kept for _ in range(i.size)]
    order = np.argsort(ids)
    return ids[order], [weights[k] for k in order]


def exact_boundaries(weights: list[Decimal]) -> list[float]:
    """Each kept id's upper edge in the exact CDF, as a share of the kept total, but the last."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        total = sum(weights)
        return [float(edge / total) for edge in itertools.accumulate(weights[:-1])]


def exact_draw(keep: np.ndarray, weights: list[Decimal], u: float) -> int:
    """Oracle at 50 digits: the first kept id whose prefix sum exceeds ``u`` of the kept total."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        threshold = Decimal(u) * sum(weights)
        mass = Decimal(0)
        for token, w in zip(keep.tolist(), weights):
            mass += w
            if mass > threshold:
                return token
    raise AssertionError("u lies in [0, 1)")


class TestThresholdHead:
    """A nucleus inside the threshold head is found without a partial selection."""

    @pytest.fixture(scope="class")
    def peaked(self) -> np.ndarray:
        rng = np.random.default_rng(97)
        probs = (rng.permutation(QWEN_VOCAB) + 1.0) ** -1.1
        probs *= 0.03 / probs.sum()
        probs[rng.integers(QWEN_VOCAB)] += 0.97
        return probs

    @pytest.mark.parametrize("name", ["peaked", "sparse"])
    def test_small_head_needs_no_partition(
        self,
        peaked,
        large_vectors,
        argsort_sizes,
        cumsum_sizes,
        partition_sizes,
        weights_sizes,
        name,
    ):
        probs = peaked if name == "peaked" else large_vectors[name]
        us = [sampling_uniform(8, step) for step in range(20)]
        tokens = [sample_from_probs(probs, 0.6, 0.95, u) for u in us]
        assert not partition_sizes
        if name == "peaked":
            # 0.97 on one token settles the draw before any weight is formed
            assert not (weights_sizes or argsort_sizes or cumsum_sizes)
        else:
            assert argsort_sizes and max(argsort_sizes) < QWEN_VOCAB // 30
        keep, w = tempered_argsort_nucleus(probs, 0.6, 0.95)
        assert tokens == [tempered_argsort_draw(keep, w, u) for u in us]

    def test_banned_top_still_needs_no_partition(self, large_vectors, partition_sizes):
        # the banned most probable id weighs 0, so the head is measured
        # against the largest remaining weight, not against it
        probs = large_vectors["zipf"]
        ban = np.array([int(np.argmax(probs))])
        masked = probs.copy()
        masked[ban] = 0.0
        keep, w = tempered_argsort_nucleus(masked, 0.6, 0.95)
        us = [sampling_uniform(9, step) for step in range(20)]
        tokens = [sample_from_probs(probs, 0.6, 0.95, u, ban) for u in us]
        assert not partition_sizes
        assert tokens == [tempered_argsort_draw(keep, w, u) for u in us]

    @pytest.fixture(scope="class")
    def zipf2(self) -> np.ndarray:
        rng = np.random.default_rng(99)
        probs = (rng.permutation(QWEN_VOCAB) + 1.0) ** -2.0
        return probs / probs.sum()

    @pytest.mark.parametrize("entry", ["unmasked", "top_banned", "nucleus_filter"])
    def test_full_path_nucleus_inside_the_head_needs_no_partition(
        self, zipf2, partition_sizes, entry
    ):
        # T = 1 has no certified path: the full path ranks the head itself.
        # Zipf(2) puts 0.61 on its top, so top_p = 0.95 is not settled, and
        # the nucleus (about 12 ids, about 30 with the top banned) fits in
        # the head, so no partial selection is needed
        probs = zipf2
        assert probs.max() < 0.95
        if entry == "nucleus_filter":
            assert np.array_equal(nucleus_filter(probs, 0.95), argsort_nucleus_filter(probs, 0.95))
        else:
            ban = np.array([int(np.argmax(probs))]) if entry == "top_banned" else None
            masked = probs.copy()
            if ban is not None:
                masked[ban] = 0.0
            keep, w = tempered_argsort_nucleus(masked, 1.0, 0.95)
            us = [sampling_uniform(20, step) for step in range(20)]
            tokens = [sample_from_probs(probs, 1.0, 0.95, u, ban) for u in us]
            assert tokens == [tempered_argsort_draw(keep, w, u) for u in us]
        assert not partition_sizes

    @pytest.mark.parametrize("tail_mass", [1e-5, 0.05], ids=["light_tail", "heavy_tail"])
    def test_tempered_tie_at_the_cutoff_keeps_the_lower_id(self, tail_mass):
        # ids 5 < 9 hold adjacent doubles with one tempered weight, 9 the
        # larger probability.  The stable ranking by weight puts 5 before 9,
        # and the cutoff lands between them, so a ranking by probability
        # would keep 9 instead of 5
        temperature, n = 0.6, 4096
        low, high = tie_pair_below(9e-4, temperature)
        probs = np.full(n, tail_mass / (n - 7))
        probs[[0, 1, 3, 4]] = 0.0
        probs[[2, 5, 9]] = 1024.0 * high, low, high
        probs[[0, 1, 3, 4]] = (1.0 - probs.sum()) / 4  # four mid-weight tokens
        w = probs ** (1.0 / temperature)
        assert w[5] == w[9]
        ranked = np.cumsum(np.sort(w)[::-1] / w.sum())
        top_p = float((ranked[4] + ranked[5]) / 2.0)
        keep, w = tempered_argsort_nucleus(probs, temperature, top_p)
        assert keep.tolist() == [0, 1, 2, 3, 4, 5]
        # half the draws inside id 5's sliver at the top of the CDF
        sliver = w[5] / w[keep].sum()
        us = [sampling_uniform(4, step) for step in range(50)]
        us += [1.0 - sliver * (k + 0.5) / 50.0 for k in range(50)]
        tokens = [sample_from_probs(probs, temperature, top_p, u) for u in us]
        assert tokens == [tempered_argsort_draw(keep, w, u) for u in us]
        assert 5 in tokens

    @pytest.mark.parametrize("temperature", [0.3, 0.6, 0.9, 1.0])
    def test_random_vectors_match_the_tempered_oracle(self, temperature):
        rng = np.random.default_rng(int(temperature * 10))
        for trial in range(60):
            n = int(rng.integers(2, 3000))
            probs = rng.dirichlet(np.full(n, float(rng.choice([0.02, 0.3, 3.0]))))
            if trial % 3 == 0:  # an exact tie block
                probs[: n // 2] = probs[0]
                probs /= probs.sum()
            ban = None
            if trial % 2:
                ban = rng.choice(n, int(rng.integers(1, n // 2 + 2)), replace=False)
            top_p = float(rng.choice([0.2, 0.9, 0.95, 0.999]))
            masked = probs.copy()
            if ban is not None and masked[ban].sum() < masked.sum():
                masked[ban] = 0.0
            keep, w = tempered_argsort_nucleus(masked, temperature, top_p)
            for step in range(10):
                u = sampling_uniform(trial, step)
                got = sample_from_probs(probs, temperature, top_p, u, ban)
                assert got == tempered_argsort_draw(keep, w, u), (trial, step)

    @pytest.mark.parametrize("ban", ["unmasked", "top_banned"])
    @pytest.mark.parametrize("name", ["zipf", "ties", "sparse"])
    def test_flattened_large_vectors_match_the_tempered_oracle(self, large_vectors, name, ban):
        # T > 1 is drawn on the full path, its head ranked against the exact
        # total, over the whole vocabulary rather than one head-sized vector
        probs = large_vectors[name]
        banned = np.array([int(np.argmax(probs))]) if ban == "top_banned" else None
        masked = probs.copy()
        if banned is not None:
            masked[banned] = 0.0
        for top_p in (0.5, 0.95):
            keep, w = tempered_argsort_nucleus(masked, 1.5, top_p)
            for step in range(4):
                u = sampling_uniform(21, step)
                got = sample_from_probs(probs, 1.5, top_p, u, banned)
                assert got == tempered_argsort_draw(keep, w, u), (top_p, step)


class TestSettledTop:
    """A top token that alone holds top_p at 0 < T <= 1 is drawn without tempering."""

    @pytest.mark.parametrize(
        "x, temperature, top_p",
        [(0.45, 0.6, 0.3), (1.99, 0.9, 0.3), (1.99, 0.9, 0.5)],
        ids=["rest-0.3", "pair-0.3", "pair-0.5"],
    )
    def test_tempered_tie_keeps_the_lower_id(self, x, temperature, top_p):
        # ids 0 < 1 hold adjacent doubles with one tempered weight, 1 the
        # larger probability.  Ranked by weight, 0 comes first and alone holds
        # top_p, so the most probable id is the wrong answer.  With the pair
        # below 0.45, the rest of the mass fills the vector to 1 and the top
        # holds less than half of it; the pair alone below 1.99 (probs need
        # not sum to 1) gives the top a hair over half, inside the rule's
        # margin.  Just below 2.0, x ** (1/0.9) lands in the next binade, so
        # adjacent doubles temper about 0.6 output ulp apart and any
        # faithful power ties some of them; near 0.6 they land about 1.05
        # ulp apart, and only some SIMD builds of numpy's power tie them
        low, high = tie_pair_below(x, temperature)
        probs = np.zeros(64)
        probs[:2] = low, high
        if x < 0.5:
            probs[2:] = (1.0 - low - high) / 62
        keep, w = tempered_argsort_nucleus(probs, temperature, top_p)
        assert w[0] == w[1] and keep.tolist() == [0]
        us = [sampling_uniform(10, step) for step in range(20)]
        assert [sample_from_probs(probs, temperature, top_p, u) for u in us] == [0] * 20

    @pytest.mark.parametrize("temperature", [0.3, 0.6, 1.0, 2.0])
    def test_top_heavy_vectors_match_the_tempered_oracle(
        self, weights_sizes, certified_sizes, temperature
    ):
        # T > 1 flattens, so there the top's share can fall below p_top / S
        # and the draw must temper
        rng = np.random.default_rng(int(temperature * 10) + 100)
        for trial in range(40):
            n = int(rng.integers(2, 3000))
            top = int(rng.integers(n))
            rest = rng.dirichlet(np.full(n - 1, float(rng.choice([0.02, 0.3, 3.0]))))
            probs = np.insert(rest * (1.0 - rng.uniform(0.5, 0.999)), top, 0.0)
            probs[top] = 1.0 - probs.sum()
            ban_top = trial % 2 == 1
            ban = rng.choice(n, int(rng.integers(0, n // 2 + 1)), replace=False)
            ban = np.union1d(ban[ban != top], [top] if ban_top else [])
            ban = ban.astype(np.int64)
            masked = probs.copy()
            if masked[ban].sum() < masked.sum():
                masked[ban] = 0.0
            share = probs[top] / probs.sum()
            below = not ban_top and temperature <= 1.0
            for top_p, settles in ((share * (1 - 1e-6), below), (share * (1 + 1e-6), False)):
                keep, w = tempered_argsort_nucleus(masked, temperature, top_p)
                for step in range(5):
                    u = sampling_uniform(trial, step)
                    weights_sizes.clear()
                    certified_sizes.clear()
                    got = sample_from_probs(probs, temperature, top_p, u, ban)
                    assert got == tempered_argsort_draw(keep, w, u), (trial, top_p, step)
                    tempered = weights_sizes or certified_sizes
                    assert (not tempered) == settles, (trial, top_p, step)

    @pytest.mark.parametrize("vocab", [11, 4096, QWEN_VOCAB])
    @pytest.mark.parametrize("temperature", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("ban", [False, True], ids=["no-ban", "non-top-ban"])
    def test_settle_boundary_draws_match_exact_arithmetic(
        self, weights_sizes, certified_sizes, vocab, temperature, ban
    ):
        # the top holds within 1e-12 to 1e-8 of the settle test's bar, either
        # side.  The kept einsum total and the pairwise sum may decide the
        # test differently for the nearest; both must draw the exact id
        rng = np.random.default_rng([vocab, int(temperature * 10), ban])
        for top_p in (0.3, 0.95):
            bar = max(top_p, 0.5)
            for sign in (-1.0, 1.0):
                for offset in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
                    probs, top = settle_boundary_vector(vocab, bar, sign * offset, rng)
                    banned = np.zeros(0, dtype=np.int64)
                    if ban:  # the lowest id of the largest level, and two more
                        others = np.setdiff1d(np.arange(vocab), [top])
                        first = others[probs[others] == probs[others].max()][0]
                        picks = rng.choice(others, 2, replace=False)
                        banned = np.union1d(picks, [first]).astype(np.int64)
                    dist = TokenDistribution(probs)
                    keep, weights = exact_nucleus(probs, temperature, top_p, banned)
                    # a u on either side of each edge draws every kept id
                    us = [sampling_uniform(vocab, step) for step in range(4)]
                    us += [e * f for e in exact_boundaries(weights) for f in (1 - 1e-6, 1 + 1e-6)]
                    for u in us:
                        want = exact_draw(keep, weights, u)
                        args = (dist.probs, temperature, top_p, u, banned if ban else None)
                        weights_sizes.clear()
                        certified_sizes.clear()
                        kept = {"total": dist.total, "top": dist.top_id}
                        assert sample_from_probs(*args, **kept) == want, (top_p, sign, offset)
                        settled = not (weights_sizes or certified_sizes)
                        assert sample_from_probs(*args) == want, (top_p, sign, offset)
                        if offset >= 1e-10:  # far outside either sum's rounding
                            assert settled == (sign > 0), (top_p, sign, offset)

    def test_settled_draw_never_tempers(self, weights_sizes, certified_sizes):
        rng = np.random.default_rng(98)
        probs = (rng.permutation(QWEN_VOCAB) + 1.0) ** -1.1
        probs *= 0.03 / probs.sum()
        top = int(rng.integers(QWEN_VOCAB))
        probs[top] += 0.97
        others = np.setdiff1d(rng.choice(QWEN_VOCAB, 6, replace=False), [top])[:5]
        for temperature in (0.3, 0.6, 1.0):
            for step in range(10):
                u = sampling_uniform(11, step)
                assert sample_from_probs(probs, temperature, 0.95, u, others) == top
        assert sample_from_logits(distribution_to_logits(probs), 0.6, 0.95, 0.5) == top
        assert not (weights_sizes or certified_sizes)
        # a banned top is not settled: the draw tempers and moves elsewhere
        assert sample_from_probs(probs, 0.6, 0.95, 0.5, np.array([top])) != top
        assert weights_sizes or certified_sizes


class TestCertifiedDraw:
    """An unsettled step at 0 < T < 1 tempers only a band and certifies the cutoff from two moments."""

    @pytest.mark.parametrize("temperature", [0.95, 0.6, 0.5, 0.3, 0.1])
    def test_gathered_power_equals_the_full_vector_bits(self, large_vectors, temperature):
        # the band's float64 weights are gathered before the power; they must
        # be the full vector's bits whatever the gather's size (T = 0.5 is
        # numpy's squaring shortcut for ``** 2``)
        rng = np.random.default_rng(int(temperature * 100))
        power = 1.0 / temperature
        for name in ("zipf", "sparse", "ties"):
            probs = large_vectors[name]
            full = probs**power
            for size in list(range(1, 65)) + [1000, 4095, 4096, 65_536, QWEN_VOCAB]:
                ids = np.sort(rng.choice(QWEN_VOCAB, size, replace=False))
                gathered = (probs[ids] ** power).view(np.int64)
                assert np.array_equal(gathered, full[ids].view(np.int64)), (name, size)

    @pytest.mark.parametrize("temperature", [0.9, 0.6, 0.3, 0.1, 0.02])
    def test_bounds_bracket_the_float64_total(self, temperature):
        # the two-moment bounds must hold today's pairwise float64 total of
        # the tempered weights, from the einsum total a TokenDistribution
        # keeps and from the pairwise sum alike, on Zipf, sparse,
        # subnormal-heavy and banned vectors, and on vectors that mix exact
        # zeros, bans and entries far below the band; underflowing squares
        # and powers must not warn, and S1 ** (a - 2) underflowing at
        # T = 0.02 must not divide by zero
        rng = np.random.default_rng(int(temperature * 1000))
        power = 1.0 / temperature
        share = sampling._BAND_RATIO ** (1.0 / power)
        widths = []
        for trial in range(80):
            n = int(rng.choice([7, 300, 5000, QWEN_VOCAB]))
            probs = (rng.permutation(n) + 1.0) ** -float(rng.uniform(0.5, 3.0))
            top = int(np.argmax(probs))
            rest = np.arange(n) != top
            if trial % 4 == 1:  # mostly exact zeros
                probs[(rng.random(n) < 0.9) & rest] = 0.0
            if trial % 4 == 2:  # entries far below float32's normal range
                probs[(rng.random(n) < 0.3) & rest] *= 1e-300
            if trial % 4 == 3:  # zeros, and ratios across float32's subnormal range
                mix = rng.random(n)
                probs[(mix < 0.3) & rest] = 0.0
                tiny = (mix > 0.6) & rest
                probs[tiny] = probs[top] * np.exp2(-rng.uniform(120.0, 155.0, int(tiny.sum())))
            probs /= probs.sum()
            ban = None
            if trial % 2:
                ban = np.setdiff1d(rng.choice(n, max(1, n // 10), replace=False), [top])
            w, sums = _weights(probs, power, ban)
            b = float(probs[top] * share)
            ids = sampling._head(probs, b, ban)
            if ids is None or not w[top] >= sampling._MIN_TOTAL:
                continue
            p = probs[ids]
            for total in (np.einsum("i->", probs), probs.sum()):
                with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
                    warnings.simplefilter("error")
                    lo, hi = sampling._moment_bounds(p, p**power, probs, b, power, ban, float(total))
                assert lo <= float(sums[-1]) <= hi, (trial, n)
            widths.append((hi - lo) / hi)
        # a tail of many ids just below the band widens the bracket most
        assert len(widths) >= 70 and max(widths) < 1e-2 and np.median(widths) < 1e-5

    def test_zipf_vector_tempers_only_its_head(
        self, large_vectors, weights_sizes, band_sizes, argsort_sizes
    ):
        # no vocabulary-length float64 power: one compare pass on the float64
        # vector gathers the band, and the head alone is sorted
        probs = large_vectors["zipf"]
        us = [sampling_uniform(12, step) for step in range(20)]
        for temperature in (0.6, 0.3, 0.1):
            keep, w = tempered_argsort_nucleus(probs, temperature, 0.95)
            argsort_sizes.clear()
            tokens = [sample_from_probs(probs, temperature, 0.95, u) for u in us]
            assert tokens == [tempered_argsort_draw(keep, w, u) for u in us], temperature
            assert max(argsort_sizes) < 100
        assert not weights_sizes
        assert len(band_sizes) == 60 and 0 < min(band_sizes) and max(band_sizes) < 1000

    def test_banned_top_tempers_only_its_head(self, large_vectors, weights_sizes, band_sizes):
        # the band is measured against the most probable id left, as the
        # full path measures its head against the largest weight left; a
        # first gather at the banned top's bar finds that id
        probs = large_vectors["zipf"]
        ban = np.array([int(np.argmax(probs))])
        masked = probs.copy()
        masked[ban] = 0.0
        us = [sampling_uniform(17, step) for step in range(20)]
        for temperature in (0.6, 0.3, 0.1):
            keep, w = tempered_argsort_nucleus(masked, temperature, 0.95)
            tokens = [sample_from_probs(probs, temperature, 0.95, u, ban) for u in us]
            assert tokens == [tempered_argsort_draw(keep, w, u) for u in us], temperature
        assert not weights_sizes
        assert len(band_sizes) == 120 and 0 < min(band_sizes) and max(band_sizes) < 1000

    @pytest.mark.parametrize("temperature", [0.9, 0.6, 0.1])
    def test_banned_top_reference_is_the_most_probable_id_left(
        self, large_vectors, weights_sizes, band_sizes, monkeypatch, temperature
    ):
        # the top is banned and the two largest left are one float64 ulp
        # apart, the higher one at the higher id: the band's bar is the
        # higher one's, and the certified draw picks the full path's ids
        probs = large_vectors["zipf"].copy()
        order = np.argsort(-probs, kind="stable")
        lo_id, hi_id = sorted(order[1:3].tolist())
        second = float(probs[order[1]])
        probs[lo_id] = second
        probs[hi_id] = np.nextafter(second, 1.0)
        ban = np.array([order[0]])
        masked = probs.copy()
        masked[ban] = 0.0
        assert int(np.argmax(masked)) == hi_id
        bars = []
        head = sampling._head

        def bar_spy(v, bar, banned=None):
            bars.append(bar)
            return head(v, bar, banned)

        monkeypatch.setattr(sampling, "_head", bar_spy)
        keep, w = tempered_argsort_nucleus(masked, temperature, 0.95)
        us = [sampling_uniform(20, step) for step in range(40)]
        tokens = [sample_from_probs(probs, temperature, 0.95, u, ban) for u in us]
        assert tokens == [tempered_argsort_draw(keep, w, u) for u in us]
        assert not weights_sizes
        share = sampling._BAND_RATIO ** (1.0 / (1.0 / temperature))
        assert bars[1::2] == [float(probs[hi_id] * share)] * len(us)

    @pytest.mark.parametrize("temperature", [0.6, 0.1])
    def test_banned_top_far_above_the_rest_raises_no_warning(self, weights_sizes, temperature):
        # unnormalised probs whose banned top is 1e18 times the next: nothing
        # left lies within the top's bar, and the kept total's rounding on
        # 1e18 swamps the tail's moments, so every draw falls back to the
        # full path, without a warning
        rng = np.random.default_rng(18)
        probs = (rng.permutation(5000) + 1.0) ** -1.1
        probs /= probs.sum()
        top = int(rng.integers(5000))
        probs[top] = 1e18
        ban = np.array([top])
        masked = probs.copy()
        masked[ban] = 0.0
        keep, w = tempered_argsort_nucleus(masked, temperature, 0.9)
        us = [sampling_uniform(18, step) for step in range(20)]
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            tokens = [sample_from_probs(probs, temperature, 0.9, u, ban) for u in us]
        assert tokens == [tempered_argsort_draw(keep, w, u) for u in us]
        assert weights_sizes == [5000] * len(us)

    def test_flat_vector_gives_up_before_the_bounds(
        self, large_vectors, weights_sizes, band_sizes, monkeypatch
    ):
        # a band over the cap gives up after the compare pass and its count,
        # before any id is listed and before the moments are taken
        bounds = _counted(monkeypatch, "_moment_bounds", sampling)
        probs = large_vectors["uniform"]
        sample_from_probs(probs, 0.6, 0.95, 0.5)
        assert band_sizes[0] is None and not bounds
        assert weights_sizes == [QWEN_VOCAB]

    @pytest.mark.parametrize("temperature", [0.6, 0.1])
    @pytest.mark.parametrize("top_banned", [False, True])
    def test_banned_id_above_the_bar_never_enters_the_head(
        self, weights_sizes, temperature, top_banned
    ):
        # the gather drops the banned ids from its mask, so a banned id whose
        # probability is above the band's bar is never gathered, and the head
        # is the float64 head of the ids left
        rng = np.random.default_rng(int(temperature * 10) + top_banned)
        power = 1.0 / temperature
        vocab = 4096
        probs = (rng.permutation(vocab) + 1.0) ** -1.1
        top = int(np.argmax(probs))
        above = rng.choice(np.setdiff1d(np.arange(vocab), [top]), 3, replace=False)
        probs[above] = 0.9 * probs[top]  # far above the bar at any T < 1
        probs /= probs.sum()
        ban = np.sort(np.append(above, top) if top_banned else above)
        masked = probs.copy()
        masked[ban] = 0.0
        p_ref = masked.max()
        bar = float(p_ref * sampling._BAND_RATIO ** (1.0 / power))
        assert np.isin(ban, np.flatnonzero(probs >= bar)).all()
        ids = sampling._head(probs, bar, ban)
        assert np.array_equal(ids, np.flatnonzero(masked >= bar))
        w = probs[ids] ** power
        want = np.flatnonzero(masked**power >= p_ref**power * sampling._HEAD_RATIO)
        assert np.array_equal(ids[w >= p_ref**power * sampling._HEAD_RATIO], want)
        for top_p in (0.3, 0.6, 0.9):
            keep, weights = tempered_argsort_nucleus(masked, temperature, top_p)
            us = [sampling_uniform(22, step) for step in range(20)]
            weights_sizes.clear()
            tokens = [sample_from_probs(probs, temperature, top_p, u, ban) for u in us]
            assert tokens == [tempered_argsort_draw(keep, weights, u) for u in us], top_p
            assert not weights_sizes, top_p  # every draw was certified

    @pytest.mark.parametrize("temperature", [0.1, 0.6, 0.9])
    def test_probabilities_float64_ulps_from_the_bars(self, monkeypatch, temperature):
        # entries a few float64 ulp either side of the band's bar and of the
        # head's threshold, and on them.  Every cutoff among them draws the
        # full path's id, certified or not
        p_ref, power = 0.5, 1.0 / temperature
        bar = float(p_ref * sampling._BAND_RATIO ** (1.0 / power))
        edge = p_ref * sampling._HEAD_RATIO ** (1.0 / power)
        near = [edge * (1.0 + k * 2.0**-52) for k in (-2, -1, 0, 1, 2)]
        near += [bar * (1.0 + k * 2.0**-52) for k in (-2, -1, 0, 1, 2)]
        near += [float(np.nextafter(bar, 0.0)), float(np.nextafter(bar, 1.0))]
        near += [edge * 1.5, edge * 3.0]
        rng = np.random.default_rng(int(temperature * 10))
        tail = np.full(500, p_ref * 2.0 ** (-30.0 * temperature))
        probs = rng.permutation(np.concatenate([[p_ref], near, tail]))
        outcomes = []
        certified = sampling._certified_nucleus

        def spy(*args):
            kept = certified(*args)
            outcomes.append(kept is not None)
            return kept

        monkeypatch.setattr(sampling, "_certified_nucleus", spy)
        w = probs**power
        ranked = np.cumsum(np.sort(w)[::-1]) / w.sum()
        for k in range(len(near) + 2):
            top_p = float((ranked[k] + ranked[k + 1]) / 2.0)
            keep, weights = tempered_argsort_nucleus(probs, temperature, top_p)
            for step in range(8):
                u = sampling_uniform(23, step)
                got = sample_from_probs(probs, temperature, top_p, u)
                assert got == tempered_argsort_draw(keep, weights, u), (k, step)
        # the head holds the reference and the entries at or above the
        # threshold, so the lower cutoffs are certified and the rest fall back
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("temperature", [0.1, 0.6, 0.9])
    @pytest.mark.parametrize("top_banned", [False, True])
    def test_reference_at_the_precondition_edge(self, monkeypatch, temperature, top_banned):
        # p_ref ** (1/T) swept across _MIN_TOTAL: below it the certified
        # path gives way; above it, it certifies.  Either way the draw is
        # the full path's
        outcomes = []
        certified = sampling._certified_nucleus

        def spy(*args):
            kept = certified(*args)
            outcomes.append(kept is not None)
            return kept

        monkeypatch.setattr(sampling, "_certified_nucleus", spy)
        edge = sampling._MIN_TOTAL ** (1.0 / (1.0 / temperature))
        shape = np.array([1.0, 0.9, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01, 1e-3])
        for k in range(-64, 65, 8):  # steps far above the rounding of the power
            p_ref = edge * (1.0 + k * 2.0**-44)
            probs = p_ref * shape
            ban = None
            if top_banned:
                probs = np.append(probs, 2.0 * p_ref)
                ban = np.array([probs.size - 1])
            masked = probs.copy()
            if ban is not None:
                masked[ban] = 0.0
            ratios = masked / masked.max()  # the full path's rebuild when p ** a underflows
            for top_p in (0.3, 0.8):
                keep, weights = tempered_argsort_nucleus(ratios, temperature, top_p)
                for step in range(4):
                    u = sampling_uniform(24, step)
                    got = sample_from_probs(probs, temperature, top_p, u, ban)
                    assert got == tempered_argsort_draw(keep, weights, u), (k, top_p, step)
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("temperature", [0.1, 0.6, 0.9])
    def test_top_at_the_overflow_edge(self, monkeypatch, temperature):
        # p_top ** max(1/T, 2) * V swept across 2 ** 1023: above it the
        # certified path gives way, below it, it certifies.  Either way the
        # draw is the full path's, without a warning
        outcomes = []
        certified = sampling._certified_nucleus

        def spy(*args):
            kept = certified(*args)
            outcomes.append(kept is not None)
            return kept

        monkeypatch.setattr(sampling, "_certified_nucleus", spy)
        shape = np.array([1.0, 0.9, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01, 1e-3])
        power = max(1.0 / temperature, 2.0)
        edge = 2.0 ** ((1023.0 - math.log2(shape.size)) / power)
        for k in range(-64, 65, 8):  # steps far above the rounding of log2
            probs = edge * (1.0 + k * 2.0**-40) * shape
            for top_p in (0.3, 0.8):
                keep, weights = tempered_argsort_nucleus(shape, temperature, top_p)
                for step in range(4):
                    u = sampling_uniform(25, step)
                    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
                        warnings.simplefilter("error")
                        got = sample_from_probs(probs, temperature, top_p, u)
                    assert got == tempered_argsort_draw(keep, weights, u), (k, top_p, step)
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("placement", ["above", "below", "estimate"])
    def test_cutoff_inside_the_margin_falls_back(self, large_vectors, weights_sizes, placement):
        # top_p sits between the shares that the float64 total and a total
        # inside the bounds give the ranked token crossing 0.9: a lower bound
        # alone would cut that token ("above"), an upper bound alone would
        # keep one more ("below"), and so would the bracket's midpoint
        temperature, probs = 0.6, large_vectors["zipf"]
        power = 1.0 / temperature
        w, sums = _weights(probs, power, None)
        total = float(sums[-1])
        top = int(np.argmax(probs))
        b = float(probs[top] * sampling._BAND_RATIO**temperature)
        p = probs[sampling._head(probs, b)]
        lo, hi = sampling._moment_bounds(p, p**power, probs, b, power, None, float(probs.sum()))
        other = {"above": (total + lo) / 2, "below": (total + hi) / 2, "estimate": (lo + hi) / 2}
        order = np.argsort(-w, kind="stable")
        share = sampling._prefix_sum(w[order[:64]] / total)
        k = int(share.searchsorted(0.9))
        moved = float(sampling._prefix_sum(w[order[:64]] / other[placement])[k])
        assert moved != share[k]
        top_p = 0.5 * (float(share[k]) + moved)
        keep, _ = tempered_argsort_nucleus(probs, temperature, top_p)
        wrong = np.sort(order[: sampling._cutoff(w[order[:64]], other[placement], top_p) + 1])
        us = [sampling_uniform(13, step) for step in range(100)]
        expected = [tempered_argsort_draw(keep, w, u) for u in us]
        assert expected != [tempered_argsort_draw(wrong, w, u) for u in us]
        assert [sample_from_probs(probs, temperature, top_p, u) for u in us] == expected
        assert weights_sizes == [QWEN_VOCAB] * 100

    @pytest.mark.parametrize("temperature", [0.6, 0.1])
    def test_strided_view_draws_as_its_contiguous_copy(self, large_vectors, temperature):
        probs = large_vectors["zipf"]
        wide = np.zeros((QWEN_VOCAB, 3))
        wide[:, 1] = probs
        view = wide[:, 1]
        reversed_view = probs[::-1].copy()[::-1]
        ban = np.sort(np.argsort(-probs, kind="stable")[3:8])
        for step in range(30):
            u = sampling_uniform(14, step)
            for banned in (None, ban):
                expected = sample_from_probs(probs, temperature, 0.95, u, banned)
                assert sample_from_probs(view, temperature, 0.95, u, banned) == expected
                assert sample_from_probs(reversed_view, temperature, 0.95, u, banned) == expected

    @pytest.mark.parametrize("name", ["sparse", "zipf_with_zeros"])
    def test_exact_zeros_raise_no_warning(self, large_vectors, name):
        if name == "sparse":
            probs = large_vectors["sparse"]
        else:
            probs = large_vectors["zipf"].copy()
            probs[np.random.default_rng(15).random(QWEN_VOCAB) < 0.5] = 0.0
        ban = np.sort(np.argsort(-probs, kind="stable")[1:4])
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            for temperature in (0.9, 0.6, 0.3, 0.1):
                for banned in (None, ban):
                    for step in range(5):
                        u = sampling_uniform(16, step)
                        sample_from_probs(probs, temperature, 0.95, u, banned)
