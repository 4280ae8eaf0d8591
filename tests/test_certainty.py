"""Certainty scoring tests: entropy oracle, normalization, boundary cases."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cgrs import certainty, controller
from cgrs.backend import ToyBackend, overthinking_spec
from cgrs.certainty import (
    TokenDistribution,
    certainty_score,
    token_entropy,
)
from cgrs.controller import GenerationConfig, ModeSpec, generate
from cgrs.lexicon import build_trigger_set, default_trigger_words

QWEN_VOCAB = 151_936


def entropy_oracle(probs):
    """Independent reference: -sum p ln p via math.log, skipping zeros."""
    return -sum(p * math.log(p) for p in probs if p > 0.0)


class TestTokenEntropy:
    def test_uniform_4(self):
        h = token_entropy(TokenDistribution(np.full(4, 0.25)))
        assert abs(h - math.log(4)) < 1e-12

    def test_one_hot_is_zero(self):
        h = token_entropy(TokenDistribution(np.array([0.0, 1.0, 0.0, 0.0])))
        assert h == 0.0

    def test_half_quarter_quarter(self):
        h = token_entropy(TokenDistribution(np.array([0.5, 0.25, 0.25])))
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
            assert abs(token_entropy(TokenDistribution(probs)) - entropy_oracle(probs)) < 1e-12

    @pytest.mark.parametrize("raw", [np.full(4, 0.25), [0.25] * 4], ids=["array", "list"])
    def test_raw_vector_names_token_distribution(self, raw):
        with pytest.raises(TypeError, match="expected a TokenDistribution, got"):
            token_entropy(raw)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            probs = rng.dirichlet(np.ones(n))
            h = token_entropy(TokenDistribution(probs))
            assert -1e-15 <= h <= math.log(n) + 1e-12


def masked_copy_entropy(p):
    """The masked-copy formula: the bits every entropy path must return."""
    nz = p[p > 0.0]
    return float(-np.add.reduce(nz * np.log(nz)))


def zero_layout(name, vocab, rng):
    """Indices to zero in a ``vocab``-entry vector; every layout leaves a nonzero."""
    k = min(29, vocab - 1)
    if name == "no_zeros":
        return np.arange(0)
    if name == "leading_run":
        return np.arange(k)
    if name == "zipf":  # as in perfbench's model: a run, one nonzero, another run
        return np.delete(np.arange(k + 1), (k + 1) // 2)
    if name == "trailing_run":
        return np.arange(vocab - k, vocab)
    if name == "scattered_and_adjacent":
        scattered = rng.choice(vocab, size=min(12, vocab - 1), replace=False)
        return np.unique(np.concatenate([scattered, scattered[:4] + 1])) % vocab
    if name == "all_zero_but_one":
        return np.delete(np.arange(vocab), int(rng.integers(vocab)))
    raise AssertionError(name)


LAYOUTS = (
    "no_zeros", "leading_run", "zipf", "trailing_run", "scattered_and_adjacent",
    "all_zero_but_one",
)


def layout_probs(name, vocab, rng, alpha=1.0):
    probs = rng.dirichlet(np.full(vocab, alpha))
    probs[zero_layout(name, vocab, rng)] = 0.0
    if probs.sum() == 0.0:  # a low alpha can leave all mass on zeroed entries
        probs[0 if name == "trailing_run" else -1] = 1.0
    return probs / probs.sum()


@pytest.fixture
def runs_taken(monkeypatch):
    """Counts the calls that take the run-by-run path."""
    calls = []
    inner = certainty._entropy_by_runs

    def spy(p, zeros):
        calls.append(p.size)
        return inner(p, zeros)

    monkeypatch.setattr(certainty, "_entropy_by_runs", spy)
    return calls


class TestEntropyBits:
    """Every path of ``token_entropy`` returns the masked-copy formula's bits."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("vocab", [2, 11, QWEN_VOCAB])
    def test_layouts(self, vocab, layout):
        rng = np.random.default_rng([vocab, LAYOUTS.index(layout)])
        for alpha in (0.05, 1.0):
            probs = layout_probs(layout, vocab, rng, alpha)
            probs.flags.writeable = False  # the path must not write into probs
            before = probs.copy()
            expected = masked_copy_entropy(probs)
            assert certainty._entropy(probs) == expected
            dist = TokenDistribution(probs)
            assert token_entropy(dist) == expected
            assert np.array_equal(probs, before)
            # the kept values are a fresh copy's, bit for bit
            fresh = TokenDistribution(probs.copy())
            assert token_entropy(dist) == token_entropy(fresh) == expected
            assert dist.total == fresh.total == float(np.einsum("i->", probs))
            assert dist.top_id == fresh.top_id == int(probs.argmax())

    def test_zipf_layout_takes_the_runs(self, runs_taken):
        probs = layout_probs("zipf", QWEN_VOCAB, np.random.default_rng(3))
        assert token_entropy(TokenDistribution(probs)) == masked_copy_entropy(probs)
        assert runs_taken == [QWEN_VOCAB]

    @pytest.mark.parametrize("vocab", [2, 11])
    def test_small_vectors_keep_the_masked_copy(self, vocab, runs_taken):
        probs = layout_probs("zipf", vocab, np.random.default_rng(vocab))
        assert token_entropy(TokenDistribution(probs)) == masked_copy_entropy(probs)
        assert runs_taken == []

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_size_boundary(self, offset, runs_taken):
        vocab = certainty._MIN_ENTRIES_PER_RUN + offset
        probs = layout_probs("no_zeros", vocab, np.random.default_rng(vocab))
        assert token_entropy(TokenDistribution(probs)) == masked_copy_entropy(probs)
        assert runs_taken == ([vocab] if offset == 0 else [])

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("placement", ["scattered", "adjacent"])
    def test_zero_count_boundary(self, extra, placement, runs_taken):
        # the most zeros the run path accepts at |V| = 151,936, then one more
        n_zeros = QWEN_VOCAB // certainty._MIN_ENTRIES_PER_RUN - 1 + extra
        rng = np.random.default_rng([n_zeros, len(placement)])
        probs = rng.dirichlet(np.ones(QWEN_VOCAB))
        if placement == "scattered":
            zeros = rng.choice(QWEN_VOCAB, size=n_zeros, replace=False)
        else:
            zeros = np.arange(500, 500 + n_zeros)
        probs[zeros] = 0.0
        probs /= probs.sum()
        assert np.count_nonzero(probs == 0.0) == n_zeros
        assert token_entropy(TokenDistribution(probs)) == masked_copy_entropy(probs)
        assert runs_taken == ([] if extra else [QWEN_VOCAB])

    def test_truncated_top_k(self, runs_taken):
        rng = np.random.default_rng(23)
        for k in (1, 5, 20):
            probs = rng.dirichlet(np.full(k + 1, 0.3))
            probs[0] = 0.0  # a top-k entry can round to zero
            probs /= probs.sum()
            ids = tuple(int(i) for i in rng.choice(QWEN_VOCAB, size=k, replace=False))
            dist = TokenDistribution(probs, outcome_token_ids=ids)
            assert token_entropy(dist) == masked_copy_entropy(probs)
            assert token_entropy(dist) == masked_copy_entropy(probs)  # kept
        assert runs_taken == []

    def test_zipf_layout_makes_no_vector_copy(self):
        # one 8|V|-byte buffer of terms; the masked copy needed two such arrays.
        # The read-only array makes a new distribution, whose entropy is not
        # kept yet.  Its validation's argmax copies the read-only array, but
        # that copy is freed before the buffer of terms is allocated.
        probs = TokenDistribution(layout_probs("zipf", QWEN_VOCAB, np.random.default_rng(7))).probs
        token_entropy(TokenDistribution(probs))  # warm any lazy allocation
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            token_entropy(TokenDistribution(probs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * QWEN_VOCAB


class TestTokenDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TokenDistribution(probs=np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            TokenDistribution(probs=np.array([0.5, 0.4]))

    def test_accepts_within_normalization_tolerance(self):
        TokenDistribution(probs=np.array([0.5, 0.5 + 5e-7]))

    @pytest.mark.parametrize("layout", ["zipf", "uniform"])
    def test_normalization_edge_over_the_vocabulary(self, layout):
        # the validation sum errs by far less than the 1e-8 between each pair
        base = np.full(QWEN_VOCAB, 1.0)
        if layout == "zipf":
            base = (np.random.default_rng(3).permutation(QWEN_VOCAB) + 1.0) ** -1.1
        base /= math.fsum(base)
        for sign in (1.0, -1.0):
            TokenDistribution(probs=base * (1.0 + sign * 0.99e-6))
            with pytest.raises(ValueError, match="sum to 1"):
                TokenDistribution(probs=base * (1.0 + sign * 1.01e-6))

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
        # truncated is read from outcome_token_ids; it cannot be set apart from them
        assert not TokenDistribution(probs=np.array([0.5, 0.5])).truncated
        d = TokenDistribution(probs=np.array([0.6, 0.3, 0.1]), outcome_token_ids=(7, 2))
        assert d.truncated
        assert d.top_id == 7
        with pytest.raises(ValueError, match="residual bucket"):
            TokenDistribution(probs=np.array([0.6, 0.3, 0.1]), outcome_token_ids=(7,))

    def test_constructor_takes_probs_and_outcome_ids_only(self):
        settable = [f.name for f in dataclasses.fields(TokenDistribution) if f.init]
        assert settable == ["probs", "outcome_token_ids"]

    def test_compares_and_hashes_by_identity(self):
        # the generated __eq__ compared the probs arrays and raised on their truth value
        a = TokenDistribution(np.array([0.25, 0.75]))
        b = TokenDistribution(np.array([0.25, 0.75]))
        assert a == a and a != b and a != copy.copy(a)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
        assert [a, b].index(b) == 1

    def test_argmax_full(self):
        d = TokenDistribution(probs=np.array([0.1, 0.7, 0.2]))
        assert d.top_id == 1

    def test_argmax_tie_lowest_index(self):
        d = TokenDistribution(probs=np.array([0.4, 0.4, 0.2]))
        assert d.top_id == 0

    @pytest.mark.parametrize("truncated", [False, True])
    def test_probs_are_read_only_after_validation(self, truncated):
        caller = np.array([0.25, 0.75])
        ids = (4,) if truncated else None
        d = TokenDistribution(caller, outcome_token_ids=ids)
        with pytest.raises(ValueError, match="read-only"):
            d.probs[0] = 5.0
        assert np.shares_memory(d.probs, caller)  # a view, not a copy
        assert caller.flags.writeable  # the caller's array keeps its flags
        token_entropy(d)
        for other in (
            TokenDistribution([0.25, 0.75]),
            pickle.loads(pickle.dumps(d)),
            copy.deepcopy(d),
            copy.copy(d),
        ):
            with pytest.raises(ValueError, match="read-only"):
                other.probs[1] = 0.0
            assert other.total == d.total and token_entropy(other) == token_entropy(d)

    def test_read_only_input_is_kept_as_is(self):
        probs = np.array([0.25, 0.75])
        probs.flags.writeable = False
        assert TokenDistribution(probs).probs is probs


def three_pass_validation(probs, ids=None):
    """Reference: validation as three passes, ``min``, ``einsum`` and ``argmax``.

    ``ids`` given makes the vector a truncated one.  Returns the error
    message, or None, with the total's bits and the top id.
    """
    probs = np.asarray(probs, dtype=np.float64)
    lo = probs.min()
    total = float(np.einsum("i->", probs))
    if not (lo >= 0.0 and np.isfinite(total)):
        return "probs must be finite and nonnegative, with a finite sum", None, None
    if abs(total - 1.0) > certainty.NORMALIZATION_ATOL:
        return f"probs must sum to 1 within {certainty.NORMALIZATION_ATOL}, got {total}", None, None
    if ids is not None:
        if len(ids) != probs.size - 1:
            return "outcome_token_ids must cover all outcomes except the residual bucket", None, None
        try:
            top = ids[int(probs[:-1].argmax())]
        except ValueError as exc:
            return str(exc), None, None
    else:
        top = int(probs.argmax())
    return None, np.float64(total).view(np.int64), top


def validation(probs, ids=None):
    """:class:`TokenDistribution`'s validation, in :func:`three_pass_validation`'s terms."""
    try:
        dist = TokenDistribution(probs, outcome_token_ids=ids)
    except ValueError as exc:
        return str(exc), None, None
    return None, np.float64(dist.total).view(np.int64), dist.top_id


#: One entry of each kind that validation must tell apart.
SPECIAL_ENTRIES = {
    "zero": 0.0,
    "negative_zero": -0.0,
    "subnormal": 5e-324 * 12345,
    "tiny": 1e-300,
    "tie_at_max": None,  # takes the vector's largest value
    "pos_inf": np.inf,
    "neg_inf": -np.inf,
    "nan": np.nan,
    "sign_bit_nan": np.copysign(np.nan, -1.0),
    "negative": -1e-3,
}


def special_vector(base: np.ndarray, placed: dict[int, str]) -> np.ndarray:
    """``base`` with ``SPECIAL_ENTRIES`` written at the given ids.

    A finite entry that replaces mass gives it to the first id not written,
    so the vector keeps its sum where it can.
    """
    probs = base.copy()
    donor = next((i for i in range(probs.size) if i not in placed), None)
    for i, name in placed.items():
        value = probs.max() if name == "tie_at_max" else SPECIAL_ENTRIES[name]
        if donor is not None and math.isfinite(value) and name != "tie_at_max":
            probs[donor] += probs[i] - value
        probs[i] = value
    return probs


def layouts_of(probs: np.ndarray) -> dict[str, np.ndarray]:
    wide = np.zeros((probs.size, 2))
    wide[:, 1] = probs
    read_only = probs.copy()
    read_only.flags.writeable = False
    return {"contiguous": probs.copy(), "strided": wide[:, 1], "read_only": read_only}


class TestValidationFold:
    """Validation finds the top from the entries' bits, and takes the min test only on a set sign bit."""

    @pytest.mark.parametrize("vocab", [1, 2, 11, QWEN_VOCAB])
    def test_matches_three_passes(self, vocab):
        rng = np.random.default_rng(vocab)
        if vocab == QWEN_VOCAB:
            base = (rng.permutation(vocab) + 1.0) ** -1.1
        else:
            base = rng.dirichlet(np.ones(vocab))
        base /= math.fsum(base)
        spots = sorted({0, vocab // 2, vocab - 1})
        placements = [{i: name} for name in SPECIAL_ENTRIES for i in spots]
        if vocab > 1:  # every ordered pair of kinds, at the first and last ids
            placements += [
                {0: a, vocab - 1: b} for a in SPECIAL_ENTRIES for b in SPECIAL_ENTRIES
            ]
        checked, outcomes = 0, set()
        for placed in [{}] + placements:
            probs = special_vector(base, placed)
            with np.errstate(invalid="ignore", over="ignore"):
                for truncated in (False, True):
                    ids = tuple(range(100, 100 + vocab - 1)) if truncated else None
                    for layout, arr in layouts_of(probs).items():
                        want = three_pass_validation(arr, ids)
                        got = validation(arr, ids)
                        assert got == want, (placed, truncated, layout)
                        outcomes.add(want[0] is None)
                        checked += 1
        assert outcomes == {True, False} and checked >= 6 * (1 + len(placements))

    def test_negative_zero_is_accepted(self):
        for probs in ([0.25, -0.0, 0.75], [-0.0, 1.0], [1.0, -0.0], [0.5, 0.5, -0.0]):
            dist = TokenDistribution(np.array(probs))
            assert dist.total == 1.0
            assert dist.top_id == int(np.argmax(probs))

    def test_sign_bit_nan_is_rejected(self):
        negative_nan = np.copysign(np.nan, -1.0)
        assert np.signbit(negative_nan)
        for probs in ([negative_nan, 1.0], [0.5, 0.5, negative_nan]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                TokenDistribution(np.array(probs))

    @pytest.mark.parametrize("signed", [False, True], ids=["no_sign_bit", "negative_zero"])
    def test_full_vector_is_read_twice_without_a_sign_bit(self, signed):
        # every call validation makes on the vector (or a view of it) and
        # every einsum; reshaping calls (view) do not read the entries
        probs = (np.random.default_rng(5).permutation(QWEN_VOCAB) + 1.0) ** -1.1
        probs /= probs.sum()
        if signed:
            probs[7] = -0.0
        calls = Counter()

        def profile(frame, event, arg):
            owner = getattr(arg, "__self__", None)
            if event == "c_call" and isinstance(owner, np.ndarray) and owner.size == probs.size:
                calls[arg.__name__] += 1
            elif event == "call" and frame.f_code.co_name == "einsum":
                calls["einsum"] += 1

        sys.setprofile(profile)
        try:
            TokenDistribution(probs)
        finally:
            sys.setprofile(None)
        del calls["view"]
        if signed:
            assert calls == {"einsum": 1, "argmax": 2, "min": 1}
        else:
            assert calls == {"einsum": 1, "argmax": 1}


class TestKeptFacts:
    """A distribution computes its total, top id and entropy once and keeps them."""

    def test_one_computation_per_distribution_over_toy_generations(self, monkeypatch):
        # the entropy kernel and validation, where the top id is found, each
        # run once per distribution, although the backend serves it again and again
        entropies, built = Counter(), Counter()
        kernel, validate = certainty._entropy, TokenDistribution.__post_init__

        def entropy_spy(p):
            entropies[id(p)] += 1
            return kernel(p)

        def validate_spy(dist):
            validate(dist)
            built[id(dist.probs)] += 1

        monkeypatch.setattr(certainty, "_entropy", entropy_spy)
        monkeypatch.setattr(TokenDistribution, "__post_init__", validate_spy)
        scored, served = [], []
        score, next_distribution = controller.certainty_score, ToyBackend.next_distribution

        def counting_score(distributions, vocab_size):
            scored.extend(id(d.probs) for d in distributions)
            return score(distributions, vocab_size)

        def counting_next_distribution(backend, context):
            dist = next_distribution(backend, context)
            served.append(id(dist.probs))
            return dist

        monkeypatch.setattr(controller, "certainty_score", counting_score)
        monkeypatch.setattr(ToyBackend, "next_distribution", counting_next_distribution)
        backend = ToyBackend(overthinking_spec())  # built under the spies
        triggers = build_trigger_set(default_trigger_words(), backend.vocabulary)
        for seed in range(50):
            config = GenerationConfig(temperature=1.0, top_p=1.0, mode=ModeSpec("cgrs"), seed=seed)
            generate(backend, "Solve 6*7. ", config, triggers)
        assert set(entropies.values()) == {1} and set(built.values()) == {1}
        assert set(entropies) == set(scored) and set(served) <= set(built)
        assert len(scored) > 10 * len(entropies)
        assert len(served) > 10 * len(set(served))


class TestCertaintyScore:
    def test_uniform_then_onehot_vocab4(self):
        dists = [
            TokenDistribution(probs=np.full(4, 0.25)),
            TokenDistribution(probs=np.array([1.0, 0.0, 0.0, 0.0])),
        ]
        score = certainty_score(dists, vocab_size=4)
        assert abs(score.value - 0.5) < 1e-12
        assert abs(score.mean_entropy - math.log(4) / 2) < 1e-12

    def test_all_onehot_gives_one(self):
        dists = [TokenDistribution(probs=np.array([0.0, 1.0]))] * 3
        assert certainty_score(dists, vocab_size=2).value == 1.0

    def test_all_uniform_gives_zero(self):
        dists = [TokenDistribution(probs=np.full(8, 0.125))] * 5
        assert abs(certainty_score(dists, vocab_size=8).value) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            certainty_score([], vocab_size=4)

    def test_raw_vector_names_token_distribution(self):
        dists = [TokenDistribution(probs=np.full(4, 0.25)), np.full(4, 0.25)]
        with pytest.raises(TypeError, match="expected a TokenDistribution, got ndarray"):
            certainty_score(dists, vocab_size=4)

    def test_vocab_size_below_two_rejected(self):
        with pytest.raises(ValueError):
            certainty_score([TokenDistribution(probs=np.array([1.0]))], vocab_size=1)

    def test_length_mismatch_rejected(self):
        dists = [TokenDistribution(probs=np.full(4, 0.25))]
        with pytest.raises(ValueError, match="vocab"):
            certainty_score(dists, vocab_size=5)

    def test_truncated_distributions_use_declared_vocab(self):
        # 3 buckets but vocab_size 100: normalizer must be ln(100)
        d = TokenDistribution(probs=np.array([0.5, 0.25, 0.25]), outcome_token_ids=(3, 9))
        score = certainty_score([d], vocab_size=100)
        expected = 1.0 - 1.5 * math.log(2) / math.log(100)
        assert abs(score.value - expected) < 1e-12
        assert score.truncated

    @pytest.mark.parametrize("vocab", [2, 11, 151_936])
    def test_bits_match_the_reference_formula(self, vocab):
        # full TokenDistributions (two kinds of draw) and truncated top-k ones,
        # mixed, 1 to 33 tokens (probe_max_tokens is 32 by default); the score
        # must equal the reference to the last bit.  numpy adds fewer than 8
        # terms left to right and 8 or more pairwise, so 7 and 8 are always drawn.
        rng = np.random.default_rng(vocab)
        trials = 12 if vocab > 1000 else 200
        lengths = [7, 8] * 8 + [int(n) for n in rng.integers(1, 34, size=trials)]
        for trial, length in enumerate(lengths):
            dists = []
            for _ in range(length):
                kind = int(rng.integers(0, 3))
                if kind == 2:
                    k = int(rng.integers(1, min(vocab, 20) + 1))
                    probs = rng.dirichlet(np.full(k + 1, 0.3))
                    ids = tuple(int(i) for i in rng.choice(vocab, size=k, replace=False))
                    dists.append(TokenDistribution(probs, outcome_token_ids=ids))
                    continue
                probs = rng.dirichlet(np.full(vocab, 0.05 if trial % 2 else 1.0))
                probs[probs.argmin()] = 0.0  # an exact zero
                probs /= probs.sum()
                dists.append(TokenDistribution(probs))
            entropies = [token_entropy(d) for d in dists]
            mean = float(np.add.reduce(entropies)) / len(dists)
            score = certainty_score(dists, vocab)
            assert score.mean_entropy == mean
            assert score.value == 1 - mean / float(np.log(vocab))
            assert score.truncated == any(d.truncated for d in dists)

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
