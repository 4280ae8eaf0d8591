"""Suppression tests: ramp mapping, state transitions, logit masking, RNG streams."""

from __future__ import annotations

import math
import re
import sys
import threading

import numpy as np
import pytest

from cgrs import suppression
from cgrs.certainty import CertaintyScore
from cgrs.lexicon import TriggerTokenSet
from cgrs.rng import (
    _BLOCK,
    DECISION_STREAM,
    SAMPLING_STREAM,
    decision_uniform,
    derive_seed,
    sampling_uniform,
    stream_uniform,
)
from cgrs.suppression import (
    MASK_NEG_VALUE,
    check_trigger_ids,
    mask_triggers,
    should_suppress,
    suppression_probability,
    update_state,
)


class TestSuppressionProbability:
    def test_below_threshold_is_zero(self):
        assert suppression_probability(0.3, 0.9) == 0.0
        assert suppression_probability(0.9, 0.9) == 0.0

    def test_full_certainty_is_one(self):
        assert suppression_probability(1.0, 0.9) == 1.0
        assert suppression_probability(1.0, 0.0) == 1.0

    def test_linear_ramp_midpoint(self):
        assert abs(suppression_probability(0.95, 0.9) - 0.5) < 1e-12

    def test_float64_residue_above_threshold(self):
        # (0.926 - 0.9) / 0.1 in binary64 lands 3e-16 above 0.26
        p = suppression_probability(0.926, 0.9)
        assert p == 0.2600000000000003
        assert abs(p - 0.26) <= 1e-15

    def test_delta_zero_is_identity(self):
        rng = np.random.default_rng(5)
        for c in rng.random(100):
            assert suppression_probability(float(c), 0.0) == float(c)

    def test_delta_one_rejected(self):
        with pytest.raises(ValueError):
            suppression_probability(0.95, 1.0)

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            suppression_probability(-0.1, 0.9)
        with pytest.raises(ValueError):
            suppression_probability(1.1, 0.9)
        with pytest.raises(ValueError):
            suppression_probability(0.5, -0.2)

    def test_monotone_in_certainty(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            delta = float(rng.uniform(0.0, 0.99))
            a, b = sorted(rng.random(2))
            pa = suppression_probability(float(a), delta)
            pb = suppression_probability(float(b), delta)
            assert pa <= pb
            assert 0.0 <= pa <= 1.0 and 0.0 <= pb <= 1.0

    def test_continuity_across_threshold(self):
        # ramp is continuous at C = delta: both sides within eps/(1-delta)
        for delta in (0.0, 0.3, 0.9, 0.99):
            eps = 1e-9
            below = suppression_probability(max(delta - eps, 0.0), delta)
            above = suppression_probability(min(delta + eps, 1.0), delta)
            assert below == 0.0
            assert above <= eps / (1.0 - delta) + 1e-15


def make_score(value: float) -> CertaintyScore:
    """The score of an answer at certainty ``value`` over the toy's 11 tokens."""
    return CertaintyScore(value=value, mean_entropy=(1.0 - value) * math.log(11))


class TestStateTransitions:
    def test_update_applies_ramp(self):
        assert abs(update_state(make_score(0.95), 0.9) - 0.5) < 1e-12
        assert update_state(make_score(0.5), 0.9) == 0.0

    def test_decisions_are_random_access(self):
        forward = [should_suppress(0.5, 9, step) for step in range(200)]
        order = np.random.default_rng(3).permutation(200)
        shuffled = {int(step): should_suppress(0.5, 9, int(step)) for step in order}
        assert forward == [shuffled[step] for step in range(200)]
        assert forward == [decision_uniform(9, step) < 0.5 for step in range(200)]

    def test_p_zero_never_fires(self):
        for step in range(100):
            assert not should_suppress(0.0, 123, step)

    def test_p_one_always_fires(self):
        for step in range(100):
            assert should_suppress(1.0, 123, step)

    def test_empirical_rate_half(self):
        n = 10_000
        fires = sum(should_suppress(0.5, 42, step) for step in range(n))
        assert abs(fires / n - 0.5) < 0.02

    def test_decisions_are_replayable(self):
        for step in range(50):
            assert should_suppress(0.5, 7, step) == should_suppress(0.5, 7, step)


class TestDecisionFastPath:
    """At p <= 0 or p >= 1 the decision is fixed, so it is made without a draw."""

    # 5e-324 is the least positive double and 1 - 2**-53 the greatest one below 1
    @pytest.mark.parametrize("p", [0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, math.nan])
    def test_same_decision_as_the_draw(self, p):
        # steps 0-130 cross two 64-position block edges
        for seed in range(200):
            for step in range(131):
                assert should_suppress(p, seed, step) == (decision_uniform(seed, step) < p)

    @pytest.mark.parametrize("p, fires", [(0.0, False), (1.0, True)])
    def test_fixed_outcome_draws_nothing(self, monkeypatch, p, fires):
        calls = []

        def counting(seed, position):
            calls.append((seed, position))
            return decision_uniform(seed, position)

        monkeypatch.setattr(suppression, "decision_uniform", counting)
        assert [should_suppress(p, 5, step) for step in range(130)] == [fires] * 130
        assert calls == []
        assert should_suppress(0.5, 5, 3) == (decision_uniform(5, 3) < 0.5)
        assert calls == [(5, 3)]


class TestMaskTriggers:
    def test_masked_positions_exact_value(self):
        logits = np.array([1.0, 2.0, 3.0, 4.0])
        masked = mask_triggers(logits, {1, 3})
        assert masked[1] == MASK_NEG_VALUE == -1e9
        assert masked[3] == -1e9

    def test_unmasked_positions_bit_identical(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(2, 64))
            logits = rng.normal(size=n) * 10.0
            k = int(rng.integers(0, n))
            triggers = set(map(int, rng.choice(n, size=k, replace=False)))
            masked = mask_triggers(logits, triggers)
            for i in range(n):
                if i in triggers:
                    assert masked[i] == -1e9
                else:
                    assert masked[i] == logits[i]

    def test_input_not_mutated(self):
        logits = np.array([1.0, 2.0])
        snapshot = logits.copy()
        mask_triggers(logits, {0})
        assert np.array_equal(logits, snapshot)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            logits = rng.normal(size=16)
            triggers = {1, 5, 9}
            once = mask_triggers(logits, triggers)
            twice = mask_triggers(once, triggers)
            assert np.array_equal(once, twice)

    def test_commutes_with_shift_on_unmasked(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            logits = rng.normal(size=12)
            shift = float(rng.normal())
            triggers = {0, 4}
            a = mask_triggers(logits + shift, triggers)
            b = mask_triggers(logits, triggers) + shift
            keep = [i for i in range(12) if i not in triggers]
            assert np.array_equal(a[keep], b[keep])

    def test_empty_trigger_set_is_identity(self):
        logits = np.array([0.5, -0.5])
        assert np.array_equal(mask_triggers(logits, set()), logits)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError):
            mask_triggers(np.array([1.0, 2.0]), {2})
        with pytest.raises(ValueError):
            mask_triggers(np.array([1.0, 2.0]), {-1})

    def test_full_mask_guard(self):
        logits = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="mask"):
            mask_triggers(logits, {0, 1})

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError):
            mask_triggers(np.array([np.nan, 1.0]), {0})


def kept_ids(*ids: int) -> np.ndarray:
    return TriggerTokenSet(provenance={i: (f"t{i}", "t") for i in ids}).sorted_ids


class TestCheckTriggerIds:
    """The range test reads the ends of the kept sorted ids; its messages are fixed."""

    @pytest.mark.parametrize("ids, bad", [((3, 99), 99), ((-1, 3), -1), ((11,), 11), ((-5,), -5)])
    def test_out_of_range_message(self, ids, bad):
        message = f"trigger id {bad} out of range for vocabulary of 11"
        for form in (kept_ids(*ids), sorted(ids)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check_trigger_ids(form, 11)

    def test_full_vocabulary_message(self):
        message = (
            "trigger set covers the entire vocabulary of 11 tokens;"
            " a mask would leave nothing to sample"
        )
        for form in (kept_ids(*range(11)), list(range(11))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check_trigger_ids(form, 11)

    def test_in_range_sets_pass(self):
        for ids in ((), (0,), (10,), (0, 4, 10), tuple(range(10))):
            check_trigger_ids(kept_ids(*ids), 11)
            check_trigger_ids(sorted(ids), 11)


def one_draw_uniform(seed: int, stream: int, index: int) -> float:
    """Oracle: a fresh numpy Philox generator per draw, counter at ``index``."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    counter = np.array([index & mask, 0, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).random()


def block_edges() -> list[int]:
    """Stream indices at and around the first block boundaries, and 63-65."""
    b = _BLOCK
    return sorted({0, b - 1, b, b + 1, 2 * b - 1, 2 * b, 4 * b + 1, 63, 64, 65})


class TestRngStreams:
    @staticmethod
    def assert_matches_oracle(triples):
        for seed, stream, index in triples:
            value = stream_uniform(seed, stream, index)
            assert type(value) is float
            assert value == one_draw_uniform(seed, stream, index), (seed, stream, index)

    def test_matches_one_draw_oracle_on_random_triples(self):
        rng = np.random.default_rng(11)
        seeds = rng.integers(0, 2**63, size=300).tolist()
        indices = rng.integers(0, 2**63, size=300).tolist()
        self.assert_matches_oracle(
            (seed, stream, index)
            for seed, index in zip(seeds, indices)
            for stream in (SAMPLING_STREAM, DECISION_STREAM)
        )
        # small indices, as a decode loop draws them
        self.assert_matches_oracle(
            (seed, stream, index)
            for seed in seeds[:20]
            for stream in (SAMPLING_STREAM, DECISION_STREAM)
            for index in rng.integers(0, 4096, size=5).tolist()
        )

    def test_matches_one_draw_oracle_at_block_edges(self):
        top = 2**64
        edges = [*block_edges(), *range(top - 2 * _BLOCK, top)]
        self.assert_matches_oracle(
            (seed, stream, index)
            for seed in (0, 7, 2**64 - 1)
            for stream in (SAMPLING_STREAM, DECISION_STREAM)
            for index in edges
        )

    def test_oversized_and_negative_inputs_are_masked(self):
        top = 2**64
        # indices at and above 2**64 wrap to their low 64 bits
        wrapped = [top + edge for edge in block_edges()] + [3 * top + 70]
        self.assert_matches_oracle((5, SAMPLING_STREAM, index) for index in wrapped)
        assert stream_uniform(5, SAMPLING_STREAM, top + 3) == stream_uniform(5, SAMPLING_STREAM, 3)
        seeds = (top, top + 9, 2**80 + 1, -1, -2, -(2**70))
        self.assert_matches_oracle(
            (seed, stream, index)
            for seed in seeds
            for stream in (SAMPLING_STREAM, DECISION_STREAM)
            for index in (*block_edges(), 1000)
        )
        assert stream_uniform(-1, DECISION_STREAM, 9) == stream_uniform(top - 1, DECISION_STREAM, 9)

    def test_values_survive_cache_eviction(self):
        # more distinct seeds than the block cache holds, then the first ones again
        seeds = list(range(1000, 1200))
        first = {
            seed: [stream_uniform(seed, DECISION_STREAM, i) for i in (0, 70)] for seed in seeds
        }
        for seed in reversed(seeds[:80]):
            again = [stream_uniform(seed, DECISION_STREAM, i) for i in (0, 70)]
            assert again == first[seed]
            assert again == [one_draw_uniform(seed, DECISION_STREAM, i) for i in (0, 70)]

    def test_threads_drawing_distinct_blocks_match_oracle(self):
        # eight threads start together and draw far more distinct blocks than
        # the cache holds; each resets its own generator, so no thread's
        # block can carry another's key or counter
        n_threads, n_blocks = 8, 150
        barrier = threading.Barrier(n_threads)
        drawn: dict[int, list[tuple[tuple[int, int, int], float]]] = {}

        def draw(t: int) -> None:
            triples = [
                (5000 + 997 * t + k, 1 + k % 2, 64 * (t * n_blocks + k) + k % 64)
                for k in range(n_blocks)
            ]
            barrier.wait(timeout=30)
            drawn[t] = [(triple, stream_uniform(*triple)) for triple in triples]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(t,)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(drawn) == list(range(n_threads))
        for t, values in drawn.items():
            for (seed, stream, index), value in values:
                assert value == one_draw_uniform(seed, stream, index), (t, seed, stream, index)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            stream_uniform(1, SAMPLING_STREAM, -1)

    def test_streams_are_independent(self):
        # same seed, same index, different stream: distinct values
        for idx in range(20):
            a = sampling_uniform(42, idx)
            b = decision_uniform(42, idx)
            assert a != b

    def test_counter_random_access(self):
        # stateless: value at index k never depends on visiting order
        forward = [stream_uniform(7, SAMPLING_STREAM, i) for i in range(10)]
        backward = [stream_uniform(7, SAMPLING_STREAM, i) for i in reversed(range(10))]
        assert forward == backward[::-1]

    def test_uniform_range(self):
        vals = [stream_uniform(3, DECISION_STREAM, i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert abs(np.mean(vals) - 0.5) < 0.03

    def test_seed_sensitivity(self):
        a = [stream_uniform(1, SAMPLING_STREAM, i) for i in range(8)]
        b = [stream_uniform(2, SAMPLING_STREAM, i) for i in range(8)]
        assert a != b

    def test_derive_seed_spreads(self):
        base = 1234
        derived = {derive_seed(base, i) for i in range(1000)}
        assert len(derived) == 1000
        assert all(0 <= d < 2**64 for d in derived)

    def test_derive_seed_deterministic(self):
        assert derive_seed(99, 3) == derive_seed(99, 3)
        assert derive_seed(99, 3) != derive_seed(99, 4)
        assert derive_seed(98, 3) != derive_seed(99, 3)
