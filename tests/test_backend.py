"""Backend tests: toy suffix machine, top-k reconstruction, remote wire client."""

from __future__ import annotations

import math
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import requests

from cgrs.backend import (
    LOGIT_BIAS_BAN,
    BackendError,
    EmissionRule,
    RemoteBackend,
    RetryableBackendError,
    ToyBackend,
    ToyModelSpec,
    UnsupportedOperationError,
    ban_bias,
    overthinking_spec,
    reconstruct_distribution,
)
from cgrs.certainty import TokenDistribution, certainty_score, token_entropy
from cgrs.lexicon import Vocabulary, build_trigger_set

from remote_stub import toy_completion_server

PROBE_TOKEN = "**Final Answer: \\boxed"


def scan_match_rule(spec: ToyModelSpec, context: list[int]) -> str:
    """Reference match: scan the rules longest suffix first, ties in spec order.

    Raises BackendError for a context no rule matches, with the same message as
    the backend.
    """
    vocab = Vocabulary(spec.tokens)
    order = max((len(r.suffix) for r in spec.rules), default=0)
    tail = [vocab.id_to_token[i] for i in context[-order:]] if order else []
    for rule in sorted(spec.rules, key=lambda r: -len(r.suffix)):
        n = len(rule.suffix)
        if n <= len(tail) and tuple(tail[len(tail) - n:]) == rule.suffix:
            return rule.name
    raise BackendError(f"no emission rule matches context tail {tail!r}")


class RecordingSession:
    """Stands in for a client's ``requests.Session``.

    Keeps each request as ``requests`` would prepare it, so ``.body`` holds
    the exact bytes sent, and answers every one with ``outcome``: a JSON
    reply, or an exception to raise.
    """

    def __init__(self, outcome):
        self.outcome = outcome
        self.sent: list[requests.PreparedRequest] = []

    def post(self, url, json, headers, timeout):
        self.sent.append(requests.Request("POST", url, json=json, headers=headers).prepare())
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return SimpleNamespace(status_code=200, json=lambda: self.outcome, text="")


def tiny_spec() -> ToyModelSpec:
    """Two-state machine with overlapping suffixes for precedence checks."""
    return ToyModelSpec(
        tokens=("<eos>", "a", "b"),
        eos_token="<eos>",
        rules=(
            EmissionRule("short", ("b",), {"a": 1.0}),
            EmissionRule("long", ("a", "b"), {"<eos>": 1.0}),
            EmissionRule("start", ("a",), {"b": 1.0}),
        ),
    )


class TestEmissionRule:
    def test_unknown_emit_type(self):
        # "dist" is the one rule form; the old "scripted" form is refused by name
        for emit_type in ("?", "scripted"):
            with pytest.raises(ValueError, match=f"emission rule type: '{emit_type}'"):
                EmissionRule.from_json_dict(
                    {"name": "r", "suffix": [], "emit": {"type": emit_type}}
                )


class TestToyBackend:
    def test_longest_suffix_wins(self):
        backend = ToyBackend(tiny_spec())
        enc = backend.vocabulary.encode
        assert backend.match_rule(enc("ab")) == "long"
        assert backend.match_rule(enc("bab")) == "long"
        assert backend.match_rule(enc("b")) == "short"
        assert backend.match_rule(enc("a")) == "start"

    def test_no_match_raises_with_tail(self):
        backend = ToyBackend(tiny_spec())
        with pytest.raises(BackendError, match="<eos>"):
            backend.next_distribution([backend.eos_token_id])

    def test_purity_and_copy_semantics(self):
        backend = ToyBackend(tiny_spec())
        ctx = backend.vocabulary.encode("ab")
        first = backend.next_distribution(ctx)
        with pytest.raises(ValueError, match="read-only"):
            first.probs[0] = 0.123  # no caller can vandalize the model
        second = backend.next_distribution(ctx)
        assert second.probs[backend.eos_token_id] == 1.0
        assert second.probs.sum() == 1.0

    @pytest.mark.parametrize("suffix", [(), ("a",), ("b", "a")])
    def test_duplicate_suffix_names_both_rules(self, suffix):
        spec = ToyModelSpec(
            tokens=("<eos>", "a", "b"),
            eos_token="<eos>",
            rules=(
                EmissionRule("first", suffix, {"a": 1.0}),
                EmissionRule("other", ("b", "b"), {"a": 1.0}),
                EmissionRule("second", suffix, {"<eos>": 1.0}),
            ),
        )
        message = f"rules 'first' and 'second' share the suffix {list(suffix)!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ToyBackend(spec)

    def test_match_equals_sorted_scan(self):
        # three letters make suffixes of orders 0-3 overlap heavily
        rng = random.Random(11)
        letters = ("a", "b", "c")
        matched = unmatched = 0
        for _ in range(300):
            suffixes = {
                tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(1, 8))
            }
            rules = tuple(
                EmissionRule(f"r{i}", suffix, {rng.choice(letters): 1.0})
                for i, suffix in enumerate(rng.sample(sorted(suffixes), len(suffixes)))
            )
            spec = ToyModelSpec(tokens=("<eos>", *letters), eos_token="<eos>", rules=rules)
            backend = ToyBackend(spec)
            for _ in range(10):
                context = [rng.randint(0, 3) for _ in range(rng.randint(0, 6))]
                try:
                    expected = scan_match_rule(spec, context)
                except BackendError as oracle_exc:
                    with pytest.raises(BackendError) as exc:
                        backend.match_rule(context)
                    assert str(exc.value) == str(oracle_exc)
                    unmatched += 1
                else:
                    assert backend.match_rule(context) == expected
                    matched += 1
        assert matched > 1500 and unmatched > 300

    def test_sample_token_unsupported(self):
        # in-engine sampling backends inherit the raising default
        with pytest.raises(UnsupportedOperationError):
            ToyBackend(tiny_spec()).sample_token([1], 1.0, 1.0, seed=0)

    def test_order_zero_model(self, deadline):
        # an empty suffix ignores the context, so the tail state is always ()
        spec = ToyModelSpec(
            tokens=("<eos>", "a", "b"),
            eos_token="<eos>",
            rules=(EmissionRule("any", (), {"a": 0.5, "b": 0.25, "<eos>": 0.25}),),
        )
        backend = ToyBackend(spec)
        assert backend.max_order == 0
        assert backend.match_rule([1, 2, 1]) == "any"
        with deadline(2):
            assert backend.reachable_rule_names([[1, 2, 1], []]) == {"any"}

    def test_eos_must_be_in_vocab(self):
        with pytest.raises(ValueError, match="eos"):
            ToyBackend(
                ToyModelSpec(tokens=("a",), eos_token="<eos>", rules=())
            )

    def test_duplicate_rule_names_rejected(self):
        spec = ToyModelSpec(
            tokens=("<eos>", "a"),
            eos_token="<eos>",
            rules=(
                EmissionRule("r", ("a",), {"<eos>": 1.0}),
                EmissionRule("r", ("<eos>",), {"a": 1.0}),
            ),
        )
        with pytest.raises(ValueError, match="unique"):
            ToyBackend(spec)

    def test_probabilities_must_sum_to_one(self):
        spec = ToyModelSpec(
            tokens=("<eos>", "a"),
            eos_token="<eos>",
            rules=(EmissionRule("r", ("a",), {"<eos>": 0.9}),),
        )
        with pytest.raises(ValueError, match="sum"):
            ToyBackend(spec)

    def test_nan_probability_rejected_at_construction(self):
        # NaN passes both `prob < 0` and the sum check; the model must still refuse it
        spec = ToyModelSpec(
            tokens=("<eos>", "a"),
            eos_token="<eos>",
            rules=(
                EmissionRule("r", ("a",), {"<eos>": 1.0}),
                EmissionRule("bad", ("<eos>",), {"a": float("nan")}),
            ),
        )
        with pytest.raises(ValueError, match="rule 'bad': probs must be finite"):
            ToyBackend(spec)

    def test_unknown_rule_token_rejected(self):
        spec = ToyModelSpec(
            tokens=("<eos>", "a"),
            eos_token="<eos>",
            rules=(EmissionRule("r", ("a",), {"zzz": 1.0}),),
        )
        with pytest.raises(ValueError, match="zzz"):
            ToyBackend(spec)

    def test_distribution_is_valid(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        ctx = vocab.encode("Solve 6*7. Let me compute. \n\n")
        dist = overthinking_backend.next_distribution(ctx)
        assert dist.probs.size == vocab.size
        assert abs(dist.probs.sum() - 1.0) < 1e-12


class TestOverthinkingSpec:
    def test_reflect_probabilities(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        dist = overthinking_backend.next_distribution(vocab.encode("\n\n"))
        assert dist.probs[vocab.token_to_id["Wait"]] == 0.3
        assert dist.probs[vocab.token_to_id["So the answer: \\boxed"]] == 0.7

    def test_probe_path_distributions(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        d1 = overthinking_backend.next_distribution(vocab.encode(PROBE_TOKEN))
        assert d1.probs[vocab.token_to_id["{"]] == 0.98
        assert d1.probs[vocab.token_to_id["Wait"]] == 0.02
        d2 = overthinking_backend.next_distribution(vocab.encode(PROBE_TOKEN + "{"))
        assert d2.probs[vocab.token_to_id["42"]] == 0.96
        assert d2.probs[vocab.token_to_id["Let me compute. "]] == 0.04

    def test_probe_certainty_frozen_value(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        dists = [
            overthinking_backend.next_distribution(vocab.encode(PROBE_TOKEN)),
            overthinking_backend.next_distribution(vocab.encode(PROBE_TOKEN + "{")),
        ]
        score = certainty_score(dists, vocab_size=vocab.size)
        assert abs(score.value - 0.94453818229027586) < 1e-12

    def test_main_conclusion_is_deterministic(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        dist = overthinking_backend.next_distribution(
            vocab.encode("So the answer: \\boxed{")
        )
        assert dist.probs[vocab.token_to_id["42"]] == 1.0

    def test_demo_file_in_sync(self):
        demo = Path(__file__).resolve().parents[1] / "demo" / "toy_overthinking.json"
        assert ToyModelSpec.from_json_file(demo) == overthinking_spec()

    def test_probe_rules_unreachable_from_main_path(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        main = overthinking_backend.reachable_rule_names([vocab.encode("Solve 6*7. ")])
        assert "probe_open" not in main and "probe_value" not in main
        probe = overthinking_backend.reachable_rule_names([vocab.encode(PROBE_TOKEN)])
        assert "probe_open" in probe

    def test_custom_trigger_prob(self):
        backend = ToyBackend(overthinking_spec(trigger_prob=0.5))
        vocab = backend.vocabulary
        dist = backend.next_distribution(vocab.encode("\n\n"))
        assert dist.probs[vocab.token_to_id["Wait"]] == 0.5


class TestReconstructDistribution:
    def test_half_quarter_example(self):
        dist = reconstruct_distribution({3: math.log(0.5), 8: math.log(0.25)}, vocab_size=100)
        assert dist.truncated
        assert dist.outcome_token_ids == (3, 8)
        assert np.allclose(dist.probs, [0.5, 0.25, 0.25], atol=1e-12)
        assert dist.top_id == 3
        h = token_entropy(dist)
        assert abs(h - 1.5 * math.log(2)) < 1e-12

    def test_overflow_within_guard_renormalized(self):
        # observed mass 1.0004: clamp residual to zero and renormalize
        lp = math.log(0.5002)
        dist = reconstruct_distribution({0: lp, 1: lp}, vocab_size=10)
        assert abs(dist.probs.sum() - 1.0) < 1e-12
        assert dist.probs[-1] == 0.0
        assert abs(dist.probs[0] - 0.5) < 1e-9

    def test_overflow_beyond_guard_rejected(self):
        lp = math.log(0.51)
        with pytest.raises(ValueError, match="sum"):
            reconstruct_distribution({0: lp, 1: lp}, vocab_size=10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            reconstruct_distribution({}, vocab_size=10)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            reconstruct_distribution({0: float("nan")}, vocab_size=4)

    @pytest.mark.parametrize("bad", [-1, 11])
    def test_id_outside_vocab_rejected(self, bad):
        # a negative id would index the vocabulary from its end
        with pytest.raises(ValueError, match=f"top-k id {bad} "):
            reconstruct_distribution({bad: math.log(0.6), 5: math.log(0.3)}, vocab_size=11)

    @pytest.mark.parametrize("key", ["3", 3.0, True, None], ids=["str", "float", "bool", "none"])
    def test_non_integer_id_rejected(self, key):
        with pytest.raises(ValueError, match=f"top-k id {key!r} is not an integer"):
            reconstruct_distribution({key: -0.1}, vocab_size=10)

    def test_more_entries_than_vocab_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_distribution({0: -1.0, 1: -1.0, 2: -1.0}, vocab_size=2)

    def test_aggregation_lower_bounds_entropy(self):
        # pooling the unobserved tail into one bucket can only remove entropy
        rng = np.random.default_rng(90)
        for _ in range(300):
            n = int(rng.integers(4, 40))
            full = rng.dirichlet(np.ones(n))
            k = int(rng.integers(1, n))
            top = np.argsort(-full, kind="stable")[:k]
            logprobs = {int(i): float(np.log(full[int(i)])) for i in top}
            rebuilt = reconstruct_distribution(logprobs, vocab_size=n)
            assert token_entropy(rebuilt) <= token_entropy(TokenDistribution(full)) + 1e-9

    def test_certainty_upper_bounds_full(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            full = rng.dirichlet(np.ones(n))
            k = int(rng.integers(1, n))
            top = np.argsort(-full, kind="stable")[:k]
            logprobs = {int(i): float(np.log(full[int(i)])) for i in top}
            rebuilt = reconstruct_distribution(logprobs, vocab_size=n)
            c_full = certainty_score([TokenDistribution(probs=full)], vocab_size=n).value
            c_top = certainty_score([rebuilt], vocab_size=n).value
            assert c_top >= c_full - 1e-9


class TestApplyRemoteSuppression:
    """The wire ban map the session sends on masked remote steps."""

    def test_bans_every_trigger(self, overthinking_triggers):
        bias = ban_bias(overthinking_triggers.token_ids)
        assert set(bias) == set(overthinking_triggers.token_ids)
        for token_id in overthinking_triggers.token_ids:
            assert bias[token_id] == LOGIT_BIAS_BAN == -100.0


class TestRemoteBackend:
    def test_next_distribution_matches_toy(self):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(
                vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>", top_k=5
            )
            ctx = toy.vocabulary.encode("\n\n")
            dist = remote.next_distribution(ctx)
            assert dist.truncated
            by_id = dict(zip(dist.outcome_token_ids, dist.probs))
            wait_id = toy.vocabulary.token_to_id["Wait"]
            conclude_id = toy.vocabulary.token_to_id["So the answer: \\boxed"]
            assert abs(by_id[wait_id] - 0.3) < 1e-9
            assert abs(by_id[conclude_id] - 0.7) < 1e-9
            # both outcomes observed, so the residual bucket carries no mass
            assert dist.probs[-1] < 1e-9

    def test_capabilities(self):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, top_k=7)
            caps = remote.capabilities
            assert not caps.full_distribution
            assert caps.logit_bias

    def test_sample_token_greedy(self):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            tok = remote.sample_token(ctx, temperature=0.0, top_p=1.0, seed=0)
            assert toy.vocabulary.id_to_token[tok] == "Let me compute. "

    def test_sample_token_eos_returns_none(self):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            ctx = toy.vocabulary.encode("Solve 6*7. Let me compute. \n\n" + "}")
            assert remote.sample_token(ctx, temperature=0.0, top_p=1.0, seed=0) is None

    def test_logit_bias_bans_trigger(self):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            triggers = build_trigger_set(["Wait"], toy.vocabulary)
            ctx = toy.vocabulary.encode("Solve 6*7. Let me compute. \n\n")
            bias = ban_bias(triggers.token_ids)
            for seed in range(30):
                tok = remote.sample_token(ctx, temperature=1.0, top_p=1.0, seed=seed, logit_bias=bias)
                assert toy.vocabulary.id_to_token[tok] == "So the answer: \\boxed"

    def test_sampling_seed_determinism(self):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            ctx = toy.vocabulary.encode("Solve 6*7. Let me compute. \n\n")
            a = [remote.sample_token(ctx, 1.0, 1.0, seed=s) for s in range(10)]
            b = [remote.sample_token(ctx, 1.0, 1.0, seed=s) for s in range(10)]
            assert a == b
            assert len(set(a)) > 1  # seed actually steers the draw

    def test_transient_500_retried(self):
        with toy_completion_server(overthinking_spec(), fail_first=1) as (base_url, toy):
            remote = RemoteBackend(
                vocab=toy.vocabulary,
                base_url=base_url,
                eos_token="<eos>",
                max_retries=2,
                retry_backoff=0.01,
            )
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            tok = remote.sample_token(ctx, temperature=0.0, top_p=1.0, seed=0)
            assert toy.vocabulary.id_to_token[tok] == "Let me compute. "

    def test_persistent_500_exhausts_retries(self):
        with toy_completion_server(overthinking_spec(), fail_first=10) as (base_url, toy):
            remote = RemoteBackend(
                vocab=toy.vocabulary,
                base_url=base_url,
                eos_token="<eos>",
                max_retries=1,
                retry_backoff=0.01,
            )
            with pytest.raises(RetryableBackendError):
                remote.next_distribution(toy.vocabulary.encode("Solve 6*7. "))

    def test_timed_out_request_recovers_on_retry(self):
        with toy_completion_server(overthinking_spec(), fail_first=1, fault="timeout") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(
                vocab=toy.vocabulary,
                base_url=base_url,
                eos_token="<eos>",
                timeout=0.2,
                max_retries=1,
                retry_backoff=0,
            )
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            tok = remote.sample_token(ctx, temperature=0.0, top_p=1.0, seed=0)
            assert toy.vocabulary.id_to_token[tok] == "Let me compute. "

    def test_persistent_timeout_exhausts_retries(self):
        with toy_completion_server(overthinking_spec(), fail_first=2, fault="timeout") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(
                vocab=toy.vocabulary,
                base_url=base_url,
                eos_token="<eos>",
                timeout=0.2,
                max_retries=1,
                retry_backoff=0,
            )
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            with pytest.raises(RetryableBackendError, match="transport failure after retries: "):
                remote.next_distribution(ctx)
            # both faulty replies are used up: the next request is served
            assert remote.next_distribution(ctx).probs.size > 1

    def test_truncated_reply_recovers_on_retry(self):
        # a body shorter than its Content-Length used to escape as
        # requests' ChunkedEncodingError and abort the whole benchmark run
        with toy_completion_server(overthinking_spec(), fail_first=1, fault="truncated") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(
                vocab=toy.vocabulary,
                base_url=base_url,
                eos_token="<eos>",
                max_retries=1,
                retry_backoff=0,
            )
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            tok = remote.sample_token(ctx, temperature=0.0, top_p=1.0, seed=0)
            assert toy.vocabulary.id_to_token[tok] == "Let me compute. "

    def test_persistent_truncated_reply_exhausts_retries(self):
        with toy_completion_server(overthinking_spec(), fail_first=2, fault="truncated") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(
                vocab=toy.vocabulary,
                base_url=base_url,
                eos_token="<eos>",
                max_retries=1,
                retry_backoff=0,
            )
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            with pytest.raises(
                RetryableBackendError,
                match="transport failure after retries: ChunkedEncodingError",
            ):
                remote.next_distribution(ctx)
            # both faulty replies are used up: the next request is served
            assert remote.next_distribution(ctx).probs.size > 1

    def test_other_request_failures_are_named_and_not_retried(self):
        remote = RemoteBackend(
            vocab=Vocabulary(["<eos>", "Wait"]), base_url="http://unused", max_retries=3
        )
        session = RecordingSession(requests.TooManyRedirects("Exceeded 30 redirects."))
        remote._local.session = session
        with pytest.raises(BackendError, match="request failed: TooManyRedirects") as err:
            remote.sample_token([1], temperature=1.0, top_p=1.0, seed=0)
        assert not isinstance(err.value, RetryableBackendError)
        assert len(session.sent) == 1

    def test_request_bodies_are_pinned(self, monkeypatch):
        monkeypatch.delenv("CGRS_MODEL", raising=False)
        monkeypatch.delenv("CGRS_API_KEY", raising=False)
        vocab = Vocabulary(["<eos>", "Wait", " so"])
        remote = RemoteBackend(vocab=vocab, base_url="http://host:8000/", top_k=5)
        session = remote._local.session = RecordingSession(
            {"choices": [{"text": "Wait", "logprobs": {"top_logprobs": [{"Wait": 0.0}]}}]}
        )
        remote.next_distribution([1, 2])
        assert remote.sample_token([1, 2], temperature=0.6, top_p=0.95, seed=7) == 1
        monkeypatch.setenv("CGRS_MODEL", "served-model")
        remote = RemoteBackend(vocab=vocab, base_url="http://host:8000", api_key="k")
        remote._local.session = session
        remote.sample_token([1], 1.0, 1.0, seed=3, logit_bias={2: LOGIT_BIAS_BAN, 0: -5.0})
        assert [r.body for r in session.sent] == [
            b'{"prompt": "Wait so", "max_tokens": 1, "temperature": 1.0, "top_p": 1.0, '
            b'"logprobs": 5}',
            b'{"prompt": "Wait so", "max_tokens": 1, "temperature": 0.6, "top_p": 0.95, '
            b'"seed": 7}',
            b'{"prompt": "Wait", "max_tokens": 1, "temperature": 1.0, "top_p": 1.0, "seed": 3, '
            b'"logit_bias": {"2": -100.0, "0": -5.0}, "model": "served-model"}',
        ]
        assert {r.url for r in session.sent} == {"http://host:8000/v1/completions"}
        assert [r.headers.get("Authorization") for r in session.sent] == [None, None, "Bearer k"]
        assert all(r.headers["Content-Type"] == "application/json" for r in session.sent)

    def test_non_json_body_is_a_backend_error(self):
        with toy_completion_server(overthinking_spec(), fail_first=2, fault="non_json") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            with pytest.raises(BackendError, match="malformed completion response") as err:
                remote.next_distribution(ctx)
            assert not isinstance(err.value, RetryableBackendError)
            with pytest.raises(BackendError, match="body is not JSON"):
                remote.sample_token(ctx, temperature=0.0, top_p=1.0, seed=0)
            # the fault was not sticky: the next reply parses again
            tok = remote.sample_token(ctx, temperature=0.0, top_p=1.0, seed=0)
            assert toy.vocabulary.id_to_token[tok] == "Let me compute. "

    @pytest.mark.parametrize(
        "logprobs, message",
        [
            ({"top_logprobs": [["Wait", -0.1]]}, "malformed completion response: top_logprobs"),
            ({"top_logprobs": [{"Wait": "x"}]}, "malformed completion response"),
            ({"top_logprobs": [{"Wait": 0.0, "<eos>": 0.0}]}, "sum to 2.0"),
            ({"top_logprobs": []}, "no top_logprobs"),
            ([{"Wait": -0.1}], "no top_logprobs"),
            (None, "no top_logprobs"),
        ],
    )
    def test_malformed_top_logprobs(self, monkeypatch, logprobs, message):
        remote = RemoteBackend(vocab=Vocabulary(["<eos>", "Wait"]), base_url="http://unused")
        reply = {"choices": [{"text": "Wait", "logprobs": logprobs}]}
        monkeypatch.setattr(remote, "_post", lambda payload: reply)
        with pytest.raises(BackendError, match=message):
            remote.next_distribution([1])

    @pytest.mark.parametrize("data", [[], {"choices": "x"}, {"choices": [None]}])
    def test_malformed_choices_are_backend_errors(self, monkeypatch, data):
        remote = RemoteBackend(vocab=Vocabulary(["<eos>", "Wait"]), base_url="http://unused")
        monkeypatch.setattr(remote, "_post", lambda payload: data)
        with pytest.raises(BackendError, match="malformed completion response"):
            remote.sample_token([1], temperature=1.0, top_p=1.0, seed=0)

    @pytest.mark.parametrize(
        "choice",
        [{"text": ["Wait"]}, {"text": {"Wait": 1}}, {"text": 7}, {}],
        ids=["list", "object", "number", "missing"],
    )
    def test_non_string_text_is_a_backend_error(self, monkeypatch, choice):
        # a choice without text used to read as end of stream, ending the run as eos
        remote = RemoteBackend(vocab=Vocabulary(["<eos>", "Wait"]), base_url="http://unused")
        monkeypatch.setattr(remote, "_post", lambda payload: {"choices": [choice]})
        message = f"malformed completion response: text {choice.get('text')!r}"
        with pytest.raises(BackendError, match=re.escape(message)):
            remote.sample_token([1], temperature=1.0, top_p=1.0, seed=0)

    def test_multi_token_text_names_the_surface(self):
        with toy_completion_server(overthinking_spec(), fail_first=1, fault="multi_token") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            surface = repr("Let me compute. \n\n")
            with pytest.raises(BackendError, match=f"not in vocabulary: {re.escape(surface)}"):
                remote.sample_token(ctx, temperature=0.0, top_p=1.0, seed=0)

    def test_each_thread_gets_its_own_session(self):
        remote = RemoteBackend(vocab=Vocabulary(["<eos>"]), base_url="http://unused")
        here = remote._session
        assert remote._session is here  # reused within a thread
        barrier = threading.Barrier(4)

        def grab(_):
            barrier.wait(timeout=10)  # four threads at once, none reused
            return remote._session

        with ThreadPoolExecutor(max_workers=4) as pool:
            sessions = list(pool.map(grab, range(4)))
        assert len({id(s) for s in sessions}) == 4
        assert all(s is not here for s in sessions)

    def test_env_configuration(self, monkeypatch):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            monkeypatch.setenv("CGRS_API_BASE", base_url)
            monkeypatch.setenv("CGRS_MODEL", "toy-model")
            remote = RemoteBackend(vocab=toy.vocabulary, eos_token="<eos>")
            ctx = toy.vocabulary.encode("Solve 6*7. ")
            assert remote.sample_token(ctx, 0.0, 1.0, seed=0) is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"retry_backoff": -0.1},
            {"retry_backoff": math.inf},
            {"retry_backoff": math.nan},
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"timeout": math.inf},
            {"timeout": math.nan},
            {"top_k": 0},
            {"base_url": "localhost:8000"},
            {"base_url": "http://localhost:8000/v1"},
            {"base_url": "http://localhost:8000/V1/"},
        ],
    )
    def test_broken_client_settings_rejected(self, kwargs):
        # before, max_retries=-1 sent no request, a negative backoff or a
        # fractional retry count raised from time.sleep or range mid-run, a
        # base URL with no scheme raised requests' InvalidSchema on each request,
        # and one ending in /v1 sent each request to /v1/v1/completions
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RemoteBackend(vocab=Vocabulary(["<eos>"]), **{"base_url": "http://unused", **kwargs})

    def test_no_retries_and_no_backoff_accepted(self):
        remote = RemoteBackend(
            vocab=Vocabulary(["<eos>"]),
            base_url="http://unused",
            top_k=1,
            max_retries=0,
            retry_backoff=0.0,
        )
        assert remote.eos_token_id is None

    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv("CGRS_API_BASE", raising=False)
        with pytest.raises(ValueError, match="CGRS_API_BASE"):
            RemoteBackend(vocab=Vocabulary(["a"]))

    def test_eos_must_be_in_vocab(self):
        # the surface comes from --remote-eos; it used to raise a bare KeyError
        with pytest.raises(ValueError, match="'</s>' missing from vocabulary"):
            RemoteBackend(vocab=Vocabulary(["<eos>"]), base_url="http://unused", eos_token="</s>")
        remote = RemoteBackend(
            vocab=Vocabulary(["a", "<eos>"]), base_url="http://unused", eos_token="<eos>"
        )
        assert remote.eos_token_id == 1
