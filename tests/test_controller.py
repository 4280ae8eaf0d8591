"""Controller tests: checkpoint detection, probing, and the decode loop."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from cgrs.backend import EmissionRule, RemoteBackend, ToyBackend, ToyModelSpec, overthinking_spec
from cgrs.controller import (
    CheckpointDetector,
    DecodeTrace,
    GenerationConfig,
    GenerationSession,
    ProbeEmptyError,
    detect_checkpoint,
    generate,
    run_probe,
)
from cgrs.lexicon import TriggerTokenSet, build_trigger_set, default_trigger_words
from cgrs.rng import decision_uniform, sampling_uniform

from conftest import TOY_PROMPT
from remote_stub import toy_completion_server

# analytic values of the reference toy model's probe path
PROBE_CERTAINTY = 0.94453818229027586
PROBE_P = 0.445381822902758591


def toy_config(**overrides) -> GenerationConfig:
    base = dict(temperature=1.0, top_p=1.0, delta=0.9, max_tokens=200, seed=0)
    base.update(overrides)
    return GenerationConfig(**base)


def think_spec() -> ToyModelSpec:
    """Reflects inside a think block; a post-think Wait is forced once."""
    return ToyModelSpec(
        tokens=("<eos>", "Q", "</think>", "\n\n", "Wait", "done"),
        eos_token="<eos>",
        rules=(
            EmissionRule("q", ("Q",), {"\n\n": 1.0}),
            EmissionRule("loop", ("\n\n",), {"Wait": 0.4, "</think>": 0.6}),
            EmissionRule("reflect", ("\n\n", "Wait"), {"\n\n": 1.0}),
            EmissionRule("post", ("</think>",), {"Wait": 1.0}),
            EmissionRule("post_wait", ("</think>", "Wait"), {"done": 1.0}),
            EmissionRule("d", ("done",), {"<eos>": 1.0}),
        ),
    )


class TestGenerationConfig:
    def test_defaults(self):
        cfg = GenerationConfig()
        assert cfg.temperature == 0.6
        assert cfg.top_p == 0.95
        assert cfg.delta == 0.9
        assert cfg.checkpoint_marker == "\n\n"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -1.0},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"delta": 1.0},
            {"delta": -0.1},
            {"max_tokens": -1},
            {"probe_max_tokens": 0},
            {"checkpoint_marker": ""},
            {"probe_prompt": ""},
            {"min_tokens_between_probes": -1},
            {"fixed_p": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GenerationConfig(**kwargs)

    def test_json_dict_round_trip(self):
        cfg = toy_config(fixed_p=0.5, probe_stop_strings=["}"])
        data = cfg.to_json_dict()
        assert GenerationConfig(**data) == cfg


class TestCheckpointDetector:
    def test_single_marker_fires_once(self):
        det = CheckpointDetector("\n\n")
        assert det.feed("abc\n\n")

    def test_run_of_three_newlines_fires_once(self):
        det = CheckpointDetector("\n\n")
        assert det.feed("\n\n") == 1
        assert det.feed("\n") == 0  # extends the same run

    def test_separated_runs_fire_separately(self):
        det = CheckpointDetector("\n\n")
        assert det.feed("\n\n") == 1
        assert det.feed("a") == 0
        assert det.feed("\n\n") == 1

    def test_two_runs_in_one_chunk_both_counted(self):
        det = CheckpointDetector("\n\n")
        assert det.feed("\n\nxx\n\n") == 2

    def test_marker_split_across_feeds(self):
        det = CheckpointDetector("\n\n")
        assert det.feed("a\n") == 0
        assert det.feed("\nb") == 1

    def test_one_shot_helper(self):
        assert detect_checkpoint("x\n\ny", "\n\n")
        assert not detect_checkpoint("x\ny", "\n\n")
        assert detect_checkpoint("\n\n\n\n", "\n\n")

    def test_empty_marker_rejected(self):
        with pytest.raises(ValueError):
            CheckpointDetector("")

    def test_multichar_marker_overlap(self):
        # "ababa" holds two overlapping "aba"; they chain into one run
        det = CheckpointDetector("aba")
        assert det.feed("ababa") == 1
        assert det.feed("ba") == 0  # still chained: ...ababa+ba
        det2 = CheckpointDetector("aba")
        assert det2.feed("aba") == 1
        assert det2.feed("xxaba") == 1

    def fire_count(self, marker: str, chunks: list[str]) -> int:
        det = CheckpointDetector(marker)
        return sum(det.feed(c) for c in chunks)

    def test_chunking_invariance(self):
        rng = np.random.default_rng(60)
        alphabet = ["\n", "a", "b"]
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 40))))
            whole = self.fire_count("\n\n", [text])
            cuts = sorted(rng.integers(0, len(text) + 1, size=int(rng.integers(0, 6))))
            pieces = []
            prev = 0
            for c in list(cuts) + [len(text)]:
                pieces.append(text[prev:c])
                prev = int(c)
            assert self.fire_count("\n\n", pieces) == whole

    def test_fire_count_equals_marker_runs(self):
        # for the two-char homogeneous marker, fires = maximal \n blocks of len >= 2
        rng = np.random.default_rng(61)
        for _ in range(200):
            text = "".join(rng.choice(["\n", "x"]) for _ in range(int(rng.integers(0, 50))))
            expected = sum(
                1 for block in text.split("x") if len(block) >= 2
            )
            assert self.fire_count("\n\n", [text]) == expected


class TestRunProbe:
    def test_probe_answer_and_certainty(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        ctx = vocab.encode(TOY_PROMPT + "Let me compute. \n\n")
        cfg = toy_config()
        probe = run_probe(overthinking_backend, ctx, cfg)
        assert probe.answer_text == "{42"
        assert probe.stop_reason == "stop_string"
        assert probe.certainty.n_tokens == len(probe.answer_tokens) == 2
        assert abs(probe.certainty.value - PROBE_CERTAINTY) < 1e-12

    def test_probe_leaves_context_untouched(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        ctx = vocab.encode(TOY_PROMPT + "Let me compute. \n\n")
        snapshot = list(ctx)
        run_probe(overthinking_backend, ctx, toy_config())
        assert ctx == snapshot

    def test_probe_max_tokens_cut(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        ctx = vocab.encode(TOY_PROMPT + "Let me compute. \n\n")
        probe = run_probe(overthinking_backend, ctx, toy_config(probe_max_tokens=1))
        assert probe.stop_reason == "max_tokens"
        assert probe.answer_text == "{"
        assert probe.certainty.n_tokens == 1

    def test_stop_tokens_excluded_from_entropy(self, overthinking_backend):
        # the "}" close token is greedy-decoded but must not enter the average
        vocab = overthinking_backend.vocabulary
        ctx = vocab.encode(TOY_PROMPT + "Let me compute. \n\n")
        probe = run_probe(overthinking_backend, ctx, toy_config())
        close_id = vocab.token_to_id["}"]
        assert close_id not in probe.answer_tokens

    def test_probe_immediate_eos_raises(self):
        spec = ToyModelSpec(
            tokens=("<eos>", "Q", "P"),
            eos_token="<eos>",
            rules=(
                EmissionRule("q", ("Q",), {"P": 1.0}),
                EmissionRule("p", ("P",), {"<eos>": 1.0}),
            ),
        )
        backend = ToyBackend(spec)
        cfg = toy_config(probe_prompt="P")
        with pytest.raises(ProbeEmptyError):
            run_probe(backend, backend.vocabulary.encode("Q"), cfg)

    def test_probe_immediate_stop_string_raises(self):
        spec = ToyModelSpec(
            tokens=("<eos>", "Q", "P", "}"),
            eos_token="<eos>",
            rules=(
                EmissionRule("q", ("Q",), {"P": 1.0}),
                EmissionRule("p", ("P",), {"}": 1.0}),
                EmissionRule("close", ("}",), {"<eos>": 1.0}),
            ),
        )
        backend = ToyBackend(spec)
        cfg = toy_config(probe_prompt="P", probe_stop_strings=("}",))
        with pytest.raises(ProbeEmptyError):
            run_probe(backend, backend.vocabulary.encode("Q"), cfg)

    def test_probe_record_does_not_grow_with_vocab(self):
        # same rules plus 50,000 unused filler tokens: a probe record holds
        # its answer and certainty evidence, whose size does not depend on V
        spec = overthinking_spec()
        fillers = tuple(f"<filler {i}>" for i in range(50_000))
        backend = ToyBackend(dataclasses.replace(spec, tokens=spec.tokens + fillers))
        triggers = build_trigger_set(default_trigger_words(), backend.vocabulary)
        trace = generate(backend, TOY_PROMPT, toy_config(seed=0), triggers)
        assert trace.checkpoint_events
        for event in trace.checkpoint_events:
            assert event.probe.certainty.vocab_size == 50_011
            assert len(json.dumps(event.probe.to_json_dict())) < 1024


class TestGenerationLoop:
    def test_vanilla_reaches_boxed_answer(self, overthinking_backend, overthinking_triggers):
        cfg = toy_config(suppression_enabled=False, seed=3)
        trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
        assert trace.finish_reason == "eos"
        assert not trace.truncated
        assert trace.text.endswith("So the answer: \\boxed{42}")
        assert trace.suppression_decisions == []
        assert trace.checkpoint_events == []

    def test_disabled_suppression_never_masks(self, overthinking_backend, overthinking_triggers):
        wait_id = overthinking_backend.vocabulary.token_to_id["Wait"]
        found_wait = False
        for seed in range(40):
            cfg = toy_config(suppression_enabled=False, seed=seed)
            trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
            found_wait = found_wait or wait_id in trace.tokens
        assert found_wait  # the trigger does appear when nothing is masked

    def test_fixed_p_one_bans_triggers(self, overthinking_backend, overthinking_triggers):
        wait_id = overthinking_backend.vocabulary.token_to_id["Wait"]
        for seed in range(40):
            cfg = toy_config(fixed_p=1.0, seed=seed)
            trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
            assert wait_id not in trace.tokens
            assert trace.token_count == 6  # deterministic shortest path
            assert trace.checkpoint_events == []  # pinned p skips probing

    def test_fixed_p_zero_matches_vanilla(self, overthinking_backend, overthinking_triggers):
        for seed in range(40):
            vanilla = generate(
                overthinking_backend,
                TOY_PROMPT,
                toy_config(suppression_enabled=False, seed=seed),
                overthinking_triggers,
            )
            fixed0 = generate(
                overthinking_backend,
                TOY_PROMPT,
                toy_config(fixed_p=0.0, seed=seed),
                overthinking_triggers,
            )
            assert fixed0.tokens == vanilla.tokens

    def test_certainty_guided_probing(self, overthinking_backend, overthinking_triggers):
        vocab = overthinking_backend.vocabulary
        marker_id = vocab.token_to_id["\n\n"]
        cfg = toy_config(seed=11)
        trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
        checkpoints = [i for i, t in enumerate(trace.tokens) if t == marker_id]
        assert len(trace.checkpoint_events) == len(checkpoints)
        for event, step in zip(trace.checkpoint_events, checkpoints):
            assert event.step == step
            assert abs(event.probe.certainty.value - PROBE_CERTAINTY) < 1e-12
            assert abs(event.p_after - PROBE_P) < 1e-12
            assert event.probe.answer_text == "{42"

    def test_p_zero_before_first_checkpoint(self, overthinking_backend, overthinking_triggers):
        for seed in range(20):
            trace = generate(
                overthinking_backend, TOY_PROMPT, toy_config(seed=seed), overthinking_triggers
            )
            first_event = trace.checkpoint_events[0]
            for decision in trace.suppression_decisions:
                if decision.step <= first_event.step:
                    assert decision.p == 0.0
                    assert decision.r is False
                else:
                    assert abs(decision.p - PROBE_P) < 1e-12

    def test_p_constant_between_checkpoints(self, overthinking_backend, overthinking_triggers):
        trace = generate(
            overthinking_backend, TOY_PROMPT, toy_config(seed=5), overthinking_triggers
        )
        events = {e.step: e.p_after for e in trace.checkpoint_events}
        current = 0.0
        by_step = {d.step: d.p for d in trace.suppression_decisions}
        for step in range(trace.token_count):
            if step in by_step:
                assert by_step[step] == current
            if step in events:
                current = events[step]

    def test_one_decision_per_emitted_token(self, overthinking_backend, overthinking_triggers):
        trace = generate(
            overthinking_backend, TOY_PROMPT, toy_config(seed=9), overthinking_triggers
        )
        # a decision precedes every sampled token, including the final EOS try
        steps = [d.step for d in trace.suppression_decisions]
        assert steps == list(range(len(steps)))
        assert len(steps) >= trace.token_count

    @pytest.mark.parametrize(
        "think, overrides",
        [
            (False, {"suppression_enabled": False}),
            (False, {"fixed_p": 0.5}),
            (False, {"fixed_p": 1.0}),
            (False, {}),
            (True, {"fixed_p": 0.5, "restrict_to_thinking": True}),
            (True, {"fixed_p": 1.0, "restrict_to_thinking": True}),
        ],
        ids=["vanilla", "fixed-0.5", "fixed-1", "cgrs", "think-0.5", "think-1"],
    )
    def test_decisions_replay_from_seed_and_step(
        self, think, overrides, overthinking_backend, overthinking_triggers
    ):
        # each decision is the seed's decision uniform at its step against the
        # recorded p, and decision steps form a prefix 0..k-1 of the steps
        backend, triggers, prompt = overthinking_backend, overthinking_triggers, TOY_PROMPT
        if think:
            backend = ToyBackend(think_spec())
            triggers = build_trigger_set(["Wait"], backend.vocabulary)
            prompt = "Q"
        for seed in range(40):
            cfg = toy_config(seed=seed, **overrides)
            trace = generate(backend, prompt, cfg, triggers)
            decisions = trace.suppression_decisions
            assert [d.step for d in decisions] == list(range(len(decisions)))
            for d in decisions:
                assert d.r == (decision_uniform(seed, d.step) < d.p)
            if not cfg.suppression_enabled:
                assert decisions == []

    def test_truncation_by_max_tokens(self, overthinking_backend, overthinking_triggers):
        cfg = toy_config(max_tokens=3, suppression_enabled=False)
        trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
        assert trace.truncated
        assert trace.finish_reason == "length"
        assert trace.token_count == 3

    def test_trace_determinism(self, overthinking_backend, overthinking_triggers):
        a = generate(overthinking_backend, TOY_PROMPT, toy_config(seed=21), overthinking_triggers)
        b = generate(overthinking_backend, TOY_PROMPT, toy_config(seed=21), overthinking_triggers)
        assert a.to_json() == b.to_json()

    def test_seed_changes_trajectory(self, overthinking_backend, overthinking_triggers):
        lengths = {
            generate(
                overthinking_backend, TOY_PROMPT, toy_config(seed=s), overthinking_triggers
            ).token_count
            for s in range(30)
        }
        assert len(lengths) > 1

    def test_trace_json_shape(self, overthinking_backend, overthinking_triggers):
        trace = generate(
            overthinking_backend, TOY_PROMPT, toy_config(seed=2), overthinking_triggers
        )
        data = json.loads(trace.to_json())
        for key in (
            "prompt",
            "tokens",
            "text",
            "checkpoint_events",
            "suppression_decisions",
            "token_count",
            "truncated",
            "finish_reason",
            "config",
        ):
            assert key in data
        assert data["token_count"] == len(data["tokens"])
        assert data["text"] == "".join(
            overthinking_backend.vocabulary.id_to_token[t] for t in data["tokens"]
        )

    def test_trigger_ids_validated_against_vocab(self, overthinking_backend):
        bogus = TriggerTokenSet(
            token_ids=frozenset({99}), provenance={99: ("zz", "zz")}
        )
        with pytest.raises(ValueError, match="trigger id"):
            GenerationSession(overthinking_backend, TOY_PROMPT, toy_config(), bogus)

    def test_trigger_set_covering_vocabulary_rejected(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        every = TriggerTokenSet(
            token_ids=frozenset(range(vocab.size)),
            provenance={i: (vocab.id_to_token[i], "x") for i in range(vocab.size)},
        )
        with pytest.raises(ValueError, match="entire vocabulary of 11 tokens"):
            GenerationSession(overthinking_backend, TOY_PROMPT, toy_config(), every)

    def test_ban_leaving_no_mass_keeps_model_odds(self):
        # after "Q" only the triggers carry mass; a p = 1 ban then draws them at
        # the model's 0.7 : 0.3, not uniformly
        spec = ToyModelSpec(
            tokens=("<eos>", "Wait", "Hmm", "Q"),
            eos_token="<eos>",
            rules=(
                EmissionRule("q", ("Q",), {"Wait": 0.7, "Hmm": 0.3}),
                EmissionRule("w", ("Wait",), {"<eos>": 1.0}),
                EmissionRule("h", ("Hmm",), {"<eos>": 1.0}),
            ),
        )
        backend = ToyBackend(spec)
        triggers = TriggerTokenSet(
            token_ids=frozenset({1, 2}), provenance={1: ("Wait", "wait"), 2: ("Hmm", "hmm")}
        )
        for seed in range(200):
            cfg = toy_config(seed=seed, fixed_p=1.0, max_tokens=1)
            trace = generate(backend, "Q", cfg, triggers)
            assert trace.suppression_decisions[0].r
            assert trace.tokens == [1 if sampling_uniform(seed, 0) < 0.7 else 2], seed

    def test_probes_consume_no_sampling_randomness(
        self, overthinking_backend, overthinking_triggers
    ):
        # delta above the probe certainty: p stays 0, yet probes still run.
        # the trajectory must match the no-suppression run token for token.
        for seed in range(25):
            probing = generate(
                overthinking_backend,
                TOY_PROMPT,
                toy_config(seed=seed, delta=0.99),
                overthinking_triggers,
            )
            vanilla = generate(
                overthinking_backend,
                TOY_PROMPT,
                toy_config(seed=seed, suppression_enabled=False),
                overthinking_triggers,
            )
            assert probing.tokens == vanilla.tokens
            assert probing.checkpoint_events  # probes really happened
            assert all(e.p_after == 0.0 for e in probing.checkpoint_events)

    def test_min_tokens_between_probes_throttles(self, overthinking_triggers):
        backend = ToyBackend(overthinking_spec(trigger_prob=0.85))
        free = generate(
            backend, TOY_PROMPT, toy_config(seed=8, delta=0.99), overthinking_triggers
        )
        throttled = generate(
            backend,
            TOY_PROMPT,
            toy_config(seed=8, delta=0.99, min_tokens_between_probes=10_000),
            overthinking_triggers,
        )
        assert free.tokens == throttled.tokens  # p stays 0 either way
        assert len(free.checkpoint_events) > 1
        assert len(throttled.checkpoint_events) == 1

    def test_probe_empty_keeps_previous_p(self):
        spec = ToyModelSpec(
            tokens=("<eos>", "Q", "\n\n", "Wait", "done", "P"),
            eos_token="<eos>",
            rules=(
                EmissionRule("q", ("Q",), {"\n\n": 1.0}),
                EmissionRule("loop", ("\n\n",), {"Wait": 0.5, "done": 0.5}),
                EmissionRule("w", ("Wait",), {"\n\n": 1.0}),
                EmissionRule("d", ("done",), {"<eos>": 1.0}),
                EmissionRule("probe", ("P",), {"<eos>": 1.0}),
            ),
        )
        backend = ToyBackend(spec)
        triggers = build_trigger_set(["Wait"], backend.vocabulary)
        cfg = toy_config(probe_prompt="P", seed=4)
        trace = generate(backend, "Q", cfg, triggers)
        assert trace.checkpoint_events == []
        assert all(d.p == 0.0 for d in trace.suppression_decisions)
        assert trace.finish_reason == "eos"

    def test_restrict_to_thinking(self):
        backend = ToyBackend(think_spec())
        vocab = backend.vocabulary
        triggers = build_trigger_set(["Wait"], vocab)
        cfg = toy_config(fixed_p=1.0, restrict_to_thinking=True, seed=0)
        trace = generate(backend, "Q", cfg, triggers)
        surfaces = [vocab.id_to_token[t] for t in trace.tokens]
        # in-think Wait is masked away; the forced post-think Wait survives
        assert surfaces == ["\n\n", "</think>", "Wait", "done"]
        think_end = surfaces.index("</think>")
        active_steps = {d.step for d in trace.suppression_decisions}
        assert active_steps == set(range(think_end + 1))


class TestRemoteGeneration:
    def test_remote_cgrs_run(self, overthinking_triggers):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(
                vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>", top_k=11
            )
            cfg = toy_config(seed=13)
            trace = generate(remote, TOY_PROMPT, cfg, overthinking_triggers)
            assert trace.finish_reason == "eos"
            assert trace.text.endswith("So the answer: \\boxed{42}")
            assert trace.checkpoint_events
            # remote probes see the full support via top-k, so the score matches
            for event in trace.checkpoint_events:
                assert abs(event.probe.certainty.value - PROBE_CERTAINTY) < 1e-6

    def test_remote_bias_masking(self, overthinking_triggers):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            wait_id = toy.vocabulary.token_to_id["Wait"]
            for seed in range(10):
                trace = generate(
                    remote, TOY_PROMPT, toy_config(fixed_p=1.0, seed=seed), overthinking_triggers
                )
                assert wait_id not in trace.tokens

    def test_remote_run_deterministic(self, overthinking_triggers):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            a = generate(remote, TOY_PROMPT, toy_config(seed=19), overthinking_triggers)
            b = generate(remote, TOY_PROMPT, toy_config(seed=19), overthinking_triggers)
            assert a.tokens == b.tokens
