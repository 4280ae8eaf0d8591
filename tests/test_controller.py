"""Controller tests: checkpoint detection, probing, and the decode loop."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from cgrs import controller
from cgrs.backend import (
    EmissionRule,
    ModelBackend,
    RemoteBackend,
    ToyBackend,
    ToyModelSpec,
    overthinking_spec,
)
from cgrs.certainty import CertaintyScore, TokenDistribution, token_entropy
from cgrs.controller import (
    CheckpointDetector,
    CheckpointEvent,
    DecisionRun,
    DecodeTrace,
    GenerationConfig,
    GenerationSession,
    ModeSpec,
    ProbeEmptyError,
    generate,
    run_probe,
)
from cgrs.lexicon import TriggerTokenSet, Vocabulary, build_trigger_set, default_trigger_words
from cgrs.rng import _BLOCK, _block, decision_uniform, sampling_uniform

from conftest import TOY_PROMPT
from remote_stub import toy_completion_server

# the on-disk trace schema, level by level
TRACE_KEYS = {
    "prompt",
    "tokens",
    "text",
    "checkpoint_events",
    "decision_runs",
    "config",
    "finish_reason",
    "token_count",
    "truncated",
}
CONFIG_KEYS = {
    "temperature",
    "top_p",
    "delta",
    "max_tokens",
    "checkpoint_marker",
    "probe_prompt",
    "probe_max_tokens",
    "probe_stop_strings",
    "mode",
    "think_end_marker",
    "seed",
}
MODE_KEYS = {"kind", "fixed_p"}
EVENT_KEYS = {"step", "probe", "p_after"}
PROBE_KEYS = {"answer_tokens", "answer_text", "certainty", "stop_reason"}
CERTAINTY_KEYS = {"value", "mean_entropy", "truncated"}
RUN_KEYS = {"first_step", "p", "steps", "masked"}

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
            {"probe_stop_strings": ("}", "")},
            {"think_end_marker": ""},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GenerationConfig(**kwargs)

    def test_bare_stop_string_rejected(self):
        # tuple("</a>") would be four one-character stop strings, the first an "a"
        with pytest.raises(ValueError, match="probe_stop_strings must be a sequence of strings"):
            GenerationConfig(probe_stop_strings="</a>")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("checkpoint_marker", 5),
            ("probe_prompt", b"**Final Answer"),
            ("think_end_marker", 5),
            ("probe_stop_strings", ["}", 1]),
            ("max_tokens", 3.5),
            ("max_tokens", True),
            ("probe_max_tokens", 2.5),
            ("seed", 1.5),
            ("seed", False),
            ("temperature", "0.6"),
            ("temperature", True),
            ("top_p", None),
            ("top_p", "0.95"),
            ("delta", False),
            ("delta", [0.9]),
            ("fixed_p", "1"),
            ("fixed_p", True),
            ("fixed_p", 1j),
            ("mode", "cgrs"),
            ("mode", None),
            ("mode", {"kind": "cgrs", "fixed_p": None}),  # a trace's JSON, not rebuilt
            ("think_end_marker", False),
            ("think_end_marker", b"END"),
        ],
    )
    def test_wrong_type_rejected_by_name(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must "):
            if field == "fixed_p":  # a field of the mode
                GenerationConfig(mode=ModeSpec("fixed_p", value))
            else:
                GenerationConfig(**{field: value})

    def test_real_fields_are_kept_as_given(self):
        # stored as given, not converted, so the trace bytes do not change
        cfg = GenerationConfig(
            temperature=1,
            top_p=np.float64(0.9),
            delta=np.float32(0.5),
            mode=ModeSpec("fixed_p", 0),
        )
        assert (cfg.temperature, cfg.top_p, cfg.mode.fixed_p) == (1, 0.9, 0)
        assert [type(v) for v in (cfg.temperature, cfg.top_p, cfg.delta, cfg.mode.fixed_p)] == [
            int,
            np.float64,
            np.float32,
            int,
        ]

    def test_integer_fields_become_int(self):
        cfg = GenerationConfig(max_tokens=np.int64(7), probe_max_tokens=np.int32(3), seed=np.uint8(9))
        assert [type(v) for v in (cfg.max_tokens, cfg.probe_max_tokens, cfg.seed)] == [int] * 3
        assert (cfg.max_tokens, cfg.probe_max_tokens, cfg.seed) == (7, 3, 9)

    def test_json_dict_round_trip(self, overthinking_backend, overthinking_triggers):
        cfg = toy_config(mode=ModeSpec("fixed_p", 0.5), probe_stop_strings=["}"])
        trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
        data = json.loads(trace.to_json())["config"]
        data["mode"] = ModeSpec(**data["mode"])
        assert GenerationConfig(**data) == trace.config == cfg


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

    def test_one_shot_feed(self):
        assert CheckpointDetector("\n\n").feed("x\n\ny") == 1
        assert CheckpointDetector("\n\n").feed("x\ny") == 0
        assert CheckpointDetector("\n\n").feed("\n\n\n\n") == 1

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
        assert len(probe.answer_tokens) == 2
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
        assert len(probe.answer_tokens) == 1

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
            # scored against the backend's |V|
            score = event.probe.certainty
            assert score.value == 1 - score.mean_entropy / float(np.log(50_011))
        events = json.loads(trace.to_json())["checkpoint_events"]
        assert len(events) == len(trace.checkpoint_events)
        for event in events:
            assert len(json.dumps(event["probe"])) < 1024


def probe_backend(tokens, rules) -> ToyBackend:
    """A toy model over ``("<eos>", "Q", "P") + tokens``; the probe prompt is "P"."""
    return ToyBackend(
        ToyModelSpec(
            tokens=("<eos>", "Q", "P") + tokens,
            eos_token="<eos>",
            rules=tuple(EmissionRule(f"r{i}", (k,), v) for i, (k, v) in enumerate(rules.items())),
        )
    )


def reference_certainty(rows, vocab_size):
    """The certainty formula over the given probability rows, as run_probe scores them."""
    mean = float(np.add.reduce([token_entropy(TokenDistribution(np.array(r))) for r in rows])) / len(rows)
    return 1 - mean / float(np.log(vocab_size))


class TestProbeLoop:
    """Where a probe stops, which tokens it keeps, and what it scores."""

    def probe(self, backend, **overrides):
        cfg = toy_config(probe_prompt="P", **overrides)
        return run_probe(backend, backend.vocabulary.encode("Q"), cfg)

    def test_token_straddling_the_cut_is_kept(self):
        # "2}" starts before the "}" cut: it is kept and scored, and the text ends at the cut
        backend = probe_backend(
            ("4", "2}"),
            {"Q": {"P": 1.0}, "P": {"4": 0.9, "<eos>": 0.1}, "4": {"2}": 1.0}, "2}": {"<eos>": 1.0}},
        )
        probe = self.probe(backend)
        assert probe.answer_tokens == (3, 4)
        assert probe.answer_text == "42"
        assert probe.stop_reason == "stop_string"
        first = [0.1, 0, 0, 0.9, 0]
        assert probe.certainty.value == reference_certainty([first, [0, 0, 0, 0, 1]], 5)

    def test_first_token_straddling_the_cut_is_an_answer(self):
        backend = probe_backend(("42}",), {"Q": {"P": 1.0}, "P": {"42}": 1.0}, "42}": {"<eos>": 1.0}})
        probe = self.probe(backend)
        assert probe.answer_tokens == (3,)
        assert probe.answer_text == "42"
        assert probe.certainty.value == 1.0

    def test_stop_string_split_across_two_tokens(self):
        backend = probe_backend(
            ("7", "E", "ND"),
            {"Q": {"P": 1.0}, "P": {"7": 0.6, "E": 0.4}, "7": {"E": 1.0}, "E": {"ND": 1.0},
             "ND": {"<eos>": 1.0}},
        )
        probe = self.probe(backend, probe_stop_strings=("END",))
        assert probe.answer_tokens == (3,)
        assert probe.answer_text == "7"
        assert probe.stop_reason == "stop_string"
        assert probe.certainty.value == reference_certainty([[0, 0, 0, 0.6, 0.4, 0]], 6)

    def test_stop_string_split_across_three_tokens(self):
        # "END" spans three tokens; the cut keeps only the token before it
        backend = probe_backend(
            ("7", "E", "N", "D"),
            {"Q": {"P": 1.0}, "P": {"7": 0.6, "E": 0.4}, "7": {"E": 1.0}, "E": {"N": 1.0},
             "N": {"D": 1.0}, "D": {"<eos>": 1.0}},
        )
        probe = self.probe(backend, probe_stop_strings=("}", "END"))
        assert probe.answer_tokens == (3,)
        assert probe.answer_text == "7"
        assert probe.stop_reason == "stop_string"
        assert probe.certainty.value == reference_certainty([[0, 0, 0, 0.6, 0.4, 0, 0]], 7)

    def test_earliest_stop_string_wins_over_the_listing_order(self):
        # "\n}" completes both stop strings at once; "\n", listed second, starts first
        backend = probe_backend(
            ("4", "\n}"), {"Q": {"P": 1.0}, "P": {"4": 1.0}, "4": {"\n}": 1.0}, "\n}": {"<eos>": 1.0}}
        )
        probe = self.probe(backend, probe_stop_strings=("}", "\n"))
        assert probe.answer_tokens == (3,)
        assert probe.answer_text == "4"
        assert probe.stop_reason == "stop_string"

    def test_max_tokens_cut(self):
        backend = probe_backend(
            ("4",), {"Q": {"P": 1.0}, "P": {"4": 0.7, "<eos>": 0.3}, "4": {"4": 0.8, "P": 0.2}}
        )
        probe = self.probe(backend, probe_max_tokens=3)
        assert probe.answer_tokens == (3, 3, 3)
        assert probe.answer_text == "444"
        assert probe.stop_reason == "max_tokens"
        rows = [[0.3, 0, 0, 0.7], [0, 0, 0.2, 0.8], [0, 0, 0.2, 0.8]]
        assert probe.certainty.value == reference_certainty(rows, 4)

    def test_eos_ends_the_answer(self):
        backend = probe_backend(("4",), {"Q": {"P": 1.0}, "P": {"4": 1.0}, "4": {"<eos>": 1.0}})
        probe = self.probe(backend)
        assert probe.answer_tokens == (3,)
        assert probe.answer_text == "4"
        assert probe.stop_reason == "eos"


class TestGenerationLoop:
    def test_vanilla_reaches_boxed_answer(self, overthinking_backend, overthinking_triggers):
        cfg = toy_config(mode=ModeSpec("vanilla"), seed=3)
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
            cfg = toy_config(mode=ModeSpec("vanilla"), seed=seed)
            trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
            found_wait = found_wait or wait_id in trace.tokens
        assert found_wait  # the trigger does appear when nothing is masked

    def test_fixed_p_one_bans_triggers(self, overthinking_backend, overthinking_triggers):
        wait_id = overthinking_backend.vocabulary.token_to_id["Wait"]
        for seed in range(40):
            cfg = toy_config(mode=ModeSpec("fixed_p", 1.0), seed=seed)
            trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
            assert wait_id not in trace.tokens
            assert trace.token_count == 6  # deterministic shortest path
            assert trace.checkpoint_events == []  # pinned p skips probing

    def test_fixed_p_zero_matches_vanilla(self, overthinking_backend, overthinking_triggers):
        for seed in range(40):
            vanilla = generate(
                overthinking_backend,
                TOY_PROMPT,
                toy_config(mode=ModeSpec("vanilla"), seed=seed),
                overthinking_triggers,
            )
            fixed0 = generate(
                overthinking_backend,
                TOY_PROMPT,
                toy_config(mode=ModeSpec("fixed_p", 0.0), seed=seed),
                overthinking_triggers,
            )
            assert fixed0.tokens == vanilla.tokens

    def test_sampler_gets_the_validated_total_and_top(
        self, overthinking_backend, overthinking_triggers, monkeypatch
    ):
        seen = []
        real = controller.sample_from_probs

        def spy(probs, temperature, top_p, u, banned=None, total=None, top=None):
            seen.append((probs, total, top))
            return real(probs, temperature, top_p, u, banned, total, top)

        monkeypatch.setattr(controller, "sample_from_probs", spy)
        generate(overthinking_backend, TOY_PROMPT, toy_config(seed=2), overthinking_triggers)
        assert seen
        for probs, total, top in seen:
            assert total == float(np.einsum("i->", probs)) and top == int(np.argmax(probs))

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
            (False, {"mode": ModeSpec("vanilla")}),
            (False, {"mode": ModeSpec("fixed_p", 0.5)}),
            (False, {"mode": ModeSpec("fixed_p", 1.0)}),
            (False, {}),
            (True, {"mode": ModeSpec("fixed_p", 0.5), "think_end_marker": "</think>"}),
            (True, {"mode": ModeSpec("fixed_p", 1.0), "think_end_marker": "</think>"}),
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
        think_end_id = backend.vocabulary.token_to_id.get("</think>")
        for seed in range(40):
            cfg = toy_config(seed=seed, **overrides)
            trace = generate(backend, prompt, cfg, triggers)
            decisions = trace.suppression_decisions
            assert [d.step for d in decisions] == list(range(len(decisions)))
            for d in decisions:
                assert d.r == (decision_uniform(seed, d.step) < d.p)
            if cfg.mode.kind == "vanilla":
                assert decisions == []
            # the runs tile the decided steps: contiguous from 0, nonempty,
            # maximal in p, each holding only its own masked steps
            runs = trace.decision_runs
            end = 0
            for i, run in enumerate(runs):
                assert run.first_step == end and run.steps > 0
                end = run.first_step + run.steps
                assert run.masked == sorted(set(run.masked))
                assert all(run.first_step <= k < end for k in run.masked)
                assert i == 0 or run.p != runs[i - 1].p
            assert end == len(decisions)
            if cfg.mode.kind == "vanilla":
                assert runs == []
            elif cfg.mode.kind == "fixed_p":
                assert len(runs) == 1 and runs[0].p == cfg.mode.fixed_p
            if think:
                assert end == trace.tokens.index(think_end_id) + 1

    def test_truncation_by_max_tokens(self, overthinking_backend, overthinking_triggers):
        cfg = toy_config(max_tokens=3, mode=ModeSpec("vanilla"))
        trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
        assert trace.truncated
        assert trace.finish_reason == "length"
        assert trace.token_count == 3

    def test_trace_determinism(self, overthinking_backend, overthinking_triggers):
        a = generate(overthinking_backend, TOY_PROMPT, toy_config(seed=21), overthinking_triggers)
        b = generate(overthinking_backend, TOY_PROMPT, toy_config(seed=21), overthinking_triggers)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize(
        "mode", [{"mode": ModeSpec("vanilla")}, {"mode": ModeSpec("fixed_p", 0.5)}, {}]
    )
    def test_to_json_equals_json_dumps(self, overthinking_backend, overthinking_triggers, mode):
        # the one module-level encoder writes json.dumps' bytes
        for seed in range(4):
            cfg = toy_config(seed=seed, **mode)
            trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
            data = {**vars(trace), "token_count": trace.token_count, "truncated": trace.truncated}
            assert trace.to_json() == json.dumps(data, default=vars, sort_keys=True)

    @pytest.mark.parametrize(
        "mode",
        [
            {"mode": ModeSpec("vanilla")},
            {"mode": ModeSpec("fixed_p", 0.5)},
            {"mode": ModeSpec("fixed_p", 1.0)},
            {},
        ],
        ids=["vanilla", "fixed_p_0.5", "fixed_p_1", "cgrs"],
    )
    @pytest.mark.parametrize("max_tokens", [200, 6])
    def test_stepping_then_run_equals_generate(
        self, overthinking_backend, overthinking_triggers, mode, max_tokens
    ):
        # next_token() until None or max_tokens, then run(): the loop perfbench times
        finish_reasons = set()
        for seed in range(12):
            cfg = toy_config(seed=seed, max_tokens=max_tokens, **mode)
            expected = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
            for steps in (3, max_tokens):  # stepped part of the way, and all the way
                session = GenerationSession(
                    overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers
                )
                while len(session.tokens) < steps:
                    if session.next_token() is None:
                        break
                trace = session.run()
                assert trace.to_json() == expected.to_json(), (seed, steps)
                assert session.tokens is trace.tokens
                assert session.run() is trace  # the finished session keeps its record
                assert trace.to_json() == expected.to_json()
            finish_reasons.add(expected.finish_reason)
        assert finish_reasons == ({"eos"} if max_tokens == 200 else {"length"})

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
            "decision_runs",
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

    def test_trace_json_schema_is_the_record_fields(
        self, overthinking_backend, overthinking_triggers
    ):
        # exact key sets at every level: a renamed or added record field fails here
        cfg = toy_config(seed=0, think_end_marker="</think>")
        trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
        assert trace.checkpoint_events and trace.decision_runs
        data = json.loads(trace.to_json())
        assert set(data) == TRACE_KEYS
        for key in ("prompt", "tokens", "text", "finish_reason", "token_count", "truncated"):
            assert data[key] == getattr(trace, key)
        assert set(data["config"]) == CONFIG_KEYS
        assert data["config"]["mode"] == {"kind": "cgrs", "fixed_p": None}
        assert set(data["config"]["mode"]) == MODE_KEYS
        config = {**data["config"], "mode": ModeSpec(**data["config"]["mode"])}
        assert GenerationConfig(**config) == trace.config
        assert len(data["checkpoint_events"]) == len(trace.checkpoint_events)
        for event, record in zip(data["checkpoint_events"], trace.checkpoint_events):
            assert set(event) == EVENT_KEYS
            assert (event["step"], event["p_after"]) == (record.step, record.p_after)
            probe = event["probe"]
            assert set(probe) == PROBE_KEYS
            assert tuple(probe["answer_tokens"]) == record.probe.answer_tokens
            assert probe["answer_text"] == record.probe.answer_text
            assert probe["stop_reason"] == record.probe.stop_reason
            assert set(probe["certainty"]) == CERTAINTY_KEYS
            assert CertaintyScore(**probe["certainty"]) == record.probe.certainty
        for run in data["decision_runs"]:
            assert set(run) == RUN_KEYS
        assert [DecisionRun(**d) for d in data["decision_runs"]] == trace.decision_runs

    def test_trigger_ids_validated_against_vocab(self, overthinking_backend):
        bogus = TriggerTokenSet(provenance={99: ("zz", "zz")})
        with pytest.raises(ValueError, match="trigger id"):
            GenerationSession(overthinking_backend, TOY_PROMPT, toy_config(), bogus)

    def test_unencodable_probe_prompt_named_when_built(self, monkeypatch, overthinking_triggers):
        backend = ToyBackend(overthinking_spec())
        calls = []
        inner = backend.next_distribution
        monkeypatch.setattr(
            backend, "next_distribution", lambda ctx: calls.append(len(ctx)) or inner(ctx)
        )
        cfg = toy_config(probe_prompt="zzz")
        with pytest.raises(ValueError) as exc:
            GenerationSession(backend, TOY_PROMPT, cfg, overthinking_triggers)
        assert str(exc.value) == "probe_prompt is not encodable: text not encodable at offset 0: 'zzz'"
        assert calls == []
        for mode in (ModeSpec("vanilla"), ModeSpec("fixed_p", 1.0)):  # they never probe
            trace = generate(backend, TOY_PROMPT, dataclasses.replace(cfg, mode=mode), overthinking_triggers)
            assert trace.finish_reason == "eos"

    def test_trigger_set_covering_vocabulary_rejected(self, overthinking_backend):
        vocab = overthinking_backend.vocabulary
        every = TriggerTokenSet(
            provenance={i: (vocab.id_to_token[i], "x") for i in range(vocab.size)}
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
        triggers = TriggerTokenSet(provenance={1: ("Wait", "wait"), 2: ("Hmm", "hmm")})
        for seed in range(200):
            cfg = toy_config(seed=seed, mode=ModeSpec("fixed_p", 1.0), max_tokens=1)
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
                toy_config(seed=seed, mode=ModeSpec("vanilla")),
                overthinking_triggers,
            )
            assert probing.tokens == vanilla.tokens
            assert probing.checkpoint_events  # probes really happened
            assert all(e.p_after == 0.0 for e in probing.checkpoint_events)

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
        # every checkpoint records its empty probe and the p it kept
        marker_id = backend.vocabulary.token_to_id["\n\n"]
        checkpoints = [i for i, t in enumerate(trace.tokens) if t == marker_id]
        assert checkpoints
        assert trace.checkpoint_events == [
            CheckpointEvent(step, None, 0.0) for step in checkpoints
        ]
        events = json.loads(trace.to_json())["checkpoint_events"]
        assert events == [{"step": step, "probe": None, "p_after": 0.0} for step in checkpoints]
        assert all(d.p == 0.0 for d in trace.suppression_decisions)
        assert trace.decision_runs == [DecisionRun(0, 0.0, trace.token_count + 1, [])]
        assert trace.finish_reason == "eos"

    def test_restrict_to_thinking(self):
        backend = ToyBackend(think_spec())
        vocab = backend.vocabulary
        triggers = build_trigger_set(["Wait"], vocab)
        cfg = toy_config(mode=ModeSpec("fixed_p", 1.0), think_end_marker="</think>", seed=0)
        trace = generate(backend, "Q", cfg, triggers)
        surfaces = [vocab.id_to_token[t] for t in trace.tokens]
        # in-think Wait is masked away; the forced post-think Wait survives
        assert surfaces == ["\n\n", "</think>", "Wait", "done"]
        think_end = surfaces.index("</think>")
        active_steps = {d.step for d in trace.suppression_decisions}
        assert active_steps == set(range(think_end + 1))

    def test_cgrs_restrict_to_thinking_stops_probes_and_decisions(self):
        # a probeable think block, then a checkpoint marker after the think end
        spec = ToyModelSpec(
            tokens=("<eos>", "Q", "</think>", "\n\n", "Wait", "done", "P", "A", "}"),
            eos_token="<eos>",
            rules=(
                EmissionRule("q", ("Q",), {"\n\n": 1.0}),
                EmissionRule("loop", ("\n\n",), {"Wait": 0.6, "</think>": 0.4}),
                EmissionRule("reflect", ("Wait",), {"\n\n": 1.0}),
                EmissionRule("post", ("</think>",), {"\n\n": 1.0}),
                EmissionRule("post_nl", ("</think>", "\n\n"), {"done": 1.0}),
                EmissionRule("d", ("done",), {"<eos>": 1.0}),
                EmissionRule("probe", ("P",), {"A": 0.97, "Wait": 0.03}),
                EmissionRule("answer", ("A",), {"}": 1.0}),
            ),
        )
        backend = ToyBackend(spec)
        vocab = backend.vocabulary
        triggers = build_trigger_set(["Wait"], vocab)
        probed = 0
        for seed in range(20):
            cfg = toy_config(probe_prompt="P", think_end_marker="</think>", seed=seed)
            trace = generate(backend, "Q", cfg, triggers)
            surfaces = [vocab.id_to_token[t] for t in trace.tokens]
            think_end = surfaces.index("</think>")
            assert surfaces[think_end + 1] == "\n\n"
            assert {d.step for d in trace.suppression_decisions} == set(range(think_end + 1))
            assert all(e.step < think_end for e in trace.checkpoint_events)
            probed += len(trace.checkpoint_events)
        assert probed  # probes did run inside the think block

    def test_fixed_p_pins_every_decision(self, overthinking_backend, overthinking_triggers):
        for seed in range(20):
            trace = generate(
                overthinking_backend,
                TOY_PROMPT,
                toy_config(seed=seed, mode=ModeSpec("fixed_p", 0.5)),
                overthinking_triggers,
            )
            assert trace.suppression_decisions
            assert all(d.p == 0.5 for d in trace.suppression_decisions)
            assert trace.checkpoint_events == []


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
                cfg = toy_config(mode=ModeSpec("fixed_p", 1.0), seed=seed)
                trace = generate(remote, TOY_PROMPT, cfg, overthinking_triggers)
                assert wait_id not in trace.tokens

    def test_remote_run_deterministic(self, overthinking_triggers):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            a = generate(remote, TOY_PROMPT, toy_config(seed=19), overthinking_triggers)
            b = generate(remote, TOY_PROMPT, toy_config(seed=19), overthinking_triggers)
            assert a.tokens == b.tokens


class FactCountingBackend(ModelBackend):
    """Forwards to a backend and counts reads of its fixed facts while counting is on."""

    def __init__(self, inner: ModelBackend):
        self.inner = inner
        self.reads: Counter[str] = Counter()
        self.counting = True

    def _read(self, name: str):
        if self.counting:
            self.reads[name] += 1
        return getattr(self.inner, name)

    vocabulary = property(lambda self: self._read("vocabulary"))
    capabilities = property(lambda self: self._read("capabilities"))
    eos_token_id = property(lambda self: self._read("eos_token_id"))

    def next_distribution(self, context):
        return self.inner.next_distribution(context)

    def sample_token(self, *args, **kwargs):
        return self.inner.sample_token(*args, **kwargs)


class TestBackendFactsReadOnce:
    """The session reads the backend's fixed facts when it is built, never per step."""

    ONCE = {"vocabulary": 1, "capabilities": 1, "eos_token_id": 1}

    def check(self, inner: ModelBackend, monkeypatch) -> None:
        backend = FactCountingBackend(inner)
        real_probe = controller.run_probe

        def uncounted_probe(*args):
            # a probe reads the vocabulary and EOS id for itself; not a per-step read
            backend.counting = False
            try:
                return real_probe(*args)
            finally:
                backend.counting = True

        monkeypatch.setattr(controller, "run_probe", uncounted_probe)
        triggers = build_trigger_set(default_trigger_words(), inner.vocabulary)
        configs = [
            toy_config(mode=ModeSpec("vanilla")),
            toy_config(),
            toy_config(mode=ModeSpec("fixed_p", 0.5)),
            toy_config(mode=ModeSpec("fixed_p", 1.0)),
        ]
        lengths = set()
        for cfg in configs:
            for seed in range(6):
                backend.reads.clear()
                session = GenerationSession(
                    backend, TOY_PROMPT, dataclasses.replace(cfg, seed=seed), triggers
                )
                assert backend.reads == self.ONCE
                trace = session.run()
                assert backend.reads == self.ONCE
                lengths.add(trace.token_count)
        assert len(lengths) >= 3  # the count does not grow with the generation

    def test_in_engine(self, monkeypatch):
        self.check(ToyBackend(overthinking_spec(trigger_prob=0.6)), monkeypatch)

    def test_remote_stub(self, monkeypatch):
        with toy_completion_server(overthinking_spec(trigger_prob=0.6)) as (base_url, toy):
            remote = RemoteBackend(
                vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>", top_k=11
            )
            self.check(remote, monkeypatch)


def empty_probe_spec() -> ToyModelSpec:
    """Its first checkpoint's probe answers ``A``; the one after a ``Wait`` is empty."""
    return ToyModelSpec(
        tokens=("<eos>", "Q", "\n\n", "Wait", "done", "P", "A", "}"),
        eos_token="<eos>",
        rules=(
            EmissionRule("q", ("Q",), {"\n\n": 1.0}),
            EmissionRule("reflect", ("Q", "\n\n"), {"Wait": 1.0}),
            EmissionRule("w", ("Wait",), {"\n\n": 1.0}),
            EmissionRule("end", ("Wait", "\n\n"), {"done": 1.0}),
            EmissionRule("d", ("done",), {"<eos>": 1.0}),
            EmissionRule("sure", ("Q", "\n\n", "P"), {"A": 1.0}),
            EmissionRule("empty", ("Wait", "\n\n", "P"), {"<eos>": 1.0}),
            EmissionRule("a", ("A",), {"}": 1.0}),
        ),
    )


class TestWrappedCallSites:
    """A session reaches each probe call through the module global a tracer wraps.

    perfbench times ``run_probe``, ``certainty_score`` and ``update_state`` on
    ``cgrs.controller``, and ``Vocabulary.encode`` inside ``run_probe``; a call
    that bypassed them would read as zero calls there, with no error.
    """

    def count(self, monkeypatch, backend, prompt, config, seeds):
        calls = Counter()
        encodes_per_probe: list[int] = []
        in_probe = []

        def counted(name):
            real = getattr(controller, name)

            def wrapper(*args):
                calls[name] += 1
                if name != "run_probe":
                    return real(*args)
                encodes_per_probe.append(0)
                in_probe.append(True)
                try:
                    return real(*args)
                finally:
                    in_probe.pop()

            monkeypatch.setattr(controller, name, wrapper)

        real_encode = Vocabulary.encode

        def encode(vocab, text):
            if in_probe:
                encodes_per_probe[-1] += 1
            return real_encode(vocab, text)

        for name in ("run_probe", "certainty_score", "update_state"):
            counted(name)
        monkeypatch.setattr(Vocabulary, "encode", encode)
        triggers = build_trigger_set(["Wait"], backend.vocabulary)
        events = []
        for seed in seeds:
            events += generate(backend, prompt, dataclasses.replace(config, seed=seed), triggers).checkpoint_events
        scored = sum(e.probe is not None for e in events)
        assert calls["run_probe"] == len(events)
        assert calls["certainty_score"] == calls["update_state"] == scored
        assert encodes_per_probe == [1] * len(events)
        return len(events), scored

    def test_demo_toy(self, monkeypatch):
        backend = ToyBackend(overthinking_spec(trigger_prob=0.6))
        events, scored = self.count(monkeypatch, backend, TOY_PROMPT, toy_config(), range(20))
        assert events == scored > 20

    def test_empty_probes_are_not_scored(self, monkeypatch):
        cfg = toy_config(probe_prompt="P")
        events, scored = self.count(monkeypatch, ToyBackend(empty_probe_spec()), "Q", cfg, range(3))
        assert (events, scored) == (6, 3)


class TestRefillTraffic:
    """Philox block refills of a toy problem's vanilla, cgrs and fixed-p=1 sessions.

    perfbench runs the three modes of a problem on one seed in that order;
    the shared block cache lets the later two read vanilla's sampling blocks.
    """

    def test_refills_per_mode(self):
        # a trigger probability of 0.6 makes some vanilla streams outrun one block
        backend = ToyBackend(overthinking_spec(trigger_prob=0.6))
        triggers = build_trigger_set(default_trigger_words(), backend.vocabulary)
        longest = decision_blocks = 0
        for seed in range(9100, 9140):
            _block.cache_clear()
            refills, traces = {}, {}
            for mode in ("vanilla", "cgrs", "fixed-p=1"):
                before = _block.cache_info().misses
                cfg = toy_config(mode=ModeSpec.parse(mode), seed=seed)
                traces[mode] = generate(backend, TOY_PROMPT, cfg, triggers)
                refills[mode] = _block.cache_info().misses - before

            def draws(trace):
                return trace.token_count + (trace.finish_reason == "eos")

            vanilla = draws(traces["vanilla"])
            assert refills["vanilla"] == -(-vanilla // _BLOCK), seed
            # no sampling refill: the later modes sample inside vanilla's blocks
            assert draws(traces["cgrs"]) <= refills["vanilla"] * _BLOCK
            assert draws(traces["fixed-p=1"]) <= refills["vanilla"] * _BLOCK
            # cgrs refills once per decision block its drawn decisions touch;
            # p = 1 draws nothing
            touched = {
                step // _BLOCK
                for run in traces["cgrs"].decision_runs
                if 0.0 < run.p < 1.0
                for step in range(run.first_step, run.first_step + run.steps)
            }
            assert refills["cgrs"] == len(touched), seed
            assert refills["fixed-p=1"] == 0, seed
            longest = max(longest, vanilla)
            decision_blocks += len(touched)
        # the seeds reach a second sampling block and make decision draws
        assert longest > _BLOCK and decision_blocks > 0
