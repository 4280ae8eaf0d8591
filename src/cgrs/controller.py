"""Decoding controller: checkpoint-triggered probing and trigger masking.

Token prediction follows a five-step loop: fetch the next-token distribution,
draw a Bernoulli suppression decision at the current probability, mask the
reflection triggers when the draw fires, sample with temperature and top-p,
and finally - whenever the decoded text completes a checkpoint marker - probe
the tentative final answer in a forked context to refresh the suppression
probability from the answer's certainty.

Probes are fully isolated: they run greedily on a fork of the main context
(including the just-sampled token), never mask, and never write tokens back
into the main stream.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backend import ModelBackend, ban_bias
from .certainty import CertaintyScore, TokenDistribution, certainty_score
from .lexicon import TriggerTokenSet
from .rng import derive_seed, sampling_uniform
from .sampling import sample_from_probs
from .suppression import SuppressionState, initial_state, should_suppress, update_state

# Unused; perfbench test_traced_run_restores_every_wrapped_attribute needs them (ROADMAP item 1).
from .sampling import distribution_to_logits, sample_from_logits  # noqa: F401
from .suppression import mask_triggers  # noqa: F401

class ProbeEmptyError(RuntimeError):
    """The probe produced no answer tokens; the caller keeps the previous p."""


@dataclass
class GenerationConfig:
    """Decoding and suppression parameters for one run."""

    temperature: float = 0.6
    top_p: float = 0.95
    delta: float = 0.9  # certainty threshold of the suppression ramp
    max_tokens: int = 1024
    checkpoint_marker: str = "\n\n"
    probe_prompt: str = "**Final Answer: \\boxed"
    probe_max_tokens: int = 32
    probe_stop_strings: tuple[str, ...] = ("}", "\n")
    min_tokens_between_probes: int = 0
    suppression_enabled: bool = True
    fixed_p: float | None = None  # ablation: pin p, skip probing
    restrict_to_thinking: bool = False
    think_end_marker: str = "</think>"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError(f"temperature must be nonnegative, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must lie in (0, 1], got {self.top_p}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if self.max_tokens < 0:
            raise ValueError(f"max_tokens must be nonnegative, got {self.max_tokens}")
        if self.probe_max_tokens < 1:
            raise ValueError("probe_max_tokens must be positive")
        if not self.checkpoint_marker:
            raise ValueError("checkpoint_marker must be nonempty")
        if not self.probe_prompt:
            raise ValueError("probe_prompt must be nonempty")
        if self.min_tokens_between_probes < 0:
            raise ValueError("min_tokens_between_probes must be nonnegative")
        if self.fixed_p is not None and not 0.0 <= self.fixed_p <= 1.0:
            raise ValueError(f"fixed_p must lie in [0, 1], got {self.fixed_p}")
        self.probe_stop_strings = tuple(self.probe_stop_strings)

    def to_json_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["probe_stop_strings"] = list(self.probe_stop_strings)
        return data


class CheckpointDetector:
    """Debounced substring detector over an incrementally decoded stream.

    Fires when newly appended text completes an occurrence of the marker that
    starts a new run; occurrences that overlap or directly extend an already
    counted run (e.g. the third "\\n" of "\\n\\n\\n") do not fire again.
    Markers split across token boundaries are caught by keeping a tail of the
    previous text.
    """

    def __init__(self, marker: str):
        if not marker:
            raise ValueError("checkpoint marker must be nonempty")
        self.marker = marker
        self._offset = 0  # absolute chars consumed
        self._tail = ""
        self._run_end = -1  # absolute end of the last counted marker run

    def feed(self, appended_text: str) -> int:
        """Consume newly decoded text; number of fresh marker runs completed.

        The count is invariant to how the stream is chunked into feed calls.
        """
        if not appended_text:
            return 0
        base = self._offset - len(self._tail)
        haystack = self._tail + appended_text
        fired = 0
        i = haystack.find(self.marker)
        while i != -1:
            start = base + i
            end = start + len(self.marker)
            if start <= self._run_end:
                self._run_end = max(self._run_end, end)  # extends the counted run
            else:
                fired += 1
                self._run_end = end
            i = haystack.find(self.marker, i + 1)
        self._offset += len(appended_text)
        keep = len(self.marker) - 1
        self._tail = haystack[len(haystack) - keep:] if keep else ""
        return fired


def detect_checkpoint(recent_text: str, marker: str) -> bool:
    """One-shot form: does this text complete at least one marker run?"""
    return CheckpointDetector(marker).feed(recent_text) > 0


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of probing the tentative final answer at a checkpoint.

    Only the answer and its certainty evidence are kept; the per-token
    distributions are scored in run_probe and then dropped.
    """

    answer_tokens: tuple[int, ...]
    answer_text: str
    certainty: CertaintyScore
    stop_reason: str  # "stop_string" | "max_tokens" | "eos"

    def __post_init__(self) -> None:
        if self.stop_reason not in ("stop_string", "max_tokens", "eos"):
            raise ValueError(f"unknown stop_reason: {self.stop_reason!r}")

    def to_json_dict(self) -> dict:
        return {
            "answer_tokens": list(self.answer_tokens),
            "answer_text": self.answer_text,
            "certainty": {
                "value": self.certainty.value,
                "mean_entropy": self.certainty.mean_entropy,
                "n_tokens": self.certainty.n_tokens,
                "vocab_size": self.certainty.vocab_size,
                "truncated": self.certainty.truncated,
            },
            "stop_reason": self.stop_reason,
        }


@dataclass(frozen=True)
class CheckpointEvent:
    step: int
    probe: ProbeResult
    p_after: float

    def to_json_dict(self) -> dict:
        return {"step": self.step, "probe": self.probe.to_json_dict(), "p_after": self.p_after}


@dataclass(frozen=True)
class SuppressionDecision:
    step: int
    r: bool
    p: float

    def to_json_dict(self) -> dict:
        return {"step": self.step, "r": self.r, "p": self.p}


@dataclass
class DecodeTrace:
    """Full record of one generation."""

    prompt: str
    tokens: list[int]
    text: str
    checkpoint_events: list[CheckpointEvent]
    suppression_decisions: list[SuppressionDecision]
    token_count: int
    config: GenerationConfig
    truncated: bool
    finish_reason: str  # "eos" | "length"

    def to_json_dict(self) -> dict:
        return {
            "prompt": self.prompt,
            "tokens": list(self.tokens),
            "text": self.text,
            "checkpoint_events": [e.to_json_dict() for e in self.checkpoint_events],
            "suppression_decisions": [d.to_json_dict() for d in self.suppression_decisions],
            "token_count": self.token_count,
            "truncated": self.truncated,
            "finish_reason": self.finish_reason,
            "config": self.config.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def run_probe(
    backend: ModelBackend, context: Sequence[int], config: GenerationConfig
) -> ProbeResult:
    """Greedily decode the tentative answer in a forked, unmasked context.

    The probe prompt is appended to a fork of the main context; decoding stops
    at the first stop string, at EOS, or after probe_max_tokens.  Tokens that
    belong to a stop string are excluded from both the answer and the entropy
    average.

    Raises:
        ProbeEmptyError: no answer token survives (immediate stop or EOS).
    """
    vocab = backend.vocabulary
    ctx = backend.fork(context)
    ctx.extend(vocab.encode(config.probe_prompt))
    answer_tokens: list[int] = []
    distributions: list[TokenDistribution] = []
    spans: list[tuple[int, int]] = []
    answer_text = ""
    stop_reason = "max_tokens"
    for _ in range(config.probe_max_tokens):
        dist = backend.next_distribution(ctx)
        token = dist.argmax_token_id()
        if token == backend.eos_token_id:
            stop_reason = "eos"
            break
        surface = vocab.id_to_token[token]
        ctx.append(token)
        answer_tokens.append(token)
        distributions.append(dist)
        spans.append((len(answer_text), len(answer_text) + len(surface)))
        answer_text += surface
        hits = [answer_text.find(s) for s in config.probe_stop_strings]
        hits = [h for h in hits if h != -1]
        if hits:
            cut = min(hits)
            keep = sum(1 for _, end in spans if end <= cut)
            answer_tokens = answer_tokens[:keep]
            distributions = distributions[:keep]
            answer_text = answer_text[:cut]
            stop_reason = "stop_string"
            break
    if not answer_tokens:
        raise ProbeEmptyError("probe produced no answer tokens before stopping")
    score = certainty_score(distributions, vocab.size)
    return ProbeResult(
        answer_tokens=tuple(answer_tokens),
        answer_text=answer_text,
        certainty=score,
        stop_reason=stop_reason,
    )


class GenerationSession:
    """Mutable state of one generation; next_token() advances it one step."""

    def __init__(
        self,
        backend: ModelBackend,
        prompt: str,
        config: GenerationConfig,
        triggers: TriggerTokenSet,
    ):
        self.backend = backend
        self.config = config
        vocab = backend.vocabulary
        for token_id in triggers.token_ids:
            if not 0 <= token_id < vocab.size:
                raise ValueError(f"trigger id {token_id} outside vocabulary of {vocab.size}")
        if len(triggers.token_ids) == vocab.size:
            raise ValueError(
                f"trigger set covers the entire vocabulary of {vocab.size} tokens;"
                " a masked step would leave nothing to sample"
            )
        self.prompt = prompt
        self._prompt_ids = vocab.encode(prompt)
        self._ctx: list[int] = backend.fork(self._prompt_ids)
        self._tokens: list[int] = []
        self._pieces: list[str] = []
        self._state: SuppressionState = initial_state(config.delta, fixed_p=config.fixed_p)
        self._ban = ban_bias(triggers.token_ids)
        self._banned = np.array(sorted(triggers.token_ids), dtype=np.int64)
        self._detector = CheckpointDetector(config.checkpoint_marker)
        self._think_end = (
            CheckpointDetector(config.think_end_marker) if config.restrict_to_thinking else None
        )
        self._thinking = True
        self._last_probe_step: int | None = None
        self.checkpoint_events: list[CheckpointEvent] = []
        self.suppression_decisions: list[SuppressionDecision] = []
        self.finished = False
        self.finish_reason = "length"

    @property
    def suppression_state(self) -> SuppressionState:
        return self._state

    @property
    def tokens(self) -> list[int]:
        return self._tokens

    @property
    def context(self) -> list[int]:
        return self._ctx

    def _suppression_active(self) -> bool:
        if not self.config.suppression_enabled:
            return False
        if self.config.restrict_to_thinking and not self._thinking:
            return False
        return True

    def _draw_decision(self, step: int) -> bool:
        if not self._suppression_active():
            return False
        decision = should_suppress(self._state, self.config.seed, step)
        self.suppression_decisions.append(
            SuppressionDecision(step=step, r=decision, p=self._state.p)
        )
        return decision

    def _sample_in_engine(self, masked: bool, step: int) -> int:
        dist = self.backend.next_distribution(self._ctx)
        u = sampling_uniform(self.config.seed, step)
        return sample_from_probs(
            dist.probs,
            self.config.temperature,
            self.config.top_p,
            u,
            self._banned if masked else None,
        )

    def _sample_remote(self, masked: bool, step: int) -> int | None:
        cfg = self.config
        return self.backend.sample_token(
            self._ctx,
            cfg.temperature,
            cfg.top_p,
            derive_seed(cfg.seed, step * 16),
            logit_bias=self._ban if masked else None,
        )

    def next_token(self) -> int | None:
        """Advance one step; returns the sampled token id, or None at EOS."""
        if self.finished:
            return None
        step = len(self._tokens)
        masked = self._draw_decision(step)
        if self.backend.capabilities.full_distribution:
            token: int | None = self._sample_in_engine(masked, step)
        else:
            token = self._sample_remote(masked, step)
        if token is None or token == self.backend.eos_token_id:
            self.finished = True
            self.finish_reason = "eos"
            return None
        self._ctx.append(token)
        self._tokens.append(token)
        surface = self.backend.vocabulary.id_to_token[token]
        self._pieces.append(surface)
        if self._think_end is not None and self._thinking:
            if self._think_end.feed(surface):
                self._thinking = False
        if self._detector.feed(surface):
            self._maybe_probe(step)
        return token

    def _maybe_probe(self, step: int) -> None:
        cfg = self.config
        # probing drives the certainty schedule; vanilla and fixed-p skip it
        if not cfg.suppression_enabled or cfg.fixed_p is not None:
            return
        if cfg.restrict_to_thinking and not self._thinking:
            return
        if (
            self._last_probe_step is not None
            and step - self._last_probe_step < cfg.min_tokens_between_probes
        ):
            return
        try:
            probe = run_probe(self.backend, self._ctx, cfg)
        except ProbeEmptyError:
            return  # keep the previous suppression probability
        self._last_probe_step = step
        self._state = update_state(self._state, probe.certainty)
        self.checkpoint_events.append(
            CheckpointEvent(step=step, probe=probe, p_after=self._state.p)
        )

    def run(self) -> DecodeTrace:
        while len(self._tokens) < self.config.max_tokens:
            if self.next_token() is None:
                break
        truncated = not (self.finished and self.finish_reason == "eos")
        return DecodeTrace(
            prompt=self.prompt,
            tokens=list(self._tokens),
            text="".join(self._pieces),
            checkpoint_events=list(self.checkpoint_events),
            suppression_decisions=list(self.suppression_decisions),
            token_count=len(self._tokens),
            config=self.config,
            truncated=truncated,
            finish_reason=self.finish_reason if not truncated else "length",
        )


def generate(
    backend: ModelBackend,
    prompt: str,
    config: GenerationConfig,
    triggers: TriggerTokenSet,
) -> DecodeTrace:
    """Generate a full completion under the configured suppression policy."""
    return GenerationSession(backend, prompt, config, triggers).run()
