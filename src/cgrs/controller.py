"""Decoding controller: checkpoint-triggered probing and trigger masking.

Token prediction follows a five-step loop: fetch the next-token distribution,
draw a Bernoulli suppression decision at the current probability, mask the
reflection triggers when the draw fires, sample with temperature and top-p,
and finally - whenever the decoded text completes a checkpoint marker - probe
the tentative final answer in a copy of the context to refresh the suppression
probability from the answer's certainty.

Probes are fully isolated: they run greedily on a copy of the main context
(including the just-sampled token), never mask, and never write tokens back
into the main stream.
"""

from __future__ import annotations

import json
import numbers
import operator
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .backend import ModelBackend, ban_bias
from .certainty import CertaintyScore, TokenDistribution, certainty_score
from .lexicon import TriggerTokenSet
from .rng import derive_seed, sampling_uniform
from .sampling import check_temperature, check_top_p, sample_from_probs
from .suppression import check_delta, check_trigger_ids, should_suppress, update_state

# Unused; perfbench test_traced_run_restores_every_wrapped_attribute needs them (ROADMAP item 1).
from .sampling import distribution_to_logits, sample_from_logits  # noqa: F401
from .suppression import mask_triggers  # noqa: F401

class ProbeEmptyError(RuntimeError):
    """The probe produced no answer tokens; the caller keeps the previous p."""


def _check_real(name: str, value) -> None:
    # a bool is an int to Python, and a range test on a string raises a bare TypeError
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ModeSpec:
    """One decoding mode: which steps draw a suppression decision, and at what p.

    ``vanilla`` never masks; ``fixed_p`` masks each step with the pinned
    probability ``fixed_p`` and never probes; ``cgrs`` probes at checkpoints
    and masks with the probability the last probe set.
    """

    kind: str  # "vanilla" | "fixed_p" | "cgrs"
    fixed_p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("vanilla", "fixed_p", "cgrs"):
            raise ValueError(f"unknown mode kind: {self.kind!r}")
        if (self.kind == "fixed_p") != (self.fixed_p is not None):
            raise ValueError("fixed_p modes and only fixed_p modes carry a probability")
        if self.fixed_p is not None:
            _check_real("fixed_p", self.fixed_p)
            if not 0.0 <= self.fixed_p <= 1.0:
                raise ValueError(f"fixed_p must lie in [0, 1], got {self.fixed_p}")

    @property
    def label(self) -> str:
        if self.kind == "fixed_p":
            return f"fixed_p_{self.fixed_p:g}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "ModeSpec":
        """Parse a CLI mode string: vanilla | fixed-p=<p> | cgrs."""
        if text in ("vanilla", "cgrs"):
            return cls(text)
        if text.startswith("fixed-p="):
            try:
                p = float(text[len("fixed-p="):])
            except ValueError:
                pass  # not a number: the error below names the whole mode string
            else:
                return cls("fixed_p", fixed_p=p)
        raise ValueError(f"unknown mode: {text!r} (expected vanilla, fixed-p=<p>, or cgrs)")

    def apply(self, base: GenerationConfig, seed: int) -> GenerationConfig:
        return replace(base, seed=seed, mode=self)


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
    mode: ModeSpec = ModeSpec("cgrs")
    think_end_marker: str | None = None  # None: no cut; else decisions and probes stop after it
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_tokens", "probe_max_tokens", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, operator.index(value))
        for name in ("checkpoint_marker", "probe_prompt", "think_end_marker"):
            value = getattr(self, name)
            if value is None and name == "think_end_marker":
                continue
            if not isinstance(value, str):
                raise TypeError(f"{name} must be a string, got {value!r}")
            if not value:
                raise ValueError(f"{name} must be nonempty")
        if isinstance(self.probe_stop_strings, str):
            # tuple() would split it into one stop string per character
            raise ValueError("probe_stop_strings must be a sequence of strings, not one string")
        self.probe_stop_strings = tuple(self.probe_stop_strings)
        for value in self.probe_stop_strings:
            if not isinstance(value, str):
                raise TypeError(f"probe_stop_strings must all be strings, got {value!r}")
        for name in ("temperature", "top_p", "delta"):
            _check_real(name, getattr(self, name))
        if not isinstance(self.mode, ModeSpec):
            raise TypeError(f"mode must be a ModeSpec, got {self.mode!r}")
        check_temperature(self.temperature)
        check_top_p(self.top_p)
        check_delta(self.delta)
        if self.max_tokens < 0:
            raise ValueError(f"max_tokens must be nonnegative, got {self.max_tokens}")
        if self.probe_max_tokens < 1:
            raise ValueError("probe_max_tokens must be positive")
        if not all(self.probe_stop_strings):
            raise ValueError("probe_stop_strings must all be nonempty")


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


@dataclass(frozen=True)
class CheckpointEvent:
    """A checkpoint probe; ``probe`` is None when it was empty and p held."""

    step: int
    probe: ProbeResult | None
    p_after: float


@dataclass(frozen=True)
class SuppressionDecision:
    step: int
    r: bool
    p: float


@dataclass
class DecisionRun:
    """Consecutive decided steps ``first_step .. first_step + steps - 1`` at one p.

    ``masked`` lists the steps of the run whose draw fired.
    """

    first_step: int
    p: float
    steps: int
    masked: list[int]


@dataclass
class DecodeTrace:
    """Full record of one generation.

    The suppression decisions are stored as ``decision_runs``: a new run opens
    at the first decision and whenever a probe changes p.
    """

    prompt: str
    tokens: list[int]
    text: str
    checkpoint_events: list[CheckpointEvent]
    decision_runs: list[DecisionRun]
    config: GenerationConfig
    finish_reason: str  # "eos" | "length"

    @property
    def suppression_decisions(self) -> list[SuppressionDecision]:
        """One record per decided step, expanded from ``decision_runs``."""
        decisions = []
        for run in self.decision_runs:
            masked = set(run.masked)
            end = run.first_step + run.steps
            decisions.extend(
                SuppressionDecision(step, step in masked, run.p)
                for step in range(run.first_step, end)
            )
        return decisions

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    @property
    def truncated(self) -> bool:
        return self.finish_reason != "eos"

    def to_json(self) -> str:
        """JSON keyed by each record's field names, plus token_count and truncated."""
        data = {**vars(self), "token_count": self.token_count, "truncated": self.truncated}
        return _TRACE_ENCODER.encode(data)


#: The one encoder of :meth:`DecodeTrace.to_json`; it writes what
#: ``json.dumps(data, default=vars, sort_keys=True)`` writes, without
#: building an encoder per call.
_TRACE_ENCODER = json.JSONEncoder(default=vars, sort_keys=True)


def run_probe(
    backend: ModelBackend, context: Sequence[int], config: GenerationConfig
) -> ProbeResult:
    """Greedily decode the tentative answer in a copied, unmasked context.

    The probe prompt is appended to a copy of the main context; decoding stops
    at the earliest stop string, at EOS, or after probe_max_tokens.  The answer
    text ends where the stop string starts; the answer tokens, and the entropy
    average, are the tokens that start before that cut, so a token such as
    ``2}`` that straddles it is kept whole.

    Raises:
        ProbeEmptyError: no answer token survives (immediate stop or EOS).
    """
    vocab = backend.vocabulary
    surfaces = vocab.id_to_token
    eos = backend.eos_token_id
    stop_strings = config.probe_stop_strings
    ctx = list(context)
    ctx.extend(vocab.encode(config.probe_prompt))
    answer_tokens: list[int] = []
    distributions: list[TokenDistribution] = []
    starts: list[int] = []  # where each answer token starts in answer_text
    answer_text = ""
    stop_reason = "max_tokens"
    for _ in range(config.probe_max_tokens):
        dist = backend.next_distribution(ctx)
        token = dist.top_id
        if token == eos:
            stop_reason = "eos"
            break
        ctx.append(token)
        answer_tokens.append(token)
        distributions.append(dist)
        starts.append(len(answer_text))
        answer_text += surfaces[token]
        cut = -1
        for stop in stop_strings:
            hit = answer_text.find(stop)
            if hit != -1 and (cut == -1 or hit < cut):
                cut = hit
        if cut != -1:
            keep = bisect_left(starts, cut)
            del answer_tokens[keep:]
            del distributions[keep:]
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
    """Mutable state of one generation; next_token() advances it one step.

    The backend's vocabulary, capabilities and EOS id are read once, when the
    session is built.
    """

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
        check_trigger_ids(triggers.token_ids, vocab.size)
        self._ctx: list[int] = vocab.encode(prompt)
        self._surfaces = vocab.id_to_token
        self._eos = backend.eos_token_id
        # One sampler per session, with the ban in the form that sampler takes.
        if backend.capabilities.full_distribution:
            self._sample = self._sample_in_engine
            self._ban = np.array(sorted(triggers.token_ids), dtype=np.int64)
        else:
            self._sample = self._sample_remote
            self._ban = ban_bias(triggers.token_ids)
        mode = config.mode
        # The masking probability: pinned in fixed-p mode, else 0 until a probe sets it.
        self._p = mode.fixed_p if mode.fixed_p is not None else 0.0
        # Only cgrs mode probes; vanilla and fixed-p never move p.  Both flags
        # turn False at the think-end marker, if there is one.
        self._deciding = mode.kind != "vanilla"
        self._probing = mode.kind == "cgrs"
        self._detector = CheckpointDetector(config.checkpoint_marker)
        marker = config.think_end_marker
        self._think_end = None if marker is None else CheckpointDetector(marker)
        # The record the session decodes into; run() sets its text and returns it.
        self._trace = DecodeTrace(prompt, [], "", [], [], config, "length")
        # The decision run that the next decided step extends; None opens a new one.
        self._run: DecisionRun | None = None

    @property
    def tokens(self) -> list[int]:
        return self._trace.tokens

    def _sample_in_engine(self, masked: bool, step: int) -> int:
        dist = self.backend.next_distribution(self._ctx)
        u = sampling_uniform(self.config.seed, step)
        return sample_from_probs(
            dist.probs,
            self.config.temperature,
            self.config.top_p,
            u,
            self._ban if masked else None,
            total=dist.total,
            top=dist.top_id,
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
        trace = self._trace
        if trace.finish_reason == "eos":
            return None
        step = len(trace.tokens)
        masked = False
        if self._deciding:
            run = self._run
            if run is None:
                run = self._run = DecisionRun(step, self._p, 0, [])
                trace.decision_runs.append(run)
            run.steps += 1
            masked = should_suppress(self._p, self.config.seed, step)
            if masked:
                run.masked.append(step)
        token = self._sample(masked, step)
        if token is None or token == self._eos:
            trace.finish_reason = "eos"
            return None
        self._ctx.append(token)
        trace.tokens.append(token)
        surface = self._surfaces[token]
        if self._think_end is not None and self._think_end.feed(surface):
            self._think_end = None
            self._deciding = self._probing = False
        if self._probing and self._detector.feed(surface):
            self._probe(step)
        return token

    def _probe(self, step: int) -> None:
        try:
            probe = run_probe(self.backend, self._ctx, self.config)
        except ProbeEmptyError:
            probe = None  # keep the previous suppression probability
        else:
            p = update_state(probe.certainty, self.config.delta)
            if p != self._p:
                self._p = p
                self._run = None
        event = CheckpointEvent(step=step, probe=probe, p_after=self._p)
        self._trace.checkpoint_events.append(event)

    def run(self) -> DecodeTrace:
        """Decode to EOS or max_tokens; returns the record the session decoded into.

        The session is finished after this call.
        """
        trace = self._trace
        while len(trace.tokens) < self.config.max_tokens:
            if self.next_token() is None:
                break
        trace.text = "".join(self._surfaces[t] for t in trace.tokens)
        return trace


def generate(
    backend: ModelBackend,
    prompt: str,
    config: GenerationConfig,
    triggers: TriggerTokenSet,
) -> DecodeTrace:
    """Generate a full completion under the configured suppression policy."""
    return GenerationSession(backend, prompt, config, triggers).run()
