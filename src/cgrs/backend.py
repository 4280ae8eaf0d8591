"""Model backends: the abstract interface, a deterministic toy model, and a
client for OpenAI-compatible completion endpoints.

The toy model is a suffix-matching state machine over an explicit vocabulary:
the distribution of the next token is selected by the longest rule suffix that
matches the tail of the context.  It is a pure function of the context, which
makes probe isolation trivial and every expected value in tests computable by
hand.

The remote client cannot see full distributions; it reconstructs them from
top-k log-probs with the leftover mass aggregated into a single residual
outcome, and it realizes trigger masking through the wire-level ``logit_bias``
field.
"""

from __future__ import annotations

import abc
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .certainty import TokenDistribution
from .lexicon import Vocabulary, file_errors

#: Wire-level bias that effectively bans a token on OpenAI-compatible servers.
LOGIT_BIAS_BAN = -100.0

#: Tolerance on top-k probability overflow before the input is rejected.
TOP_K_OVERFLOW_TOL = 1e-3


class BackendError(RuntimeError):
    """A backend failed to produce a usable result."""


class RetryableBackendError(BackendError):
    """Transport-level failure; the identical request may be retried."""


class UnsupportedOperationError(BackendError):
    """The backend lacks the capability needed for the requested operation."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can expose to the controller."""

    full_distribution: bool
    logit_bias: bool


class ModelBackend(abc.ABC):
    """Minimal surface the decoding controller needs from a model."""

    @property
    @abc.abstractmethod
    def vocabulary(self) -> Vocabulary: ...

    @property
    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities: ...

    @property
    @abc.abstractmethod
    def eos_token_id(self) -> int | None: ...

    @abc.abstractmethod
    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        """Distribution of the next token given the context so far."""

    def sample_token(
        self,
        context: Sequence[int],
        temperature: float,
        top_p: float,
        seed: int,
        logit_bias: Mapping[int, float] | None = None,
    ) -> int | None:
        """Backend-side sampling step; required when full_distribution is False.

        Returns the sampled token id, or None when the backend signals end of
        stream.
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not implement backend-side sampling"
        )


# ---------------------------------------------------------------------------
# Toy suffix-matching model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmissionRule:
    """One state of the toy machine: a context suffix and its emission probs."""

    name: str
    suffix: tuple[str, ...]
    probs: Mapping[str, float]

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "EmissionRule":
        emit = data["emit"]
        if emit.get("type") != "dist":
            raise ValueError(f"unknown emission rule type: {emit.get('type')!r} (expected 'dist')")
        probs = {str(k): float(v) for k, v in emit["probs"].items()}
        return cls(name=data["name"], suffix=tuple(data["suffix"]), probs=probs)


@dataclass(frozen=True)
class ToyModelSpec:
    """Declarative description of a toy suffix-matching model."""

    tokens: tuple[str, ...]
    eos_token: str
    rules: tuple[EmissionRule, ...]

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ToyModelSpec":
        return cls(
            tokens=tuple(data["tokens"]),
            eos_token=data["eos_token"],
            rules=tuple(EmissionRule.from_json_dict(r) for r in data["rules"]),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ToyModelSpec":
        """Read a spec file; a ValueError names the path of a malformed file."""
        with file_errors(path, "toy spec"):
            return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class ToyBackend(ModelBackend):
    """Deterministic toy model; next_distribution is a pure function of context."""

    def __init__(self, spec: ToyModelSpec):
        self._vocab = Vocabulary(spec.tokens)
        if spec.eos_token not in self._vocab:
            raise ValueError(f"eos token {spec.eos_token!r} missing from vocabulary")
        self._eos_id = self._vocab.token_to_id[spec.eos_token]
        names = [r.name for r in spec.rules]
        if len(set(names)) != len(names):
            raise ValueError("emission rule names must be unique")
        # Each rule's distribution is validated once, here, and shared
        # read-only by every step that matches the rule, so its entropy and
        # top id are computed once too.
        self._rules: dict[tuple[int, ...], tuple[TokenDistribution, str]] = {}
        for rule in spec.rules:
            suffix = tuple(self._require_id(t, rule.name) for t in rule.suffix)
            if suffix in self._rules:
                raise ValueError(
                    f"rules {self._rules[suffix][1]!r} and {rule.name!r}"
                    f" share the suffix {list(rule.suffix)!r}"
                )
            vec = np.zeros(self._vocab.size)
            for token, prob in rule.probs.items():
                if prob < 0:
                    raise ValueError(f"rule {rule.name!r}: negative probability for {token!r}")
                vec[self._require_id(token, rule.name)] = prob
            if abs(vec.sum() - 1.0) > 1e-9:
                raise ValueError(f"rule {rule.name!r}: probabilities sum to {vec.sum()}")
            try:
                dist = TokenDistribution(probs=vec)  # a NaN passes both checks above
            except ValueError as exc:
                raise ValueError(f"rule {rule.name!r}: {exc}") from exc
            self._rules[suffix] = (dist, rule.name)
        self._max_order = max(map(len, self._rules), default=0)

    def _require_id(self, token: str, rule_name: str) -> int:
        if token not in self._vocab:
            raise ValueError(f"rule {rule_name!r} references unknown token {token!r}")
        return self._vocab.token_to_id[token]

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(full_distribution=True, logit_bias=False)

    @property
    def eos_token_id(self) -> int:
        return self._eos_id

    @property
    def max_order(self) -> int:
        """Longest rule suffix; the model is Markov in the last max_order tokens."""
        return self._max_order

    def match_rule(self, context: Sequence[int]) -> str:
        """Name of the rule that fires for this context (longest suffix wins)."""
        return self._match(context)[1]

    def _tail(self, context: Sequence[int]) -> tuple[int, ...]:
        """The last max_order tokens: everything a rule can match against."""
        return tuple(context[-self._max_order:]) if self._max_order else ()

    def _match(self, context: Sequence[int]) -> tuple[TokenDistribution, str]:
        tail = self._tail(context)
        for start in range(len(tail) + 1):  # longest suffix first, one dict probe each
            rule = self._rules.get(tail[start:])
            if rule is not None:
                return rule
        raise BackendError(
            f"no emission rule matches context tail "
            f"{[self._vocab.id_to_token[i] for i in tail]!r}"
        )

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        """The matching rule's distribution; its ``probs`` array is read-only."""
        return self._match(context)[0]

    def reachable_rule_names(self, seed_contexts: Iterable[Sequence[int]]) -> set[str]:
        """Rules that can ever fire starting from the given contexts.

        Explores the token-tail state graph (tails of length max_order), so it
        terminates even though contexts grow without bound.
        """
        eos = self.eos_token_id
        seen_tails: set[tuple[int, ...]] = set()
        fired: set[str] = set()
        frontier = [self._tail(ctx) for ctx in seed_contexts]
        while frontier:
            tail = frontier.pop()
            if tail in seen_tails:
                continue
            seen_tails.add(tail)
            try:
                dist, name = self._match(tail)
            except BackendError:
                continue
            fired.add(name)
            for token_id in np.flatnonzero(dist.probs > 0):
                if int(token_id) == eos:
                    continue
                frontier.append(self._tail(tail + (int(token_id),)))
        return fired


def overthinking_spec(trigger_prob: float = 0.3) -> ToyModelSpec:
    """The reference "overthinking" toy model.

    After each paragraph break the model either pivots back into another
    reasoning pass (emitting the trigger word with probability
    ``trigger_prob``) or concludes with a boxed answer.  Probing the tentative
    answer sees mildly uncertain distributions, so the certainty-guided
    schedule lands strictly between never-masking and always-masking.
    """
    tokens = (
        "<eos>",
        "Let me compute. ",
        "\n\n",
        "Wait",
        ", I should re-check. ",
        "**Final Answer: \\boxed",
        "42",
        "}",
        "Solve 6*7. ",
        "{",
        "So the answer: \\boxed",
    )
    rules = (
        EmissionRule("opening", ("Solve 6*7. ",), {"Let me compute. ": 1.0}),
        EmissionRule("pre_checkpoint", ("Let me compute. ",), {"\n\n": 1.0}),
        EmissionRule(
            "reflect_or_conclude",
            ("\n\n",),
            {"Wait": trigger_prob, "So the answer: \\boxed": 1.0 - trigger_prob},
        ),
        EmissionRule("reflection_body", ("Wait",), {", I should re-check. ": 1.0}),
        EmissionRule("resume_step", (", I should re-check. ",), {"Let me compute. ": 1.0}),
        EmissionRule("conclusion_open", ("So the answer: \\boxed",), {"{": 1.0}),
        EmissionRule("conclusion_value", ("So the answer: \\boxed", "{"), {"42": 1.0}),
        EmissionRule("probe_open", ("**Final Answer: \\boxed",), {"{": 0.98, "Wait": 0.02}),
        EmissionRule(
            "probe_value", ("**Final Answer: \\boxed", "{"), {"42": 0.96, "Let me compute. ": 0.04}
        ),
        EmissionRule("close_box", ("42",), {"}": 1.0}),
        EmissionRule("finish", ("}",), {"<eos>": 1.0}),
    )
    return ToyModelSpec(tokens=tokens, eos_token="<eos>", rules=rules)


# ---------------------------------------------------------------------------
# Top-k reconstruction and remote suppression
# ---------------------------------------------------------------------------


def reconstruct_distribution(
    top_k_logprobs: Mapping[int, float], vocab_size: int
) -> TokenDistribution:
    """Rebuild a usable distribution from top-k log-probs.

    The k observed probabilities keep their ids; all unobserved mass becomes a
    single synthetic residual outcome appended last.  Aggregating the tail into
    one bucket can only lower the entropy, so certainty computed from the
    result is an upper bound of the full-distribution certainty.

    Raises:
        ValueError: empty input, an id that is not an integer (a bool is
            not) or lies outside ``[0, vocab_size)``, non-finite log-probs,
            or observed mass exceeding 1 beyond the rounding guard.
    """
    if not top_k_logprobs:
        raise ValueError("top_k_logprobs must be nonempty")
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be at least 2, got {vocab_size}")
    for i in top_k_logprobs:
        if isinstance(i, bool) or not hasattr(type(i), "__index__"):
            raise ValueError(f"top-k id {i!r} is not an integer")
    ids = sorted(int(i) for i in top_k_logprobs)
    if len(ids) > vocab_size:
        raise ValueError("more top-k entries than vocabulary tokens")
    for i in (ids[0], ids[-1]):
        if not 0 <= i < vocab_size:
            raise ValueError(f"top-k id {i} lies outside the vocabulary of {vocab_size} tokens")
    logprobs = np.array([float(top_k_logprobs[i]) for i in ids])
    if not np.all(np.isfinite(logprobs)):
        raise ValueError("top-k log-probs must be finite")
    probs = np.exp(logprobs)
    total = float(probs.sum())
    if total > 1.0 + TOP_K_OVERFLOW_TOL:
        raise ValueError(f"top-k probabilities sum to {total}, beyond the rounding guard")
    residual = 1.0 - total
    if residual < 0.0:
        residual = 0.0  # rounding overflow: clamp, then renormalize below
    full = np.append(probs, residual)
    full = full / full.sum()
    return TokenDistribution(full, outcome_token_ids=tuple(ids))


def ban_bias(trigger_ids: Iterable[int]) -> dict[int, float]:
    """Wire ``logit_bias`` map that bans every trigger id."""
    return {int(i): LOGIT_BIAS_BAN for i in sorted(trigger_ids)}


# ---------------------------------------------------------------------------
# Remote OpenAI-compatible client
# ---------------------------------------------------------------------------

API_BASE_ENV = "CGRS_API_BASE"
API_KEY_ENV = "CGRS_API_KEY"
MODEL_ENV = "CGRS_MODEL"


class RemoteBackend(ModelBackend):
    """Client for an OpenAI-compatible ``/v1/completions`` endpoint.

    The server does the sampling; this client reconstructs distributions from
    returned top-k log-probs for certainty probes and passes ``logit_bias``
    through for trigger masking.  A vocabulary file for the served tokenizer
    must be supplied so surfaces map onto stable ids.  Each calling thread
    gets its own HTTP session, so one client may serve a parallel benchmark.
    Every request is built by ``_complete`` and sent by ``_post``.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        eos_token: str | None = None,
        top_k: int = 20,
        timeout: float = 60.0,
        max_retries: int = 2,
        retry_backoff: float = 0.2,
    ):
        if top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        if not 0.0 < timeout < math.inf:
            raise ValueError(f"timeout must be finite and positive, got {timeout}")
        if not (isinstance(max_retries, int) and max_retries >= 0):
            raise ValueError(f"max_retries must be a nonnegative integer, got {max_retries}")
        if not 0.0 <= retry_backoff < math.inf:
            raise ValueError(f"retry_backoff must be finite and nonnegative, got {retry_backoff}")
        base_url = base_url or os.environ.get(API_BASE_ENV)
        if not base_url:
            raise ValueError(f"no endpoint: pass base_url or set {API_BASE_ENV}")
        if not base_url.lower().startswith(("http://", "https://")):
            raise ValueError(f"base_url must start with http:// or https://, got {base_url!r}")
        self._url = base_url.rstrip("/") + "/v1/completions"
        if self._url.lower().endswith("/v1/v1/completions"):
            raise ValueError(f"base_url must not end in /v1 (the client adds it), got {base_url!r}")
        self._headers = {"Content-Type": "application/json"}
        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._model = model if model is not None else os.environ.get(MODEL_ENV)
        self._vocab = vocab
        if eos_token and eos_token not in vocab:
            raise ValueError(f"eos token {eos_token!r} missing from vocabulary")
        self._eos_id = vocab.token_to_id[eos_token] if eos_token else None
        self._top_k = top_k
        self._timeout = timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        import requests  # local import keeps toy-only use dependency-light

        self._requests = requests
        self._local = threading.local()

    @property
    def _session(self):
        """This thread's HTTP session; ``requests.Session`` is not thread-safe."""
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = self._requests.Session()
        return session

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(full_distribution=False, logit_bias=True)

    @property
    def eos_token_id(self) -> int | None:
        return self._eos_id

    def _post(self, payload: dict) -> dict:
        """POST ``payload`` and parse the reply; only transport faults and 5xx
        replies are retried, ``retry_backoff * k`` seconds before attempt ``k``."""
        errors = self._requests.exceptions
        for attempt in range(self._max_retries + 1):
            if attempt:
                time.sleep(self._retry_backoff * attempt)
            try:
                resp = self._session.post(
                    self._url, json=payload, headers=self._headers, timeout=self._timeout
                )
            except (errors.ConnectionError, errors.Timeout, errors.ChunkedEncodingError) as exc:
                failure = f"{type(exc).__name__}: {exc}"
                continue
            except errors.RequestException as exc:
                raise BackendError(f"request failed: {type(exc).__name__}: {exc}") from exc
            if resp.status_code < 500:
                break
            failure = f"server error {resp.status_code}: {resp.text[:200]}"
        else:
            raise RetryableBackendError(f"transport failure after retries: {failure}")
        if resp.status_code != 200:
            raise BackendError(f"request failed ({resp.status_code}): {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise BackendError(
                f"malformed completion response: body is not JSON: {resp.text[:200]!r}"
            ) from exc

    def _complete(self, context: Sequence[int], **fields) -> Mapping:
        """The one request builder: ``prompt``, ``max_tokens`` (1 unless ``fields``
        sets it), ``fields``, then ``model``; returns the checked first choice."""
        payload = {"prompt": self._vocab.decode(context), "max_tokens": 1, **fields}
        if self._model:
            payload["model"] = self._model
        data = self._post(payload)
        try:
            choice = data["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {data!r:.200}") from exc
        if not isinstance(choice, Mapping):
            raise BackendError(f"malformed completion response: choice {choice!r:.200}")
        return choice

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        """One-step distribution, reconstructed from top-k log-probs.

        Requested at temperature 1 / top_p 1 so the log-probs describe the
        model distribution rather than the sampling-time reshaped one.
        """
        choice = self._complete(context, temperature=1.0, top_p=1.0, logprobs=self._top_k)
        try:
            top = choice["logprobs"]["top_logprobs"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError("response carries no top_logprobs") from exc
        if not isinstance(top, Mapping):
            raise BackendError(f"malformed completion response: top_logprobs entry {top!r:.200}")
        by_id: dict[int, float] = {}
        try:
            for surface, lp in top.items():
                token_id = self._vocab.token_to_id.get(surface)
                if token_id is not None:
                    by_id[token_id] = float(lp)
            if not by_id:
                raise BackendError("no top-k surface maps into the configured vocabulary")
            return reconstruct_distribution(by_id, self._vocab.size)
        except (TypeError, ValueError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc

    def sample_token(
        self,
        context: Sequence[int],
        temperature: float,
        top_p: float,
        seed: int,
        logit_bias: Mapping[int, float] | None = None,
    ) -> int | None:
        fields: dict = {"temperature": temperature, "top_p": top_p, "seed": int(seed)}
        if logit_bias:
            fields["logit_bias"] = logit_bias  # JSON writes its int keys as strings
        text = self._complete(context, **fields).get("text")
        if not isinstance(text, str):
            raise BackendError(f"malformed completion response: text {text!r:.200}")
        if text == "":
            return None  # server signalled end of stream
        token_id = self._vocab.token_to_id.get(text)
        if token_id is None:
            raise BackendError(f"sampled surface not in vocabulary: {text!r}")
        return token_id
