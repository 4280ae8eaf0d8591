"""Set-up of the three workloads: backend, vocabulary, triggers, problems.

Settings come from ``workloads.json``; the engine receives only what is built
here from the workload seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from cgrs import (
    GenerationConfig,
    ModelBackend,
    ModeSpec,
    Problem,
    RemoteBackend,
    ToyBackend,
    ToyModelSpec,
    TriggerTokenSet,
    Vocabulary,
    build_trigger_set,
    default_trigger_words,
    load_dataset,
    overthinking_spec,
)
from cgrs.backend import BackendCapabilities
from cgrs.certainty import TokenDistribution

from .loopback import LoopbackServer
from .zipf_model import ProblemPlan, ZipfBackend, ZipfParams, build_surfaces, make_prompt

ROOT = Path(__file__).resolve().parent.parent
SETTINGS_FILE = Path(__file__).resolve().parent / "workloads.json"


def load_settings() -> dict:
    return json.loads(SETTINGS_FILE.read_text(encoding="utf-8"))


class CountingBackend(ModelBackend):
    """Forwarding proxy that counts model calls (main steps plus probe steps).

    This count, not the engine's own bookkeeping, is what charges probes to
    cgrs.  With a tracer attached, each full distribution also notes its
    trigger mass on the enclosing span.
    """

    def __init__(self, inner: ModelBackend, trigger_ids: Sequence[int]):
        self.inner = inner
        self.calls = 0
        self.tracer = None
        self._trigger_ids = np.array(sorted(trigger_ids), dtype=np.int64)

    @property
    def vocabulary(self) -> Vocabulary:
        return self.inner.vocabulary

    @property
    def capabilities(self) -> BackendCapabilities:
        return self.inner.capabilities

    @property
    def eos_token_id(self) -> int | None:
        return self.inner.eos_token_id

    def fork(self, context):
        return self.inner.fork(context)

    def next_distribution(self, context) -> TokenDistribution:
        self.calls += 1
        dist = self.inner.next_distribution(context)
        if self.tracer is not None and not dist.truncated:
            self.tracer.note(float(dist.probs[self._trigger_ids].sum()))
        return dist

    def sample_token(self, context, temperature, top_p, seed, logit_bias=None):
        self.calls += 1
        return self.inner.sample_token(context, temperature, top_p, seed, logit_bias=logit_bias)


@dataclass
class Workload:
    backend: CountingBackend
    problems: list[Problem]
    config: GenerationConfig
    modes: list[ModeSpec]
    triggers: TriggerTokenSet
    timings_ms: dict[str, float]  # set-up layer timings
    server: LoopbackServer | None = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def _timed(timings: dict, key: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    timings[key] = (time.perf_counter() - t0) * 1e3
    return out


def _zipf_problems(backend: ZipfBackend, s: dict, seed: int) -> list[Problem]:
    problems = []
    lengths = tuple(s["body_lengths"])
    for i, design in enumerate(s["problems"]):
        rng = np.random.default_rng([seed, i])
        prompt = make_prompt(rng, backend.vocabulary, design["prompt_words"])
        answer = str(int(rng.integers(1, 10)))
        plan = ProblemPlan(answer, design["reflections"], design["settle_paragraph"], lengths)
        backend.register(prompt, plan)
        problems.append(Problem(id=f"zipf-{seed}-{i}", prompt=prompt, gold_answer=answer))
    return problems


def setup(name: str, seed: int, settings: dict | None = None, **overrides) -> Workload:
    """Build a workload; ``overrides`` replace settings (tests shrink the zipf vocabulary)."""
    s = {**(settings or load_settings()["workloads"][name]), **overrides}
    timings: dict[str, float] = {}
    server = None
    try:
        if s["backend"] == "toy":
            spec = ToyModelSpec.from_json_file(ROOT / s["model"])
            _timed(timings, "vocabulary_init", Vocabulary, spec.tokens)
            inner: ModelBackend = ToyBackend(spec)
            problems = load_dataset(ROOT / s["dataset"])
        elif s["backend"] == "remote":
            server = LoopbackServer(s["trigger_prob"])
            vocab = _timed(timings, "vocabulary_init", Vocabulary, overthinking_spec().tokens)
            inner = RemoteBackend(vocab, base_url=server.url, eos_token="<eos>", top_k=s["top_k"])
            problems = load_dataset(ROOT / s["dataset"])
        elif s["backend"] == "zipf":
            params = ZipfParams(**s["zipf"])
            vocab = _timed(timings, "vocabulary_init", Vocabulary, build_surfaces(params))
            inner = ZipfBackend(vocab, params)
            problems = _zipf_problems(inner, s, seed)
        else:
            raise ValueError(f"unknown backend kind {s['backend']!r}")
        triggers = _timed(
            timings, "build_trigger_set", build_trigger_set, default_trigger_words(), inner.vocabulary
        )
    except BaseException:
        if server is not None:
            server.close()
        raise
    config = GenerationConfig(
        temperature=s["temperature"], top_p=s["top_p"], delta=s["delta"], max_tokens=s["max_tokens"]
    )
    return Workload(
        backend=CountingBackend(inner, triggers.token_ids),
        problems=problems,
        config=config,
        modes=[ModeSpec.parse(m) for m in s["modes"]],
        triggers=triggers,
        timings_ms=timings,
        server=server,
    )
