"""Seeded synthetic large-vocabulary model for the ``zipf-152k`` workload.

No weights are involved.  The vocabulary is a fixed table of BPE-like
surfaces: structural tokens (chat markers, ``"\\n\\n"``, the probe prompt
pieces, digits, every trigger variant) plus random lowercase fillers of
varying length.  Every next-token distribution is a mixture of a Zipf-shaped
base over the fillers, whose ranks are scattered over the token ids as in a
real model, and explicit mass on the token the current state calls for.

The model "knows" the problems registered with it: each prompt maps to a plan
(answer, number of reflection paragraphs, paragraph lengths, the paragraph at
which the probed answer becomes certain).  ``next_distribution`` is a pure
function of the context and of that immutable table, so forks never interact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cgrs import ModelBackend, Vocabulary, expand_variants
from cgrs.backend import BackendCapabilities, BackendError
from cgrs.certainty import TokenDistribution

EOS = "<|endoftext|>"
BREAK = "\n\n"
THINK = "<think>\n"
PROMPT_HEAD = "<|im_start|>user\n"
PROMPT_TAIL = "<|im_end|>\n<|im_start|>assistant\n" + THINK
PROBE_PIECES = ("**", "Final", " Answer", ":", " \\", "boxed")
CONCLUSION_HEAD = (" So", " the", " answer", " is", " \\", "boxed", "{")
DIGITS = tuple("0123456789")
TRIGGER_BASES = ("Wait", "But", "Alternatively", "Hmm")
#: Split of the reflection mass over the trigger surfaces the model emits.
TRIGGER_SPLIT = {" Wait": 0.55, " But": 0.2, " Hmm": 0.12, " Alternatively": 0.1}
STRUCTURAL = (
    EOS, "<|im_start|>", "<|im_end|>", "user", "assistant", "\n", BREAK, THINK,
    *PROBE_PIECES, *CONCLUSION_HEAD, "}", *DIGITS,
)
#: Filler surface lengths 1..9 and their relative frequencies.
FILLER_LENGTH_WEIGHTS = (3, 8, 12, 14, 14, 12, 10, 8, 6)


@dataclass(frozen=True)
class ZipfParams:
    """Everything that shapes the synthetic model; recorded in workloads.json."""

    vocab_size: int = 151936
    zipf_exponent: float = 1.1
    n_bases: int = 4  # base permutations, chosen by the last token id
    model_seed: int = 20250805  # fixed like a tokenizer and weights
    explicit_mass: float = 0.97  # mass on the token a deterministic state calls for
    conclude_mass_when_reflecting: float = 0.025
    trigger_base_mass: float = 1e-4  # total base mass left on triggers
    probe_eps_uncertain: float = 0.5  # probe tail mass before the settle paragraph
    probe_eps_certain: float = 0.001  # probe tail mass from the settle paragraph on


@dataclass(frozen=True)
class ProblemPlan:
    answer: str  # decimal digits, one token each
    reflections: int  # paragraphs after the first one, in an unmasked run
    settle_paragraph: int  # probes from this many breaks on see a near one-hot answer
    body_lengths: tuple[int, ...]  # filler tokens per paragraph


def _filler_surfaces(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    weights = np.array(FILLER_LENGTH_WEIGHTS, dtype=np.float64)
    out: list[str] = []
    while len(out) < count:
        n = (count - len(out)) * 2
        lengths = rng.choice(np.arange(1, len(weights) + 1), size=n, p=weights / weights.sum())
        spaced = rng.random(n) < 0.7
        letters = rng.integers(97, 123, size=int(lengths.sum()), dtype=np.uint8).tobytes().decode()
        pos = 0
        for length, space in zip(lengths.tolist(), spaced.tolist()):
            surface = (" " if space else "") + letters[pos:pos + length]
            pos += length
            if surface not in taken:
                taken.add(surface)
                out.append(surface)
                if len(out) == count:
                    break
    return out


def special_surfaces() -> list[str]:
    """Structural tokens then every trigger variant; they hold the lowest ids."""
    specials = list(dict.fromkeys(STRUCTURAL))
    for base in TRIGGER_BASES:
        specials.extend(sorted(expand_variants(base) - set(specials)))
    return specials


def build_surfaces(params: ZipfParams) -> list[str]:
    """Special surfaces, then seeded random fillers up to ``vocab_size``."""
    specials = special_surfaces()
    if params.vocab_size <= len(specials):
        raise ValueError(f"vocab_size must exceed the {len(specials)} structural tokens")
    rng = np.random.default_rng(params.model_seed)
    fillers = _filler_surfaces(rng, params.vocab_size - len(specials), set(specials))
    return specials + fillers


class ZipfBackend(ModelBackend):
    """Full-distribution backend over a Qwen-sized synthetic vocabulary."""

    def __init__(self, vocab: Vocabulary, params: ZipfParams):
        self._vocab = vocab
        self._params = params
        ids = vocab.token_to_id
        self._eos = ids[EOS]
        self._break = ids[BREAK]
        self._think = ids[THINK]
        self._probe_ids = [ids[s] for s in PROBE_PIECES]
        self._conclusion = [ids[s] for s in CONCLUSION_HEAD]
        self._close = ids["}"]
        self._digits = [ids[d] for d in DIGITS]
        self._trigger_split = [(ids[s], m) for s, m in TRIGGER_SPLIT.items()]
        self._trigger_ids = [ids[s] for s in special_surfaces() if s not in STRUCTURAL]
        self._plans: dict[str, ProblemPlan] = {}
        self._bases = self._make_bases()

    def _make_bases(self) -> list[np.ndarray]:
        p = self._params
        v = self._vocab.size
        n_special = len(special_surfaces())
        ranks = np.arange(1, v - n_special + 1, dtype=np.float64) ** -p.zipf_exponent
        ranks *= (1.0 - p.trigger_base_mass) / ranks.sum()
        filler_ids = np.arange(n_special, v)
        rng = np.random.default_rng(p.model_seed + 1)
        bases = []
        for _ in range(p.n_bases):
            vec = np.zeros(v)
            vec[rng.permutation(filler_ids)] = ranks
            vec[self._trigger_ids] = p.trigger_base_mass / len(self._trigger_ids)
            bases.append(vec)
        return bases

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(full_distribution=True, logit_bias=False)

    @property
    def eos_token_id(self) -> int:
        return self._eos

    def register(self, prompt: str, plan: ProblemPlan) -> None:
        if not (prompt.startswith(PROMPT_HEAD) and prompt.endswith(PROMPT_TAIL)):
            raise ValueError("prompt must use the chat template")
        if len(plan.body_lengths) < plan.reflections + 1:
            raise ValueError("one body length per paragraph required")
        self._plans[prompt] = plan

    def _mix(self, base: np.ndarray, token: int, mass: float) -> TokenDistribution:
        probs = base * (1.0 - mass)
        probs[token] += mass
        return TokenDistribution(probs)

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        ctx = list(context)
        try:
            think = ctx.index(self._think)
        except ValueError:
            raise BackendError("context carries no chat-template prompt") from None
        plan = self._plans.get(self._vocab.decode(ctx[: think + 1]))
        if plan is None:
            raise BackendError("prompt was never registered with the model")
        p = self._params
        base = self._bases[ctx[-1] % len(self._bases)]
        answer = [self._digits[int(c)] for c in plan.answer]

        n_probe = len(self._probe_ids)
        for k in range(len(answer) + 2):  # probe prompt followed by k answer tokens
            start = len(ctx) - k - n_probe
            if start > think and ctx[start:start + n_probe] == self._probe_ids:
                n_breaks = ctx[think + 1:start].count(self._break)
                eps = p.probe_eps_certain if n_breaks >= plan.settle_paragraph else p.probe_eps_uncertain
                seq = [self._conclusion[-1], *answer, self._close]
                return self._mix(base, seq[min(k, len(seq) - 1)], 1.0 - eps)

        gen = ctx[think + 1:]
        if self._conclusion[0] in gen:
            done = len(gen) - gen.index(self._conclusion[0])
            seq = [*self._conclusion, *answer, self._close, self._eos]
            return self._mix(base, seq[min(done, len(seq) - 1)], p.explicit_mass)
        n_breaks = gen.count(self._break)
        if gen and gen[-1] == self._break:
            if n_breaks > plan.reflections:
                return self._mix(base, self._conclusion[0], p.explicit_mass)
            probs = base * (1.0 - p.explicit_mass - p.conclude_mass_when_reflecting)
            probs[self._conclusion[0]] += p.conclude_mass_when_reflecting
            for token, share in self._trigger_split:
                probs[token] += p.explicit_mass * share / sum(TRIGGER_SPLIT.values())
            return TokenDistribution(probs)
        last_break = len(gen) - 1 - gen[::-1].index(self._break) if n_breaks else -1
        body = len(gen) - last_break - 1
        if body >= plan.body_lengths[min(n_breaks, len(plan.body_lengths) - 1)]:
            return self._mix(base, self._break, p.explicit_mass)
        return TokenDistribution(base.copy())


#: Letters per prompt word, repeated: a fixed pattern keeps the prompt's encode
#: cost (which depends on how long each matched surface is) the same for every
#: seed, and words that all start with a space encode to exactly one token each.
PROMPT_WORD_LETTERS = (5, 3, 7, 4, 6, 2, 8, 5, 4, 6, 3, 9)


def make_prompt(rng: np.random.Generator, vocab: Vocabulary, n_words: int) -> str:
    """Chat-template prompt of ``n_words`` seeded space-led filler words."""
    by_letters: dict[int, list[str]] = {}
    for surface in vocab.id_to_token[len(special_surfaces()):]:
        if surface.startswith(" "):
            by_letters.setdefault(len(surface) - 1, []).append(surface)
    words = []
    for i in range(n_words):
        group = by_letters[PROMPT_WORD_LETTERS[i % len(PROMPT_WORD_LETTERS)]]
        words.append(group[int(rng.integers(len(group)))])
    return PROMPT_HEAD + "".join(words) + PROMPT_TAIL
