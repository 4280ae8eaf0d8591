"""Reflection-trigger lexicon: vocabulary handling and trigger-token sets.

A small set of base words ("Wait", "But", "Alternatively", "Hmm") marks the
places where a model pivots back into re-checking its own reasoning.  This
module expands those base words into their tokenizer-level surface variants,
maps them onto vocabulary ids, and can rebuild the set from decoded traces by
frequency.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence


class TriggerCategory(str, Enum):
    """Behavioral family of a trigger word."""

    HESITATION_TRANSITION = "hesitation_transition"
    ALTERNATIVE_PROPOSAL = "alternative_proposal"
    CONTEMPLATION_CUE = "contemplation_cue"


#: Default trigger inventory: hesitation/transition words, alternative
#: proposal markers, and colloquial contemplation cues.
DEFAULT_BASE_WORDS: tuple[tuple[str, TriggerCategory], ...] = (
    ("Wait", TriggerCategory.HESITATION_TRANSITION),
    ("But", TriggerCategory.HESITATION_TRANSITION),
    ("Alternatively", TriggerCategory.ALTERNATIVE_PROPOSAL),
    ("Hmm", TriggerCategory.CONTEMPLATION_CUE),
)

DEFAULT_MIN_COUNT = 1


@dataclass(frozen=True)
class TriggerWord:
    """A base trigger word plus its category."""

    base: str
    category: TriggerCategory

    def __post_init__(self) -> None:
        if not self.base:
            raise ValueError("trigger base word must be nonempty")
        if self.base != self.base.strip():
            raise ValueError(
                f"trigger base word must carry no leading/trailing whitespace: {self.base!r}"
            )


@contextmanager
def file_errors(path: str | Path, what: str) -> Iterator[None]:
    """Turn an error met while reading the JSON file at ``path`` into a ValueError naming it.

    Covers text that is not JSON, a missing key (named too), and a value of the
    wrong type or range.
    """
    try:
        yield
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path}: not JSON: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{what} {path}: missing key {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{what} {path}: malformed: {exc}") from None


class Vocabulary:
    """Bijective token-id table with greedy longest-match text encoding."""

    def __init__(self, tokens: Sequence[str]):
        self._id_to_token: tuple[str, ...] = tuple(tokens)
        for i, token in enumerate(self._id_to_token):
            if not isinstance(token, str):
                raise ValueError(f"vocabulary token {i} is not a string: {token!r:.80}")
            if not token:
                # an empty surface matches everywhere and never advances encode()
                raise ValueError(f"vocabulary token {i} is the empty string")
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            dupes = sorted(t for t, n in Counter(self._id_to_token).items() if n > 1)
            raise ValueError(f"vocabulary tokens must be unique, duplicates: {dupes!r}")
        self._max_len: int = max(map(len, self._id_to_token), default=0)

    @classmethod
    def from_token_to_id(cls, mapping: Mapping[str, int]) -> "Vocabulary":
        """Build from a surface→id map; ids must be exactly 0..size-1."""
        for surface, token_id in mapping.items():
            # bool is an int subclass: a JSON true would otherwise pass as id 1
            if isinstance(token_id, bool) or not isinstance(token_id, int):
                raise ValueError(f"token {surface!r} has id {token_id!r}, not an integer")
        size = len(mapping)
        ids = sorted(mapping.values())
        if ids != list(range(size)):
            raise ValueError("token ids must cover exactly the range [0, size)")
        inverse = {i: t for t, i in mapping.items()}
        return cls([inverse[i] for i in range(size)])

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Vocabulary":
        """Load a vocabulary file: a JSON list of tokens, a surface→id map,
        or an object with a "tokens" list."""
        with file_errors(path, "vocabulary file"):
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            if isinstance(data, dict) and "tokens" in data:
                data = data["tokens"]
                if not isinstance(data, list):
                    raise ValueError('"tokens" is not a list')
            if isinstance(data, list):
                return cls(data)
            if isinstance(data, dict):
                return cls.from_token_to_id(data)
            raise ValueError("unrecognized format")

    @property
    def size(self) -> int:
        return len(self._id_to_token)

    @property
    def token_to_id(self) -> Mapping[str, int]:
        return self._token_to_id

    @property
    def id_to_token(self) -> tuple[str, ...]:
        return self._id_to_token

    def __len__(self) -> int:
        return self.size

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def decode(self, ids: Iterable[int]) -> str:
        return "".join(self._id_to_token[i] for i in ids)

    def encode(self, text: str) -> list[int]:
        """Greedy longest-match tokenization.

        Raises:
            ValueError: if some position of ``text`` matches no token.
        """
        out: list[int] = []
        pos = 0
        while pos < len(text):
            # longest candidate surface first, one dict probe per length
            for length in range(min(self._max_len, len(text) - pos), 0, -1):
                token_id = self._token_to_id.get(text[pos:pos + length])
                if token_id is not None:
                    out.append(token_id)
                    pos += length
                    break
            else:
                raise ValueError(
                    f"text not encodable at offset {pos}: {text[pos:pos + 20]!r}"
                )
        return out


@dataclass(frozen=True)
class TriggerTokenSet:
    """Immutable set of vocabulary ids treated as reflection triggers.

    ``provenance`` maps each trigger id back to the surface form and base word
    it came from, and ``token_ids`` is the set of its keys; ``skipped_forms``
    lists candidate surfaces that the vocabulary does not encode as a single
    token (multi-token encodings are excluded by design).
    """

    provenance: Mapping[int, tuple[str, str]]  # id -> (surface form, base word)
    skipped_forms: tuple[str, ...] = field(default_factory=tuple)
    token_ids: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_ids", frozenset(self.provenance))

    def __contains__(self, token_id: int) -> bool:
        return token_id in self.token_ids

    def __len__(self) -> int:
        return len(self.token_ids)

    def to_json_dict(self) -> dict:
        return {
            "token_ids": sorted(self.token_ids),
            "provenance": {
                str(i): {"surface_form": s, "base_word": b}
                for i, (s, b) in sorted(self.provenance.items())
            },
            "skipped_forms": list(self.skipped_forms),
        }


def expand_variants(word: str) -> set[str]:
    """Expand a base word into its case and leading-space surface variants.

    The closure of {identity, lower, upper} x {no prefix, single space prefix}
    yields at most six distinct forms ("But" -> "But", " But", "but", " but",
    "BUT", " BUT"); fewer when case folding collapses them.
    """
    if not word or word != word.strip():
        raise ValueError(f"base word must be nonempty with no surrounding whitespace: {word!r}")
    forms: set[str] = set()
    for cased in (word, word.lower(), word.upper()):
        forms.add(cased)
        forms.add(" " + cased)
    return forms


def build_trigger_set(
    words: Iterable[TriggerWord | str], vocab: Vocabulary
) -> TriggerTokenSet:
    """Expand base words and map every variant onto its vocabulary id.

    Only forms the vocabulary encodes as a single token are kept; absent forms
    are recorded as skipped rather than raised.  Provenance names the base
    word each kept form came from.
    """
    base_by_form: dict[str, str] = {}
    for word in words:
        base = word.base if isinstance(word, TriggerWord) else word
        for form in expand_variants(base):
            base_by_form[form] = base
    provenance: dict[int, tuple[str, str]] = {}
    skipped: list[str] = []
    for form in sorted(base_by_form):
        token_id = vocab.token_to_id.get(form)
        if token_id is None:
            skipped.append(form)
        else:
            provenance[token_id] = (form, base_by_form[form])
    return TriggerTokenSet(provenance=provenance, skipped_forms=tuple(skipped))


def build_from_traces(
    traces: Sequence[Sequence[int]],
    vocab: Vocabulary,
    base_words: Iterable[TriggerWord | str],
    min_count: int,
) -> tuple[TriggerTokenSet, dict[int, int]]:
    """Build a trigger set from decoded traces by candidate frequency.

    Candidate ids come from the variant expansion of ``base_words``; an id is
    kept when its total occurrence count across all traces reaches
    ``min_count``.  ``min_count = 0`` keeps every candidate regardless of the
    traces.  Returns the set plus the per-id frequency table over candidates.

    Raises:
        ValueError: ``min_count > 0`` with no traces to count from.
    """
    if min_count < 0:
        raise ValueError(f"min_count must be nonnegative, got {min_count}")
    if min_count > 0 and not traces:
        raise ValueError("cannot apply a positive min_count to an empty trace set")
    candidates = build_trigger_set(base_words, vocab)
    seen = Counter(token_id for trace in traces for token_id in trace)
    counts = {i: seen[i] for i in sorted(candidates.token_ids)}
    kept = {i: candidates.provenance[i] for i, c in counts.items() if c >= min_count}
    trigger_set = TriggerTokenSet(provenance=kept, skipped_forms=candidates.skipped_forms)
    return trigger_set, counts


def load_trigger_config(path: str | Path) -> tuple[list[TriggerWord], int]:
    """Read a trigger config file: {"base_words": [{"base", "category"}], "min_count"}.

    Raises:
        ValueError: the file is malformed; the message names the path.
    """
    with file_errors(path, "trigger config"):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        words = [
            TriggerWord(base=entry["base"], category=TriggerCategory(entry["category"]))
            for entry in data["base_words"]
        ]
        min_count = int(data.get("min_count", DEFAULT_MIN_COUNT))
    return words, min_count


def save_trigger_config(
    path: str | Path, words: Sequence[TriggerWord], min_count: int
) -> None:
    data = {
        "base_words": [{"base": w.base, "category": w.category.value} for w in words],
        "min_count": min_count,
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def default_trigger_words() -> list[TriggerWord]:
    return [TriggerWord(base, cat) for base, cat in DEFAULT_BASE_WORDS]


def write_frequency_csv(
    path: str | Path, trigger_set: TriggerTokenSet, counts: Mapping[int, int]
) -> None:
    """Write the per-id frequency table (token_id, surface_form, base_word, count).

    One row per counted id, including candidates a ``min_count`` filter
    dropped, so pass the candidate set whose provenance covers all of them.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token_id", "surface_form", "base_word", "count"])
        for token_id in sorted(counts):
            surface, base = trigger_set.provenance[token_id]
            writer.writerow([token_id, surface, base, counts[token_id]])
