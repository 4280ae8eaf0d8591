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
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


#: Default trigger inventory, after the paper's three families: hesitation
#: and transition words ("Wait", "But"), an alternative-proposal marker
#: ("Alternatively") and a colloquial contemplation cue ("Hmm").
DEFAULT_BASE_WORDS: tuple[str, ...] = ("Wait", "But", "Alternatively", "Hmm")

DEFAULT_MIN_COUNT = 1

#: Texts whose ids a :class:`Vocabulary` keeps; the oldest is dropped first.
#: A MATH500-sized dataset plus the probe prompt fits.
ENCODE_MEMO_SIZE = 4096


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
    """Bijective token-id table with greedy longest-match text encoding.

    ``encode`` keeps the ids of the last :data:`ENCODE_MEMO_SIZE` texts it
    encoded, so a prompt or probe prompt seen before costs one dict probe.
    Threads may share a vocabulary; a copy or an unpickled one starts with an
    empty memo.
    """

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
        self._init_memo()

    def _init_memo(self) -> None:
        self._memo: dict[str, tuple[int, ...]] = {}
        self._memo_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # a lock does not pickle; the memo is rebuilt on use
        return {k: v for k, v in vars(self).items() if k not in ("_memo", "_memo_lock")}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._init_memo()

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
        surfaces = self._id_to_token
        return "".join([surfaces[i] for i in ids])

    def encode(self, text: str) -> list[int]:
        """Greedy longest-match tokenization; the caller owns the list returned.

        A text encoded before is looked up, not scanned again.  A text that
        fails to encode is not kept.

        Raises:
            TypeError: ``text`` is not a ``str``.
            ValueError: if some position of ``text`` matches no token.
        """
        if not isinstance(text, str):
            raise TypeError(f"encode takes a str, got {type(text).__name__}: {text!r:.80}")
        ids = self._memo.get(text)
        if ids is None:
            ids = self._scan(text)
            with self._memo_lock:
                memo = self._memo
                if len(memo) >= ENCODE_MEMO_SIZE:
                    del memo[next(iter(memo))]
                memo[text] = ids
        return list(ids)

    def _scan(self, text: str) -> tuple[int, ...]:
        """The greedy longest-match loop behind :meth:`encode`."""
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
        return tuple(out)


@dataclass(frozen=True)
class TriggerTokenSet:
    """Immutable set of vocabulary ids treated as reflection triggers.

    ``provenance`` maps each trigger id back to the surface form and base word
    it came from, ``token_ids`` is the set of its keys and ``sorted_ids`` the
    same ids ascending, as a read-only int64 array; ``skipped_forms`` lists
    candidate surfaces that the vocabulary does not encode as a single token
    (multi-token encodings are excluded by design).
    """

    provenance: Mapping[int, tuple[str, str]]  # id -> (surface form, base word)
    skipped_forms: tuple[str, ...] = field(default_factory=tuple)
    token_ids: frozenset[int] = field(init=False)
    sorted_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_ids", frozenset(self.provenance))
        ids = np.array(sorted(self.token_ids), dtype=np.int64)
        ids.flags.writeable = False
        object.__setattr__(self, "sorted_ids", ids)

    def __reduce__(self):
        # a copy or an unpickled set is built anew, so its kept ids stay read-only
        return type(self), (self.provenance, self.skipped_forms)

    def __contains__(self, token_id: int) -> bool:
        return token_id in self.token_ids

    def __len__(self) -> int:
        return len(self.token_ids)

    def to_json_dict(self) -> dict:
        return {
            "token_ids": self.sorted_ids.tolist(),
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
    if not isinstance(word, str) or not word or word != word.strip():
        raise ValueError(
            f"base word must be a nonempty string with no surrounding whitespace: {word!r}"
        )
    forms: set[str] = set()
    for cased in (word, word.lower(), word.upper()):
        forms.add(cased)
        forms.add(" " + cased)
    return forms


def build_trigger_set(words: Iterable[str], vocab: Vocabulary) -> TriggerTokenSet:
    """Expand base words and map every variant onto its vocabulary id.

    Only forms the vocabulary encodes as a single token are kept; absent forms
    are recorded as skipped rather than raised.  Provenance names the base
    word each kept form came from.
    """
    base_by_form: dict[str, str] = {}
    for word in words:
        for form in expand_variants(word):
            base_by_form[form] = word
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
    traces: Sequence[Sequence[int]], candidates: TriggerTokenSet, min_count: int
) -> tuple[TriggerTokenSet, dict[int, int]]:
    """Keep the ``candidates`` (a :func:`build_trigger_set`) that decoded traces use often enough.

    A candidate id is kept when its total occurrence count across all traces
    reaches ``min_count``.  ``min_count = 0`` keeps every candidate regardless
    of the traces.  Returns the set plus the per-id frequency table over
    candidates.

    Raises:
        ValueError: ``min_count > 0`` with no traces to count from.
    """
    if min_count < 0:
        raise ValueError(f"min_count must be nonnegative, got {min_count}")
    if min_count > 0 and not traces:
        raise ValueError("cannot apply a positive min_count to an empty trace set")
    seen = Counter(token_id for trace in traces for token_id in trace)
    counts = {i: seen[i] for i in candidates.sorted_ids.tolist()}
    kept = {i: candidates.provenance[i] for i, c in counts.items() if c >= min_count}
    trigger_set = TriggerTokenSet(provenance=kept, skipped_forms=candidates.skipped_forms)
    return trigger_set, counts


def load_trigger_config(path: str | Path) -> tuple[list[str], int]:
    """Read a trigger config file: {"base_words": [{"base": word}, ...], "min_count": n}.

    Each base word passes :func:`expand_variants`' check, and ``min_count``
    (default :data:`DEFAULT_MIN_COUNT`) is a nonnegative integer.  Other keys
    of the file or of an entry are ignored.

    Raises:
        ValueError: the file is malformed; the message names the path.
    """
    with file_errors(path, "trigger config"):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        words = [entry["base"] for entry in data["base_words"]]
        for word in words:
            expand_variants(word)
        min_count = data.get("min_count", DEFAULT_MIN_COUNT)
        # bool is an int subclass: a JSON true would otherwise pass as 1
        if isinstance(min_count, bool) or not isinstance(min_count, int) or min_count < 0:
            raise ValueError(f"min_count must be a nonnegative integer, got {min_count!r}")
    return words, min_count


def save_trigger_config(path: str | Path, words: Sequence[str], min_count: int) -> None:
    data = {"base_words": [{"base": word} for word in words], "min_count": min_count}
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def default_trigger_words() -> list[str]:
    return list(DEFAULT_BASE_WORDS)


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
