"""Lexicon tests: variant expansion, id mapping, trace-frequency construction."""

from __future__ import annotations

import csv
import random
import re

import pytest

from cgrs.lexicon import (
    TriggerCategory,
    TriggerTokenSet,
    TriggerWord,
    Vocabulary,
    build_from_traces,
    build_trigger_set,
    default_trigger_words,
    expand_variants,
    load_trigger_config,
    save_trigger_config,
    write_frequency_csv,
)


class TestExpandVariants:
    def test_but_yields_exactly_six_forms(self):
        assert expand_variants("But") == {"But", " But", "but", " but", "BUT", " BUT"}

    def test_wait_contains_lowercase(self):
        assert "wait" in expand_variants("Wait")

    def test_hmm_contains_space_prefixed(self):
        assert " Hmm" in expand_variants("Hmm")

    def test_at_most_six_and_contains_base(self):
        rng = random.Random(7)
        alphabet = "abXYz"
        for _ in range(200):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            forms = expand_variants(word)
            assert word in forms
            assert 2 <= len(forms) <= 6
            # closed under the generating transforms
            for f in list(forms):
                stripped = f.lstrip(" ")
                assert stripped.lower() in forms or " " + stripped.lower() in forms

    def test_single_letter_collapses(self):
        # "a": lower==identity, so only 4 distinct forms
        assert expand_variants("a") == {"a", " a", "A", " A"}

    @pytest.mark.parametrize("bad", ["", " ", "Wait ", " But", "\tHmm"])
    def test_invalid_base_rejected(self, bad):
        with pytest.raises(ValueError):
            expand_variants(bad)


def scan_encode(tokens: list[str], text: str) -> list[int]:
    """Oracle: the former encoder, which scans every token longest-first."""
    by_length = sorted(tokens, key=len, reverse=True)
    ids = {t: i for i, t in enumerate(tokens)}
    out: list[int] = []
    pos = 0
    while pos < len(text):
        for tok in by_length:
            if text.startswith(tok, pos):
                out.append(ids[tok])
                pos += len(tok)
                break
        else:
            raise ValueError(f"text not encodable at offset {pos}: {text[pos:pos + 20]!r}")
    return out


class TestVocabulary:
    def test_bijection(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.size == 3
        for token, token_id in vocab.token_to_id.items():
            assert vocab.id_to_token[token_id] == token

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Vocabulary(["a", "b", "a"])

    def test_duplicate_named_in_large_vocabulary(self, deadline):
        tokens = [f"t{i}" for i in range(20_000)] + ["t1234"]
        with deadline(5), pytest.raises(ValueError) as exc:
            Vocabulary(tokens)
        assert str(exc.value).endswith("duplicates: ['t1234']")

    def test_empty_token_rejected(self):
        # an empty surface would match at every offset and stall encode()
        with pytest.raises(ValueError, match="token 1 is the empty string"):
            Vocabulary(["a", "", "b"])

    @pytest.mark.parametrize(
        "tokens, message",
        [
            ([1, 2], "token 0 is not a string: 1"),
            (["a", ["b"]], "token 1 is not a string: ['b']"),
            (["a", "b", None], "token 2 is not a string: None"),
        ],
    )
    def test_non_string_token_rejected(self, tokens, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Vocabulary(tokens)

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"a": 0, "b": "1"}, "token 'b' has id '1', not an integer"),
            ({"a": 0, "b": True}, "token 'b' has id True, not an integer"),
            ({"a": 1.0, "b": 0}, "token 'a' has id 1.0, not an integer"),
        ],
    )
    def test_non_integer_id_rejected(self, mapping, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Vocabulary.from_token_to_id(mapping)

    @pytest.mark.parametrize("tokens", ['"xy"', '{"x": 0, "y": 1}'])
    def test_json_file_tokens_entry_must_be_a_list(self, tmp_path, tokens):
        path = tmp_path / "vocab.json"
        path.write_text(f'{{"tokens": {tokens}}}')
        with pytest.raises(ValueError, match='"tokens" is not a list'):
            Vocabulary.from_json_file(path)

    def test_from_token_to_id_requires_dense_ids(self):
        with pytest.raises(ValueError, match="range"):
            Vocabulary.from_token_to_id({"a": 0, "b": 2})
        vocab = Vocabulary.from_token_to_id({"b": 1, "a": 0})
        assert vocab.id_to_token == ("a", "b")

    def test_encode_greedy_longest_match(self):
        vocab = Vocabulary(["a", "ab", "b"])
        assert vocab.encode("aab") == [0, 1]
        assert vocab.decode([0, 1]) == "aab"

    def test_encode_unencodable_text(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(ValueError, match="offset"):
            vocab.encode("ax")

    def test_encode_matches_scan_oracle(self):
        # short surfaces over a 3-letter alphabet overlap heavily as prefixes;
        # "d" is never a token, so texts containing it cannot be encoded
        rng = random.Random(23)
        encoded = failed = 0
        for _ in range(150):
            surfaces = {
                "".join(rng.choice("abc") for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(1, 30))
            }
            tokens = rng.sample(sorted(surfaces), len(surfaces))
            vocab = Vocabulary(tokens)
            for _ in range(10):
                pieces = [
                    rng.choice(tokens) if rng.random() < 0.9 else rng.choice("abcd")
                    for _ in range(rng.randint(0, 12))
                ]
                text = "".join(pieces)
                try:
                    expected = scan_encode(tokens, text)
                except ValueError as oracle_exc:
                    with pytest.raises(ValueError) as exc:
                        vocab.encode(text)
                    assert str(exc.value) == str(oracle_exc)
                    failed += 1
                else:
                    assert vocab.encode(text) == expected
                    encoded += 1
        assert encoded > 500 and failed > 200

    def test_from_json_file_formats(self, tmp_path):
        p1 = tmp_path / "list.json"
        p1.write_text('["x", "y"]')
        p2 = tmp_path / "map.json"
        p2.write_text('{"y": 1, "x": 0}')
        p3 = tmp_path / "obj.json"
        p3.write_text('{"tokens": ["x", "y"]}')
        for p in (p1, p2, p3):
            vocab = Vocabulary.from_json_file(p)
            assert vocab.id_to_token == ("x", "y")


class TestMapToTokenIds:
    """``build_trigger_set`` maps each expanded surface form onto a token id."""

    def test_single_token_forms_mapped_absent_skipped(self):
        vocab = Vocabulary(["Wait", " wait", "x"])
        ts = build_trigger_set(["Wait"], vocab)
        assert ts.token_ids == frozenset({0, 1})
        assert ts.provenance == {0: ("Wait", "Wait"), 1: (" wait", "Wait")}
        assert ts.skipped_forms == (" WAIT", " Wait", "WAIT", "wait")

    def test_multi_token_encodings_excluded(self):
        # "Wait" spells out of "Wa"+"it" but is not a single token
        vocab = Vocabulary(["Wa", "it"])
        ts = build_trigger_set(["Wait"], vocab)
        assert ts.token_ids == frozenset()
        assert set(ts.skipped_forms) == expand_variants("Wait")

    def test_provenance_tracks_base(self):
        vocab = Vocabulary(["wait", "Wait"])
        ts = build_trigger_set(["Wait"], vocab)
        assert ts.provenance[0] == ("wait", "Wait")
        assert ts.provenance[1] == ("Wait", "Wait")

    def test_union_homomorphism(self):
        rng = random.Random(3)
        words = ["Wait", "But", "Hmm", "Alternatively", "Maybe", "So"]
        tokens = sorted({f for w in words for f in expand_variants(w)} | {"x", "y"})
        vocab = Vocabulary(tokens)
        for _ in range(50):
            a = rng.sample(words, rng.randint(1, 3))
            b = rng.sample(words, rng.randint(1, 3))
            combined = build_trigger_set(a + b, vocab)
            union = build_trigger_set(a, vocab).token_ids | build_trigger_set(b, vocab).token_ids
            assert combined.token_ids == union

    def test_immutable(self):
        vocab = Vocabulary(["Wait"])
        ts = build_trigger_set(["Wait"], vocab)
        with pytest.raises(AttributeError):
            ts.token_ids = frozenset()

    def test_ids_are_the_provenance_keys(self):
        ts = TriggerTokenSet(provenance={4: (" but", "But"), 1: ("Wait", "Wait")})
        assert ts.token_ids == frozenset({1, 4}) == frozenset(ts.provenance)
        with pytest.raises(TypeError):
            TriggerTokenSet(token_ids=frozenset({1}), provenance={})


class TestBuildFromTraces:
    @pytest.fixture
    def vocab(self):
        return Vocabulary(["Wait", " wait", "But", "step", "x"])

    def test_min_count_zero_keeps_all_candidates(self, vocab):
        ts, counts = build_from_traces([], vocab, ["Wait", "But"], min_count=0)
        assert ts.token_ids == frozenset({0, 1, 2})
        assert counts == {0: 0, 1: 0, 2: 0}

    def test_positive_min_count_requires_traces(self, vocab):
        with pytest.raises(ValueError, match="empty"):
            build_from_traces([], vocab, ["Wait"], min_count=1)

    def test_counts_and_threshold(self, vocab):
        traces = [[0, 3, 0, 1], [2, 3, 3]]
        ts, counts = build_from_traces(traces, vocab, ["Wait", "But"], min_count=2)
        assert counts == {0: 2, 1: 1, 2: 1}
        assert ts.token_ids == frozenset({0})

    def test_min_count_monotonicity(self, vocab):
        rng = random.Random(11)
        for _ in range(30):
            traces = [
                [rng.randrange(vocab.size) for _ in range(rng.randint(0, 30))]
                for _ in range(rng.randint(1, 5))
            ]
            previous = None
            for mc in range(0, 6):
                ts, _ = build_from_traces(traces, vocab, ["Wait", "But"], min_count=mc)
                if previous is not None:
                    assert ts.token_ids <= previous
                previous = ts.token_ids

    def test_frequency_csv_covers_dropped_candidates(self, vocab, tmp_path):
        _, counts = build_from_traces([[0, 0, 2]], vocab, ["Wait", "But"], min_count=2)
        candidates = build_trigger_set(["Wait", "But"], vocab)
        path = tmp_path / "freq.csv"
        write_frequency_csv(path, candidates, counts)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["token_id", "surface_form", "base_word", "count"]
        assert rows[1] == ["0", "Wait", "Wait", "2"]
        assert rows[2] == ["1", " wait", "Wait", "0"]
        assert rows[3] == ["2", "But", "But", "1"]


class TestTriggerConfig:
    def test_round_trip_lossless(self, tmp_path):
        words = default_trigger_words() + [
            TriggerWord("Maybe", TriggerCategory.ALTERNATIVE_PROPOSAL)
        ]
        path = tmp_path / "triggers.json"
        save_trigger_config(path, words, min_count=4)
        loaded_words, loaded_min = load_trigger_config(path)
        assert loaded_words == words
        assert loaded_min == 4

    def test_default_inventory(self):
        words = default_trigger_words()
        assert [w.base for w in words] == ["Wait", "But", "Alternatively", "Hmm"]
        by_base = {w.base: w.category for w in words}
        assert by_base["Wait"] == TriggerCategory.HESITATION_TRANSITION
        assert by_base["But"] == TriggerCategory.HESITATION_TRANSITION
        assert by_base["Alternatively"] == TriggerCategory.ALTERNATIVE_PROPOSAL
        assert by_base["Hmm"] == TriggerCategory.CONTEMPLATION_CUE

    def test_trigger_word_validation(self):
        with pytest.raises(ValueError):
            TriggerWord("", TriggerCategory.CONTEMPLATION_CUE)
        with pytest.raises(ValueError):
            TriggerWord(" Wait", TriggerCategory.CONTEMPLATION_CUE)

    def test_trigger_set_json_round_trip(self):
        # the exact form ``cgrs lexicon build`` writes to triggers.json
        vocab = Vocabulary(["Wait", "wait"])
        ts = build_trigger_set(["Wait"], vocab)
        assert ts.to_json_dict() == {
            "token_ids": [0, 1],
            "provenance": {
                "0": {"surface_form": "Wait", "base_word": "Wait"},
                "1": {"surface_form": "wait", "base_word": "Wait"},
            },
            "skipped_forms": [" WAIT", " Wait", " wait", "WAIT"],
        }
