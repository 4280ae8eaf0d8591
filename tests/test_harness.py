"""Harness tests: dataset loading, answer scoring, benchmark aggregation."""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import pytest

import cgrs
from cgrs import controller, harness
from cgrs.controller import GenerationConfig
from cgrs.harness import (
    DatasetError,
    ExtractionError,
    ModeSpec,
    Problem,
    RunReport,
    canonicalize_answer,
    count_trigger_words,
    extract_boxed_answer,
    length_reduction,
    load_dataset,
    run_benchmark,
    score,
    write_reports,
)

from cgrs.backend import RemoteBackend, ToyBackend, ToyModelSpec, overthinking_spec
from cgrs.lexicon import Vocabulary
from cgrs.rng import _block

from conftest import TOY_PROMPT
from remote_stub import toy_completion_server


# the on-disk report schema: a renamed or added RunReport field must show up here
REPORT_KEYS = {
    "mode",
    "dataset",
    "n_problems",
    "repetitions",
    "seeds",
    "accuracy",
    "mean_length",
    "length_reduction",
    "length_distribution",
    "trigger_frequencies",
    "unparsable",
    "backend_failures",
}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


@pytest.fixture
def toy_problems():
    return [
        Problem(id=f"toy-{i:03d}", prompt=TOY_PROMPT, gold_answer="42") for i in range(3)
    ]


def bench_config(**overrides) -> GenerationConfig:
    base = dict(temperature=1.0, top_p=1.0, delta=0.9, max_tokens=200)
    base.update(overrides)
    return GenerationConfig(**base)


class TestLoadDataset:
    def test_valid_file_keeps_order(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "prompt": "p1", "gold_answer": "1"},
                {"id": "b", "prompt": "p2", "gold_answer": "2", "answer_style": "choice"},
            ],
        )
        problems = load_dataset(path)
        assert [p.id for p in problems] == ["a", "b"]
        assert problems[1].answer_style == "choice"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "prompt": "p", "gold_answer": "1"}\n\n\n')
        assert len(load_dataset(path)) == 1

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "prompt": "p", "gold_answer": "1"}\n{oops\n')
        with pytest.raises(DatasetError, match=r":2:"):
            load_dataset(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "prompt": "p"}\n')
        with pytest.raises(DatasetError, match=r":1:.*gold_answer"):
            load_dataset(path)

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            path,
            [
                {"id": "dup", "prompt": "p", "gold_answer": "1"},
                {"id": "dup", "prompt": "q", "gold_answer": "2"},
            ],
        )
        with pytest.raises(DatasetError, match="dup"):
            load_dataset(path)

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.warns(UserWarning, match="empty"):
            assert load_dataset(path) == []

    def test_bad_answer_style_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "prompt": "p", "gold_answer": "1", "answer_style": "x"}])
        with pytest.raises(ValueError, match="answer_style"):
            load_dataset(path)

    @pytest.mark.parametrize("prompt", [5, None, ["p"]])
    def test_non_string_prompt_names_line(self, tmp_path, prompt):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "prompt": "p", "gold_answer": "1"},
                {"id": "b", "prompt": prompt, "gold_answer": "2"},
            ],
        )
        with pytest.raises(DatasetError, match=r"d\.jsonl:2: prompt must be a string"):
            load_dataset(path)

    def test_non_object_line_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "prompt": "p", "gold_answer": "1"}\n[1, 2]\n')
        with pytest.raises(DatasetError, match=r":2: expected a JSON object"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "value", [None, True, False, ["7"], {"v": "7"}],
        ids=["null", "true", "false", "list", "object"],
    )
    @pytest.mark.parametrize("field", ["id", "gold_answer"])
    def test_non_text_id_or_answer_names_line(self, tmp_path, field, value):
        # str() would read null as "None" and a list as its Python repr
        path = tmp_path / "d.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "prompt": "p", "gold_answer": "1"},
                {"id": "b", "prompt": "p", "gold_answer": "2", field: value},
            ],
        )
        with pytest.raises(DatasetError, match=rf"d\.jsonl:2: {field} must be a string or number"):
            load_dataset(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field", ["id", "gold_answer"])
    def test_non_finite_number_names_line(self, tmp_path, field, literal):
        # json reads these as float nan and inf, which str() would score as text
        path = tmp_path / "d.jsonl"
        record = {"id": '"b"', "prompt": '"p"', "gold_answer": '"2"', field: literal}
        body = ", ".join(f'"{k}": {v}' for k, v in record.items())
        path.write_text('{"id": "a", "prompt": "p", "gold_answer": "1"}\n{' + body + "}\n")
        kind = "an integer" if field == "id" else "a finite number"
        with pytest.raises(DatasetError, match=rf"d\.jsonl:2: {field} must be a string or {kind}"):
            load_dataset(path)

    @pytest.mark.parametrize("literal", ["1.5", "7.0", "7e0"])
    def test_fractional_number_id_names_line(self, tmp_path, literal):
        path = tmp_path / "d.jsonl"
        path.write_text(f'{{"id": {literal}, "prompt": "p", "gold_answer": "1"}}\n')
        with pytest.raises(DatasetError, match=r"d\.jsonl:1: id must be a string or an integer"):
            load_dataset(path)

    def test_numbers_load_as_their_text(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            path,
            [
                {"id": 7, "prompt": "p", "gold_answer": 42},
                {"id": "b", "prompt": "p", "gold_answer": 1.5},
            ],
        )
        problems = load_dataset(path)
        assert [(p.id, p.gold_answer) for p in problems] == [("7", "42"), ("b", "1.5")]

    def test_demo_problems_load(self):
        demo = Path(__file__).resolve().parents[1] / "demo" / "problems.jsonl"
        assert [(p.id, p.gold_answer) for p in load_dataset(demo)] == [
            ("toy-001", "42"), ("toy-002", "42"), ("toy-003", "42"),
        ]


class TestExtractBoxedAnswer:
    def test_basic(self):
        assert extract_boxed_answer(r"thus \boxed{42}") == "42"

    def test_last_occurrence_wins(self):
        assert extract_boxed_answer(r"\boxed{1} no wait \boxed{2}") == "2"

    def test_nested_braces(self):
        assert extract_boxed_answer(r"\boxed{\frac{1}{2}}") == r"\frac{1}{2}"

    def test_empty_box(self):
        assert extract_boxed_answer(r"\boxed{}") == ""

    def test_missing_raises(self):
        with pytest.raises(ExtractionError, match="no"):
            extract_boxed_answer("answer is 42")

    def test_no_brace_after_marker(self):
        with pytest.raises(ExtractionError):
            extract_boxed_answer(r"\boxed 42")

    def test_unbalanced_braces(self):
        with pytest.raises(ExtractionError, match="unbalanced"):
            extract_boxed_answer(r"\boxed{\frac{1}{2}")

    def test_suffix_text_ignored(self):
        assert extract_boxed_answer(r"so \boxed{42} done.") == "42"


class TestScoring:
    @pytest.mark.parametrize(
        "raw,canonical",
        [
            ("  42 ", "42"),
            ("(42)", "42"),
            ("((42))", "42"),
            ("( 42 )", "42"),
            ("+5", "5"),
            ("(+5)", "5"),
            ("(a)(b)", "(a)(b)"),  # first paren closes early: not an outer wrap
            ("-7", "-7"),
            ("", ""),
        ],
    )
    def test_canonicalize(self, raw, canonical):
        assert canonicalize_answer(raw) == canonical

    def test_exact_match(self):
        assert score("42", "42")
        assert score(" (42) ", "42")
        assert not score("41", "42")

    def test_case_sensitive_by_default(self):
        assert not score("a", "A")

    def test_choice_style_case_insensitive(self):
        assert score("a", "A", answer_style="choice")
        assert score("(C)", "c", answer_style="choice")
        assert not score("B", "A", answer_style="choice")


class TestCountTriggerWords:
    def test_case_variants_counted(self):
        counts = count_trigger_words(
            ["Wait, but wait... BUT then"], ["Wait", "But"]
        )
        assert counts == {"Wait": 2, "But": 2}

    def test_word_boundaries(self):
        counts = count_trigger_words(["Waiting for butter, but Wait."], ["Wait", "But"])
        assert counts == {"Wait": 1, "But": 1}

    def test_multiple_texts_summed(self):
        counts = count_trigger_words(["Wait", "wait wait"], ["Wait"])
        assert counts == {"Wait": 3}

    def test_absent_word_zero(self):
        assert count_trigger_words(["nothing here"], ["Hmm"]) == {"Hmm": 0}


class TestModeSpec:
    def test_parse(self):
        assert ModeSpec.parse("vanilla") == ModeSpec("vanilla")
        assert ModeSpec.parse("cgrs") == ModeSpec("cgrs")
        assert ModeSpec.parse("fixed-p=0.5") == ModeSpec("fixed_p", fixed_p=0.5)

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ModeSpec.parse("greedy")

    @pytest.mark.parametrize("text", ["fixed-p=1.5", "fixed-p=nan", "fixed-p=-0.1"])
    def test_parse_out_of_range_probability(self, text):
        with pytest.raises(ValueError, match=r"fixed_p must lie in \[0, 1\]"):
            ModeSpec.parse(text)

    def test_labels(self):
        assert ModeSpec("vanilla").label == "vanilla"
        assert ModeSpec("cgrs").label == "cgrs"
        assert ModeSpec("fixed_p", 0.5).label == "fixed_p_0.5"
        assert ModeSpec("fixed_p", 1.0).label == "fixed_p_1"

    def test_kind_probability_consistency(self):
        with pytest.raises(ValueError):
            ModeSpec("vanilla", fixed_p=0.5)
        with pytest.raises(ValueError):
            ModeSpec("fixed_p")

    def test_apply(self):
        base = bench_config()
        modes = [ModeSpec("vanilla"), ModeSpec("fixed_p", 0.25), ModeSpec("cgrs")]
        for seed, mode in zip((7, 8, 9), modes):
            assert mode.apply(base, seed=seed) == dataclasses.replace(base, seed=seed, mode=mode)
        assert base.seed == 0 and base.mode == ModeSpec("cgrs")  # base untouched

    def test_one_class_behind_every_import(self):
        assert harness.ModeSpec is controller.ModeSpec is cgrs.ModeSpec


class TestLengthReduction:
    def test_reference_case(self):
        assert abs(length_reduction(5861.0, 3406.0) - 41.887) < 0.05

    def test_no_reduction(self):
        assert length_reduction(100.0, 100.0) == 0.0

    def test_negative_when_longer(self):
        assert length_reduction(100.0, 150.0) == -50.0

    def test_invalid_vanilla_mean(self):
        with pytest.raises(ValueError):
            length_reduction(0.0, 10.0)


class TestRunBenchmark:
    def run(self, backend, problems, modes=None, seeds=(0, 1, 2), **kwargs):
        modes = modes or [ModeSpec("vanilla"), ModeSpec("fixed_p", 1.0), ModeSpec("cgrs")]
        return run_benchmark(
            problems,
            backend,
            modes,
            bench_config(),
            seeds=list(seeds),
            dataset_name="toy",
            **kwargs,
        )

    def test_accuracy_and_lengths(self, overthinking_backend, toy_problems):
        reports = self.run(overthinking_backend, toy_problems, seeds=range(8))
        for label, report in reports.items():
            assert report.accuracy == 100.0, label
            assert report.unparsable == 0
            assert report.backend_failures == 0
            assert report.n_problems == 3
            assert report.repetitions == 8
            assert len(report.length_distribution) == 24
        assert reports["fixed_p_1"].mean_length == 6.0
        assert reports["vanilla"].mean_length >= 6.0
        assert reports["vanilla"].length_reduction == 0.0

    def test_length_reduction_consistent(self, overthinking_backend, toy_problems):
        reports = self.run(overthinking_backend, toy_problems)
        van = reports["vanilla"].mean_length
        for label in ("fixed_p_1", "cgrs"):
            expected = length_reduction(van, reports[label].mean_length)
            assert abs(reports[label].length_reduction - expected) < 1e-12

    def test_no_vanilla_mode_reports_none(self, overthinking_backend, toy_problems):
        reports = self.run(overthinking_backend, toy_problems, modes=[ModeSpec("cgrs")])
        assert reports["cgrs"].length_reduction is None

    def test_trigger_frequencies_match_text_counts(self, overthinking_backend, toy_problems):
        reports = self.run(overthinking_backend, toy_problems, modes=[ModeSpec("vanilla")])
        report = reports["vanilla"]
        assert report.trigger_frequencies["Wait"] >= 0
        assert set(report.trigger_frequencies) == {"Wait", "But", "Alternatively", "Hmm"}
        assert report.trigger_frequencies["But"] == 0
        # fixed p=1 bans the trigger everywhere
        banned = self.run(overthinking_backend, toy_problems, modes=[ModeSpec("fixed_p", 1.0)])
        assert banned["fixed_p_1"].trigger_frequencies["Wait"] == 0

    def test_deterministic_across_invocations(self, overthinking_backend, toy_problems):
        a = self.run(overthinking_backend, toy_problems)
        b = self.run(overthinking_backend, toy_problems)
        assert a == b

    def test_parallel_equals_serial(self, toy_problems):
        # the threads run first, on a fresh backend: each distribution's kept
        # entropy is filled under threads, then read serially
        backend = ToyBackend(overthinking_spec())
        parallel = self.run(backend, toy_problems, parallelism=4)
        serial = self.run(backend, toy_problems)
        assert serial == parallel

    def test_problem_seeds_differ_within_repetition(self, overthinking_backend):
        # identical prompts must not produce identical per-problem streams
        problems = [
            Problem(id=f"p{i}", prompt=TOY_PROMPT, gold_answer="42") for i in range(20)
        ]
        reports = self.run(
            overthinking_backend, problems, modes=[ModeSpec("vanilla")], seeds=[0]
        )
        lengths = reports["vanilla"].length_distribution
        assert len(set(lengths)) > 1

    def test_unparsable_counted(self, overthinking_backend):
        problems = [
            Problem(id="ok", prompt=TOY_PROMPT, gold_answer="42"),
            # "}" immediately emits EOS: empty text, no boxed answer
            Problem(id="empty", prompt="}", gold_answer="42"),
        ]
        reports = self.run(overthinking_backend, problems, modes=[ModeSpec("vanilla")], seeds=[0])
        report = reports["vanilla"]
        assert report.unparsable == 1
        assert report.accuracy == 50.0

    def test_backend_failures_counted(self, overthinking_backend):
        problems = [
            Problem(id="ok", prompt=TOY_PROMPT, gold_answer="42"),
            # bare EOS context matches no emission rule
            Problem(id="boom", prompt="<eos>", gold_answer="42"),
        ]
        reports = self.run(overthinking_backend, problems, modes=[ModeSpec("vanilla")], seeds=[0])
        report = reports["vanilla"]
        assert report.backend_failures == 1
        assert report.length_distribution[1] == 0

    def test_malformed_remote_reply_counted_as_backend_failure(self, toy_problems):
        with toy_completion_server(overthinking_spec(), fail_first=1, fault="non_json") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            reports = self.run(remote, toy_problems, modes=[ModeSpec("vanilla")], seeds=[0])
        report = reports["vanilla"]
        assert report.backend_failures == 1
        assert report.length_distribution[0] == 0
        assert report.accuracy == pytest.approx(200.0 / 3)

    def test_non_string_remote_text_counted_as_backend_failure(self, toy_problems):
        with toy_completion_server(overthinking_spec(), fail_first=1, fault="list_text") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>")
            reports = self.run(remote, toy_problems, modes=[ModeSpec("vanilla")], seeds=[0])
        report = reports["vanilla"]
        assert report.backend_failures == 1
        assert report.length_distribution[0] == 0
        assert report.accuracy == pytest.approx(200.0 / 3)

    def test_remote_timeouts_after_retries_counted_as_backend_failure(self, toy_problems):
        # two delayed replies outlast one request and its one retry
        with toy_completion_server(overthinking_spec(), fail_first=2, fault="timeout") as (
            base_url,
            toy,
        ):
            remote = RemoteBackend(
                vocab=toy.vocabulary,
                base_url=base_url,
                eos_token="<eos>",
                timeout=0.2,
                max_retries=1,
                retry_backoff=0,
            )
            reports = self.run(remote, toy_problems, modes=[ModeSpec("vanilla")], seeds=[0])
        report = reports["vanilla"]
        assert report.backend_failures == 1
        assert report.length_distribution[0] == 0
        assert report.accuracy == pytest.approx(200.0 / 3)

    def test_remote_parallel_equals_serial(self, toy_problems):
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            remote = RemoteBackend(
                vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>", top_k=11
            )
            serial = self.run(remote, toy_problems, seeds=(0, 1))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # more thread switches inside each request
            try:
                parallel = self.run(remote, toy_problems, seeds=(0, 1), parallelism=4)
            finally:
                sys.setswitchinterval(interval)
        assert serial["vanilla"].backend_failures == 0
        assert serial == parallel

    def test_duplicate_mode_labels_rejected(self, overthinking_backend, toy_problems):
        with pytest.raises(ValueError, match="duplicate"):
            self.run(
                overthinking_backend,
                toy_problems,
                modes=[ModeSpec("cgrs"), ModeSpec("cgrs")],
            )

    def test_empty_seeds_rejected(self, overthinking_backend, toy_problems):
        with pytest.raises(ValueError, match="seed"):
            self.run(overthinking_backend, toy_problems, seeds=[])

    def test_bad_parallelism_rejected(self, overthinking_backend, toy_problems):
        with pytest.raises(ValueError, match="parallelism"):
            self.run(overthinking_backend, toy_problems, parallelism=0)

    def test_out_of_range_fixed_p_rejected_before_any_model_call(self, monkeypatch, toy_problems):
        backend = ToyBackend(overthinking_spec())
        calls = []
        inner = backend.next_distribution
        monkeypatch.setattr(
            backend, "next_distribution", lambda ctx: calls.append(len(ctx)) or inner(ctx)
        )
        with pytest.raises(ValueError, match=r"fixed_p must lie in \[0, 1\], got 1.5"):
            self.run(backend, toy_problems, modes=[ModeSpec("vanilla"), ModeSpec.parse("fixed-p=1.5")])
        assert calls == []

    def test_unencodable_prompt_rejected_before_any_model_call(self, monkeypatch):
        backend = ToyBackend(overthinking_spec())
        calls = []
        inner = backend.next_distribution
        monkeypatch.setattr(
            backend, "next_distribution", lambda ctx: calls.append(len(ctx)) or inner(ctx)
        )
        problems = [
            Problem(id="good", prompt=TOY_PROMPT, gold_answer="42"),
            Problem(id="bad-7", prompt=TOY_PROMPT + "Solve 8*9. ", gold_answer="72"),
        ]
        with pytest.raises(DatasetError, match="'bad-7'.*not encodable"):
            self.run(backend, problems)
        assert calls == []

    def test_unencodable_probe_prompt_rejected_before_any_model_call(self, monkeypatch, toy_problems):
        backend = ToyBackend(overthinking_spec())
        calls = []
        inner = backend.next_distribution
        monkeypatch.setattr(
            backend, "next_distribution", lambda ctx: calls.append(len(ctx)) or inner(ctx)
        )
        config = bench_config(probe_prompt="zzz")
        modes = [ModeSpec("vanilla"), ModeSpec("cgrs")]
        with pytest.raises(ValueError, match="^probe_prompt is not encodable: text not encodable"):
            run_benchmark(toy_problems, backend, modes, config, seeds=[0])
        assert calls == []
        # no mode probes: the probe prompt is never encoded
        reports = run_benchmark(toy_problems, backend, modes[:1], config, seeds=[0])
        assert reports["vanilla"].accuracy == 100.0

    def test_each_text_tokenized_once(self, monkeypatch):
        # the demo's prompt and the probe prompt, over four modes and five seeds
        scanned = []
        scan = Vocabulary._scan
        monkeypatch.setattr(
            Vocabulary, "_scan", lambda vocab, text: scanned.append(text) or scan(vocab, text)
        )
        demo = Path(__file__).resolve().parent.parent / "demo"
        backend = ToyBackend(ToyModelSpec.from_json_file(demo / "toy_overthinking.json"))
        modes = [ModeSpec.parse(m) for m in ("vanilla", "cgrs", "fixed-p=0.5", "fixed-p=1")]
        config = GenerationConfig()
        run_benchmark(load_dataset(demo / "problems.jsonl"), backend, modes, config, seeds=range(5))
        assert sorted(scanned) == sorted({TOY_PROMPT, config.probe_prompt})

    def test_later_modes_share_the_sampling_blocks(self):
        # 30 seeds make 90 tasks a mode, more than the 64-block cache holds:
        # fixed-p=1 must still read each task's sampling blocks from vanilla's
        demo = Path(__file__).resolve().parent.parent / "demo"
        backend = ToyBackend(ToyModelSpec.from_json_file(demo / "toy_overthinking.json"))
        problems = load_dataset(demo / "problems.jsonl")
        misses = []
        for labels in (["vanilla"], ["vanilla", "fixed-p=1"]):
            _block.cache_clear()
            modes = [ModeSpec.parse(m) for m in labels]
            run_benchmark(problems, backend, modes, GenerationConfig(), seeds=range(30))
            misses.append(_block.cache_info().misses)
        assert misses[0] >= 90 and misses[1] == misses[0], misses


class TestWriteReports:
    def test_files_and_csv_format(self, overthinking_backend, toy_problems, tmp_path):
        reports = run_benchmark(
            toy_problems,
            overthinking_backend,
            [ModeSpec("vanilla"), ModeSpec("cgrs")],
            bench_config(),
            seeds=[0, 1],
            dataset_name="toy",
        )
        paths = write_reports(reports, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == ["cgrs.json", "summary.csv", "vanilla.json"]
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "mode", "acc", "len", "lr"]
        assert [r[1] for r in rows[1:]] == ["cgrs", "vanilla"]
        for row in rows[1:]:
            assert row[0] == "toy"
            for cell in row[2:]:
                assert cell == "" or "." in cell  # %.1f formatting
        data = json.loads((tmp_path / "out" / "vanilla.json").read_text())
        assert data["mode"] == "vanilla"
        assert data["length_reduction"] == 0.0

    def test_byte_identical_rewrites(self, overthinking_backend, toy_problems, tmp_path):
        reports = run_benchmark(
            toy_problems,
            overthinking_backend,
            [ModeSpec("vanilla")],
            bench_config(),
            seeds=[0],
            dataset_name="toy",
        )
        write_reports(reports, tmp_path / "a")
        write_reports(reports, tmp_path / "b")
        for name in ("vanilla.json", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_none_reduction_renders_empty(self, overthinking_backend, toy_problems, tmp_path):
        reports = run_benchmark(
            toy_problems,
            overthinking_backend,
            [ModeSpec("cgrs")],
            bench_config(),
            seeds=[0],
            dataset_name="toy",
        )
        write_reports(reports, tmp_path)
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][4] == ""

    def test_json_schema_is_the_report_fields(self, overthinking_backend, toy_problems, tmp_path):
        reports = run_benchmark(
            toy_problems,
            overthinking_backend,
            [ModeSpec("vanilla"), ModeSpec("cgrs")],
            bench_config(),
            seeds=[0, 1],
            dataset_name="toy",
        )
        write_reports(reports, tmp_path)
        for label, report in reports.items():
            data = json.loads((tmp_path / f"{label}.json").read_text())
            assert set(data) == REPORT_KEYS
            data["seeds"] = tuple(data["seeds"])
            data["length_distribution"] = tuple(data["length_distribution"])
            assert RunReport(**data) == report
