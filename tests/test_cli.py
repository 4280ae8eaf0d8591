"""CLI tests: run, lexicon build, and analyze subcommands end to end."""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cgrs
from cgrs.backend import EmissionRule, ToyBackend, ToyModelSpec
from cgrs.cli import main
from cgrs.controller import GenerationConfig, ModeSpec, generate
from cgrs.lexicon import (
    TriggerCategory,
    TriggerWord,
    build_trigger_set,
    save_trigger_config,
)

from conftest import TOY_PROMPT

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_DIR = REPO_ROOT / "demo"


@pytest.fixture
def toy_assets(tmp_path):
    # the demo file is pinned to overthinking_spec() by test_demo_file_in_sync
    spec_path = tmp_path / "toy.json"
    shutil.copyfile(DEMO_DIR / "toy_overthinking.json", spec_path)
    dataset_path = tmp_path / "problems.jsonl"
    with open(dataset_path, "w", encoding="utf-8") as fh:
        for i in range(3):
            fh.write(
                json.dumps(
                    {"id": f"toy-{i}", "prompt": TOY_PROMPT, "gold_answer": "42"}
                )
                + "\n"
            )
    return spec_path, dataset_path


def run_cli(args):
    return main([str(a) for a in args])


class TestRunCommand:
    def test_default_modes(self, toy_assets, tmp_path, capsys):
        spec_path, dataset_path = toy_assets
        out = tmp_path / "out"
        rc = run_cli(
            [
                "run",
                "--dataset", dataset_path,
                "--backend", f"toy:{spec_path}",
                "--temperature", "1.0",
                "--top-p", "1.0",
                "--seeds", "0,1",
                "--reps", "2",
                "--out", out,
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "vanilla" in captured and "cgrs" in captured
        assert (out / "vanilla.json").exists()
        assert (out / "cgrs.json").exists()
        assert (out / "summary.csv").exists()

    def test_explicit_modes_and_csv(self, toy_assets, tmp_path):
        spec_path, dataset_path = toy_assets
        out = tmp_path / "out"
        run_cli(
            [
                "run",
                "--dataset", dataset_path,
                "--backend", f"toy:{spec_path}",
                "--mode", "vanilla",
                "--mode", "fixed-p=1.0",
                "--mode", "cgrs",
                "--temperature", "1.0",
                "--top-p", "1.0",
                "--seeds", "0,1,2",
                "--reps", "3",
                "--out", out,
            ]
        )
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "mode", "acc", "len", "lr"]
        by_mode = {row[1]: row for row in rows[1:]}
        assert set(by_mode) == {"vanilla", "fixed_p_1", "cgrs"}
        assert by_mode["vanilla"][2] == "100.0"
        assert by_mode["fixed_p_1"][3] == "6.0"
        assert by_mode["vanilla"][4] == "0.0"

    def test_run_byte_identical(self, toy_assets, tmp_path):
        spec_path, dataset_path = toy_assets
        args = [
            "run",
            "--dataset", dataset_path,
            "--backend", f"toy:{spec_path}",
            "--temperature", "1.0",
            "--top-p", "1.0",
            "--seeds", "0,1",
            "--reps", "2",
        ]
        run_cli(args + ["--out", tmp_path / "a"])
        run_cli(args + ["--out", tmp_path / "b"])
        for name in ("vanilla.json", "cgrs.json", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seeds_reps_mismatch(self, toy_assets, tmp_path):
        spec_path, dataset_path = toy_assets
        with pytest.raises(SystemExit, match="reps"):
            run_cli(
                [
                    "run",
                    "--dataset", dataset_path,
                    "--backend", f"toy:{spec_path}",
                    "--seeds", "0,1,2",
                    "--reps", "2",
                    "--out", tmp_path / "o",
                ]
            )

    def test_seeds_without_reps_set_the_count(self, toy_assets, tmp_path, capsys):
        # --reps used to default to 3 and reject any other number of --seeds
        spec_path, dataset_path = toy_assets
        out = tmp_path / "out"
        rc = run_cli(
            [
                "run",
                "--dataset", dataset_path,
                "--backend", f"toy:{spec_path}",
                "--mode", "vanilla",
                "--seeds", "4,7",
                "--out", out,
            ]
        )
        assert rc == 0
        assert "reps=2" in capsys.readouterr().out
        data = json.loads((out / "vanilla.json").read_text())
        assert data["seeds"] == [4, 7]
        assert data["repetitions"] == 2

    def test_seeds_naming_no_seed_exit(self, toy_assets, tmp_path):
        spec_path, dataset_path = toy_assets
        with pytest.raises(SystemExit, match="names no seed"):
            run_cli(
                [
                    "run",
                    "--dataset", dataset_path,
                    "--backend", f"toy:{spec_path}",
                    "--seeds", ",",
                    "--out", tmp_path / "o",
                ]
            )

    def test_unknown_backend(self, toy_assets, tmp_path):
        _, dataset_path = toy_assets
        with pytest.raises(SystemExit, match="backend"):
            run_cli(
                [
                    "run",
                    "--dataset", dataset_path,
                    "--backend", "quantum",
                    "--out", tmp_path / "o",
                ]
            )

    def test_remote_requires_vocab(self, toy_assets, tmp_path):
        _, dataset_path = toy_assets
        with pytest.raises(SystemExit, match="remote-vocab"):
            run_cli(
                [
                    "run",
                    "--dataset", dataset_path,
                    "--backend", "remote",
                    "--out", tmp_path / "o",
                ]
            )

    def test_custom_trigger_config(self, toy_assets, tmp_path):
        spec_path, dataset_path = toy_assets
        config_path = tmp_path / "triggers.json"
        save_trigger_config(
            config_path,
            [TriggerWord("Wait", TriggerCategory.HESITATION_TRANSITION)],
            min_count=1,
        )
        out = tmp_path / "out"
        run_cli(
            [
                "run",
                "--dataset", dataset_path,
                "--backend", f"toy:{spec_path}",
                "--mode", "vanilla",
                "--temperature", "1.0",
                "--top-p", "1.0",
                "--seeds", "0",
                "--reps", "1",
                "--trigger-config", config_path,
                "--out", out,
            ]
        )
        data = json.loads((out / "vanilla.json").read_text())
        assert set(data["trigger_frequencies"]) == {"Wait"}

    def test_default_seed_list(self, toy_assets, tmp_path):
        spec_path, dataset_path = toy_assets
        out = tmp_path / "out"
        run_cli(
            [
                "run",
                "--dataset", dataset_path,
                "--backend", f"toy:{spec_path}",
                "--mode", "vanilla",
                "--temperature", "1.0",
                "--top-p", "1.0",
                "--reps", "2",
                "--out", out,
            ]
        )
        data = json.loads((out / "vanilla.json").read_text())
        assert data["seeds"] == [0, 1]


class TestLexiconBuild:
    def test_build_from_traces(self, tmp_path, capsys):
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(["Wait", "wait", "But", "x"]))
        traces_dir = tmp_path / "traces"
        traces_dir.mkdir()
        (traces_dir / "a.json").write_text(json.dumps([[0, 3, 0], [1, 3]]))
        (traces_dir / "b.jsonl").write_text(json.dumps([2, 3]) + "\n")
        out = tmp_path / "lex"
        rc = run_cli(
            [
                "lexicon", "build",
                "--traces", traces_dir,
                "--vocab", vocab_path,
                "--min-count", "2",
                "--out", out,
            ]
        )
        assert rc == 0
        trig = json.loads((out / "triggers.json").read_text())
        assert trig["token_ids"] == [0]  # only "Wait" appears twice
        with open(out / "frequencies.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["token_id", "surface_form", "base_word", "count"]
        counts = {row[1]: int(row[3]) for row in rows[1:]}
        assert counts == {"Wait": 2, "wait": 1, "But": 1}
        assert "kept=1" in capsys.readouterr().out

    def test_min_count_from_config(self, tmp_path):
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(["Wait", "But"]))
        traces_dir = tmp_path / "traces"
        traces_dir.mkdir()
        (traces_dir / "t.json").write_text(json.dumps([0, 0, 1]))
        config_path = tmp_path / "cfg.json"
        save_trigger_config(
            config_path,
            [
                TriggerWord("Wait", TriggerCategory.HESITATION_TRANSITION),
                TriggerWord("But", TriggerCategory.HESITATION_TRANSITION),
            ],
            min_count=2,
        )
        out = tmp_path / "lex"
        run_cli(
            [
                "lexicon", "build",
                "--traces", traces_dir,
                "--vocab", vocab_path,
                "--config", config_path,
                "--out", out,
            ]
        )
        trig = json.loads((out / "triggers.json").read_text())
        assert trig["token_ids"] == [0]


    @pytest.mark.parametrize(
        "name, content",
        [
            ("trace.json", json.dumps({"tokens": [0, 1], "text": "Wait"})),
            ("object.jsonl", json.dumps({"tokens": [0, 1]}) + "\n"),
            ("word.jsonl", json.dumps([0, "Wait"]) + "\n"),
            ("floats.json", json.dumps([0.9, 1.7])),
            ("digits.jsonl", json.dumps([0, "1"]) + "\n"),
            ("booleans.json", json.dumps([[0, 1], [0, True]])),
        ],
        ids=[
            "json_object",
            "jsonl_object",
            "jsonl_non_integer_id",
            "json_float_ids",
            "jsonl_digit_string_id",
            "json_boolean_id",
        ],
    )
    def test_malformed_trace_file_is_named(self, tmp_path, name, content):
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(["Wait", "x"]))
        traces_dir = tmp_path / "traces"
        traces_dir.mkdir()
        (traces_dir / name).write_text(content)
        with pytest.raises(SystemExit, match=rf"{name}: not a token-id trace file \(a \.json"):
            run_cli(["lexicon", "build", "--traces", traces_dir, "--vocab", vocab_path])


    @pytest.mark.parametrize("min_count", ["0", "2"])
    def test_missing_traces_directory_is_named(self, tmp_path, min_count):
        # a misspelled --traces used to read as zero traces: with --min-count 0
        # it wrote an all-zero frequency table, with a positive count it failed
        # on "an empty trace set"
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(["Wait", "x"]))
        out = tmp_path / "lex"
        args = ["lexicon", "build", "--traces", tmp_path / "trcaes", "--vocab", vocab_path]
        with pytest.raises(SystemExit, match=r"--traces .*trcaes: not a directory"):
            run_cli(args + ["--min-count", min_count, "--out", out])
        assert not out.exists()


class TestAnalyze:
    def test_report_table(self, toy_assets, tmp_path, capsys):
        spec_path, dataset_path = toy_assets
        out = tmp_path / "out"
        run_cli(
            [
                "run",
                "--dataset", dataset_path,
                "--backend", f"toy:{spec_path}",
                "--mode", "vanilla",
                "--temperature", "1.0",
                "--top-p", "1.0",
                "--seeds", "0",
                "--reps", "1",
                "--out", out,
            ]
        )
        capsys.readouterr()
        rc = run_cli(["analyze", "--trace", out / "vanilla.json"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "metric,value" in lines
        assert "mode,vanilla" in lines
        assert "runs,3" in lines
        assert "trigger_word,count" in lines

    def test_decode_trace_table(self, overthinking_backend, overthinking_triggers, tmp_path, capsys):
        cfg = GenerationConfig(temperature=1.0, top_p=1.0, delta=0.9, max_tokens=100, seed=0)
        trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
        path = tmp_path / "trace.json"
        path.write_text(trace.to_json())
        rc = run_cli(["analyze", "--trace", path])
        assert rc == 0
        outp = capsys.readouterr().out
        assert outp.splitlines()[:2] == ["metric,value", "mode,cgrs"]
        assert f"token_count,{trace.token_count}" in outp
        assert f"finish_reason,{trace.finish_reason}" in outp
        assert trace.finish_reason == "eos"
        assert "final_certainty,0.944538" in outp
        assert "final_p,0.445382" in outp
        decisions = trace.suppression_decisions
        assert f"decided_steps,{len(decisions)}" in outp
        assert f"masked_steps,{sum(d.r for d in decisions)}" in outp
        assert "empty_probes,0" in outp

    @pytest.mark.parametrize(
        "mode", [ModeSpec("vanilla"), ModeSpec("fixed_p", 0.5), ModeSpec("fixed_p", 1.0)]
    )
    def test_decode_trace_table_names_the_mode(
        self, overthinking_backend, overthinking_triggers, tmp_path, capsys, mode
    ):
        # the label a report of the same mode carries, read from the trace's config
        cfg = GenerationConfig(temperature=1.0, top_p=1.0, mode=mode, seed=0)
        trace = generate(overthinking_backend, TOY_PROMPT, cfg, overthinking_triggers)
        path = tmp_path / "trace.json"
        path.write_text(trace.to_json())
        assert run_cli(["analyze", "--trace", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["metric,value", f"mode,{mode.label}"]
        assert lines[2] == f"token_count,{trace.token_count}"

    def test_decode_trace_table_skips_empty_probes(self, tmp_path, capsys):
        # Q \n\n Wait \n\n done: the first probe answers A for certain (p = 1),
        # the second meets EOS at once and keeps that p
        spec = ToyModelSpec(
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
        backend = ToyBackend(spec)
        cfg = GenerationConfig(temperature=1.0, top_p=1.0, probe_prompt="P", seed=0)
        trace = generate(backend, "Q", cfg, build_trigger_set(["Wait"], backend.vocabulary))
        assert [e.probe is None for e in trace.checkpoint_events] == [False, True]
        path = tmp_path / "trace.json"
        path.write_text(trace.to_json())
        assert run_cli(["analyze", "--trace", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[: lines.index("")] == [
            "metric,value",
            "mode,cgrs",
            "token_count,4",
            "checkpoints,2",
            "finish_reason,eos",
            "final_certainty,1.000000",
            "final_p,1.000000",
            "empty_probes,1",
            "decided_steps,5",
            "masked_steps,4",
        ]


    def test_non_object_file_is_named(self, tmp_path):
        path = tmp_path / "ids.json"
        path.write_text(json.dumps([0, 1, 2]))
        with pytest.raises(SystemExit, match=r"ids\.json: expected a JSON object, a mode report"):
            run_cli(["analyze", "--trace", path])


_RUN = ["run", "--dataset", "{dataset}", "--backend", "toy:{spec}", "--out", "{tmp}/out"]
_BUILD = ["lexicon", "build", "--traces", "{tmp}/traces", "--vocab", "{tmp}/vocab.json"]


class TestBadInput:
    """Bad values and missing files exit with one line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (_RUN + ["--seeds", "0,x"],
             "cgrs run: --seeds '0,x': invalid literal for int() with base 10: 'x'"),
            (_RUN + ["--reps", "0"], "--reps must be at least 1, got 0"),
            (_RUN + ["--seeds", ","], "--seeds ',' names no seed"),
            (_RUN + ["--seeds", "0,1", "--reps", "3"], "--reps 3 does not match 2 seeds"),
            (["run", "--dataset", "{dataset}", "--backend", "bogus"] + _RUN[5:],
             "unknown backend 'bogus' (expected toy:<spec.json> or remote)"),
            (["run", "--dataset", "{dataset}", "--backend", "remote"] + _RUN[5:],
             "--remote-vocab <file> is required with --backend remote"),
            (_RUN + ["--parallelism", "0"], "parallelism must be positive, got 0"),
            (_RUN + ["--mode", "bogus"], "unknown mode: 'bogus'"),
            (_RUN + ["--mode", "fixed-p=abc"], "unknown mode: 'fixed-p=abc' (expected vanilla"),
            (_RUN + ["--mode", "fixed-p="], "unknown mode: 'fixed-p=' (expected vanilla"),
            (_RUN + ["--temperature", "-1"], "temperature must be finite and nonnegative, got -1.0"),
            (_RUN + ["--max-tokens", "-1"], "max_tokens must be nonnegative, got -1"),
            (_RUN + ["--delta", "1"], "delta must lie in [0, 1), got 1.0"),
            (["run", "--dataset", "{tmp}/absent.jsonl"] + _RUN[3:], "absent.jsonl"),
            (["run", "--dataset", "{dataset}", "--backend", "toy:{tmp}/not_json.json"] + _RUN[5:],
             "toy spec {tmp}/not_json.json: not JSON: Expecting value"),
            (["run", "--dataset", "{dataset}", "--backend", "toy:{tmp}/no_rules.json"] + _RUN[5:],
             "toy spec {tmp}/no_rules.json: missing key 'rules'"),
            (["run", "--dataset", "{dataset}", "--backend", "remote",
              "--remote-vocab", "{tmp}/vocab_ints.json"] + _RUN[5:],
             "vocabulary file {tmp}/vocab_ints.json: malformed: vocabulary token 0 is not a string"),
            (_RUN + ["--trigger-config", "{tmp}/not_json.json"],
             "trigger config {tmp}/not_json.json: not JSON"),
            (_RUN + ["--trigger-config", "{tmp}/no_category.json"],
             "trigger config {tmp}/no_category.json: missing key 'category'"),
            (_BUILD + ["--min-count", "-1"],
             "cgrs lexicon build: min_count must be nonnegative, got -1"),
            (["lexicon", "build", "--traces", "{tmp}/absent", "--vocab", "{tmp}/vocab.json"],
             "--traces {tmp}/absent: not a directory"),
            (["lexicon", "build", "--traces", "{tmp}/bad_traces", "--vocab", "{tmp}/vocab.json"],
             "{tmp}/bad_traces/floats.json: not a token-id trace file"),
            (_BUILD + ["--config", "{tmp}/config.json"],
             "trigger config {tmp}/config.json: malformed: 'no_such_category'"),
            (_BUILD + ["--config", "{tmp}/no_base_words.json"],
             "trigger config {tmp}/no_base_words.json: missing key 'base_words'"),
            (["lexicon", "build", "--traces", "{tmp}/traces", "--vocab", "{tmp}/not_json.json"],
             "cgrs lexicon build: vocabulary file {tmp}/not_json.json: not JSON"),
            (["analyze", "--trace", "{tmp}/absent.json"], "absent.json"),
            (["analyze", "--trace", "{tmp}/not_json.json"], "--trace {tmp}/not_json.json: not JSON"),
            (["analyze", "--trace", "{tmp}/config.json"],
             "{tmp}/config.json: expected a JSON object, a mode report or a decode trace"),
            (["analyze", "--trace", "{tmp}/report_string_lengths.json"],
             "cgrs analyze: mode report {tmp}/report_string_lengths.json: malformed: "),
            (["analyze", "--trace", "{tmp}/trace_no_certainty.json"],
             "decode trace {tmp}/trace_no_certainty.json: missing key 'certainty'"),
        ],
        ids=[
            "run_seeds",
            "run_reps",
            "run_seeds_empty",
            "run_reps_mismatch",
            "run_unknown_backend",
            "run_remote_without_vocab",
            "run_parallelism",
            "run_mode",
            "run_mode_fixed_p_not_a_number",
            "run_mode_fixed_p_empty",
            "run_temperature",
            "run_max_tokens",
            "run_delta",
            "run_missing_dataset",
            "run_spec_not_json",
            "run_spec_without_rules",
            "run_remote_vocab_bad_token",
            "run_trigger_config_not_json",
            "run_trigger_config_without_category",
            "lexicon_min_count",
            "lexicon_traces_not_a_directory",
            "lexicon_bad_trace_file",
            "lexicon_unknown_category",
            "lexicon_config_without_base_words",
            "lexicon_vocab_not_json",
            "analyze_missing_trace",
            "analyze_not_json",
            "analyze_trigger_config",
            "analyze_report_string_lengths",
            "analyze_trace_without_certainty",
        ],
    )
    def test_exit_names_the_bad_value(self, toy_assets, tmp_path, argv, named):
        # each case used to end in a traceback, exit 0, or a message naming no file or option
        spec_path, dataset_path = toy_assets
        (tmp_path / "vocab.json").write_text(json.dumps(["Wait", "x"]))
        (tmp_path / "traces").mkdir()
        (tmp_path / "bad_traces").mkdir()
        (tmp_path / "bad_traces" / "floats.json").write_text(json.dumps([0.5]))
        (tmp_path / "config.json").write_text(
            json.dumps({"base_words": [{"base": "Wait", "category": "no_such_category"}]})
        )
        (tmp_path / "not_json.json").write_text("not json")
        (tmp_path / "vocab_ints.json").write_text(json.dumps([1, 2]))
        spec = json.loads(spec_path.read_text())
        del spec["rules"]
        (tmp_path / "no_rules.json").write_text(json.dumps(spec))
        (tmp_path / "no_category.json").write_text(json.dumps({"base_words": [{"base": "Wait"}]}))
        (tmp_path / "no_base_words.json").write_text(json.dumps({"min_count": 1}))
        report = {"mode": "cgrs", "length_distribution": "12", "trigger_frequencies": {}}
        (tmp_path / "report_string_lengths.json").write_text(json.dumps(report))
        event = {"step": 0, "probe": {"answer_text": "42"}, "p_after": 0.5}
        trace = {"tokens": [0], "text": "a", "checkpoint_events": [event],
                 "token_count": 1, "finish_reason": "eos",
                 "config": {"mode": {"kind": "cgrs", "fixed_p": None}}}
        (tmp_path / "trace_no_certainty.json").write_text(json.dumps(trace))
        fields = {"dataset": dataset_path, "spec": spec_path, "tmp": tmp_path}
        with pytest.raises(SystemExit) as info:
            run_cli([arg.format(**fields) for arg in argv])
        code = info.value.code
        assert isinstance(code, str) and named.format(**fields) in code
        assert "\n" not in code
        # the subcommand comes first: cgrs run, cgrs lexicon build or cgrs analyze
        subcommand = " ".join(argv[:2]) if argv[0] == "lexicon" else argv[0]
        assert code.startswith(f"cgrs {subcommand}: ")


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eos_token", "<nope>", "eos token '<nope>' missing from vocabulary"),
            ("rules", "shared_suffix",
             "rules 'opening' and 'opening_again' share the suffix ['Solve 6*7. ']"),
        ],
        ids=["missing_eos", "shared_suffix"],
    )
    def test_toy_spec_contents_name_the_file_once(self, toy_assets, tmp_path, field, value, message):
        # the file reads as JSON with every key; ToyBackend rejects what it says
        spec_path, dataset_path = toy_assets
        spec = json.loads(spec_path.read_text())
        if value == "shared_suffix":
            spec["rules"].append({**spec["rules"][0], "name": "opening_again"})
        else:
            spec[field] = value
        bad = tmp_path / "bad_spec.json"
        bad.write_text(json.dumps(spec))
        argv = ["run", "--dataset", dataset_path, "--backend", f"toy:{bad}", "--out", tmp_path / "out"]
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        assert info.value.code == f"cgrs run: toy spec {bad}: malformed: {message}"


def _declared_scripts() -> dict[str, str]:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


class TestEntryPoint:
    def test_console_script_installed(self, tmp_path):
        """The declared `cgrs` script works as a command once an installer wraps it."""
        target = _declared_scripts().get("cgrs")
        assert target == "cgrs.cli:main"
        module, func = target.split(":")
        # the same wrapper pip writes into bin/ for a console_scripts entry
        script = tmp_path / "bin" / "cgrs"
        script.parent.mkdir()
        script.write_text(
            f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n",
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cgrs.__file__).resolve().parents[1]))

        def cgrs_cmd(*args):
            return subprocess.run(
                [sys.executable, str(script), *map(str, args)],
                env=env,
                cwd=tmp_path,
                capture_output=True,
                text=True,
                timeout=120,
            )

        helped = cgrs_cmd("--help")
        assert helped.returncode == 0, helped.stderr
        assert helped.stdout.startswith("usage: cgrs")
        for command in ("run", "lexicon", "analyze"):
            assert command in helped.stdout

        assert cgrs_cmd().returncode == 2

        out = tmp_path / "out"
        ran = cgrs_cmd(
            "run",
            "--dataset", DEMO_DIR / "problems.jsonl",
            "--backend", f"toy:{DEMO_DIR / 'toy_overthinking.json'}",
            "--mode", "vanilla",
            "--seeds", "0",
            "--reps", "1",
            "--out", out,
        )
        assert ran.returncode == 0, ran.stderr
        assert (out / "vanilla.json").exists()
        assert (out / "summary.csv").exists()

    @pytest.mark.skipif(shutil.which("cgrs") is None, reason="cgrs console script not installed")
    def test_console_script_on_path(self):
        helped = subprocess.run(
            [shutil.which("cgrs"), "--help"], capture_output=True, text=True, timeout=120
        )
        assert helped.returncode == 0, helped.stderr
        assert helped.stdout.startswith("usage: cgrs")

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])
