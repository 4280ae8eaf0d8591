"""Command-line interface: benchmark runs, lexicon building, trace analysis."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .backend import RemoteBackend, ToyBackend, ToyModelSpec
from .controller import GenerationConfig, ModeSpec
from .harness import count_trigger_words, load_dataset, run_benchmark, write_reports
from .lexicon import (
    DEFAULT_MIN_COUNT,
    Vocabulary,
    build_from_traces,
    build_trigger_set,
    default_trigger_words,
    file_errors,
    load_trigger_config,
    write_frequency_csv,
)


#: Repetitions of ``cgrs run`` when neither ``--seeds`` nor ``--reps`` is given.
DEFAULT_REPS = 3


def _build_backend(args: argparse.Namespace):
    spec = args.backend
    if spec.startswith("toy:"):
        path = spec[len("toy:"):]
        model = ToyModelSpec.from_json_file(path)  # names the path of a file it cannot read
        with file_errors(path, "toy spec"):  # and of one whose contents ToyBackend rejects
            return ToyBackend(model)
    if spec == "remote":
        if not args.remote_vocab:
            raise ValueError("--remote-vocab <file> is required with --backend remote")
        vocab = Vocabulary.from_json_file(args.remote_vocab)
        return RemoteBackend(vocab=vocab, eos_token=args.remote_eos)
    raise ValueError(f"unknown backend {spec!r} (expected toy:<spec.json> or remote)")


def _parse_seeds(args: argparse.Namespace) -> list[int]:
    if not args.seeds:
        reps = DEFAULT_REPS if args.reps is None else args.reps
        if reps < 1:
            raise ValueError(f"--reps must be at least 1, got {reps}")
        return list(range(reps))
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--seeds {args.seeds!r}: {exc}") from None
    if not seeds:
        raise ValueError(f"--seeds {args.seeds!r} names no seed")
    if args.reps is not None and args.reps != len(seeds):
        raise ValueError(f"--reps {args.reps} does not match {len(seeds)} seeds")
    return seeds


def cmd_run(args: argparse.Namespace) -> int:
    backend = _build_backend(args)
    problems = load_dataset(args.dataset)
    modes = [ModeSpec.parse(m) for m in (args.mode or ["vanilla", "cgrs"])]
    config = GenerationConfig(
        temperature=args.temperature,
        top_p=args.top_p,
        delta=args.delta,
        max_tokens=args.max_tokens,
    )
    trigger_words = (
        load_trigger_config(args.trigger_config)[0]
        if args.trigger_config
        else default_trigger_words()
    )
    seeds = _parse_seeds(args)
    reports = run_benchmark(
        problems,
        backend,
        modes,
        config,
        seeds,
        trigger_words=trigger_words,
        dataset_name=Path(args.dataset).stem,
        parallelism=args.parallelism,
    )
    paths = write_reports(reports, args.out)
    print(f"dataset={Path(args.dataset).stem} problems={len(problems)} reps={len(seeds)}")
    print(f"{'mode':<16}{'acc':>8}{'len':>10}{'lr':>8}")
    for label in sorted(reports):
        r = reports[label]
        lr = "-" if r.length_reduction is None else f"{r.length_reduction:.1f}"
        print(f"{label:<16}{r.accuracy:>8.1f}{r.mean_length:>10.1f}{lr:>8}")
    print("wrote: " + ", ".join(str(p) for p in paths))
    return 0


_TRACE_SHAPES = (
    "a .json file holds one list of integer token ids or a list of such lists, "
    "and each line of a .jsonl file holds one list of integer token ids"
)


def _token_ids(row) -> list[int]:
    # type(...) is int keeps out floats, strings and JSON booleans
    if not (isinstance(row, list) and all(type(t) is int for t in row)):
        raise TypeError("a trace is a list of integer token ids")
    return row


def _load_trace_files(traces_dir: Path) -> list[list[int]]:
    if not traces_dir.is_dir():
        raise ValueError(f"--traces {traces_dir}: not a directory")
    traces: list[list[int]] = []
    for path in sorted(traces_dir.glob("*.json")) + sorted(traces_dir.glob("*.jsonl")):
        try:
            if path.suffix == ".json":
                data = json.loads(path.read_text(encoding="utf-8"))
                rows = [data]
                if isinstance(data, list) and data and isinstance(data[0], list):
                    rows = data
            else:
                with open(path, encoding="utf-8") as fh:
                    rows = [json.loads(line) for line in fh if line.strip()]
            traces.extend(_token_ids(row) for row in rows)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: not a token-id trace file ({_TRACE_SHAPES})") from None
    return traces


def cmd_lexicon_build(args: argparse.Namespace) -> int:
    vocab = Vocabulary.from_json_file(args.vocab)
    traces = _load_trace_files(Path(args.traces))
    if args.config:
        words, config_min = load_trigger_config(args.config)
        min_count = args.min_count if args.min_count is not None else config_min
    else:
        words = default_trigger_words()
        min_count = args.min_count if args.min_count is not None else DEFAULT_MIN_COUNT
    trigger_set, counts = build_from_traces(traces, vocab, words, min_count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    triggers_path = out / "triggers.json"
    triggers_path.write_text(
        json.dumps(trigger_set.to_json_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    csv_path = out / "frequencies.csv"
    # report all candidates, not only the kept ones, so dropped words show why
    write_frequency_csv(csv_path, build_trigger_set(words, vocab), counts)
    print(
        f"traces={len(traces)} candidates={len(counts)} kept={len(trigger_set)} "
        f"min_count={min_count}"
    )
    print(f"wrote: {triggers_path}, {csv_path}")
    return 0


def _report_table(report: dict) -> tuple[list[str], list[tuple[str, int]]]:
    lengths = report["length_distribution"]
    metrics = [f"mode,{report['mode']}", f"runs,{len(lengths)}"]
    if lengths:
        metrics.append(f"mean_length,{sum(lengths) / len(lengths):.2f}")
        metrics.append(f"min_length,{min(lengths)}")
        metrics.append(f"max_length,{max(lengths)}")
    return metrics, sorted(report["trigger_frequencies"].items())


def _trace_table(trace: dict) -> tuple[list[str], list[tuple[str, int]]]:
    events = trace["checkpoint_events"]
    probed = [e for e in events if e["probe"] is not None]
    metrics = [
        f"mode,{ModeSpec(**trace['config']['mode']).label}",
        f"token_count,{trace['token_count']}",
        f"checkpoints,{len(events)}",
        f"finish_reason,{trace['finish_reason']}",
    ]
    if probed:
        metrics.append(f"final_certainty,{probed[-1]['probe']['certainty']['value']:.6f}")
        metrics.append(f"final_p,{probed[-1]['p_after']:.6f}")
    runs = trace["decision_runs"]
    metrics.append(f"empty_probes,{len(events) - len(probed)}")
    metrics.append(f"decided_steps,{sum(run['steps'] for run in runs)}")
    metrics.append(f"masked_steps,{sum(len(run['masked']) for run in runs)}")
    base_words = [w.base for w in default_trigger_words()]
    return metrics, sorted(count_trigger_words([trace["text"]], base_words).items())


def cmd_analyze(args: argparse.Namespace) -> int:
    path = args.trace
    with file_errors(path, "--trace"):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    # the keys that tell the two writers' records apart: RunReport and DecodeTrace
    if isinstance(data, dict) and "length_distribution" in data:
        kind, table = "mode report", _report_table
    elif isinstance(data, dict) and "tokens" in data and "checkpoint_events" in data:
        kind, table = "decode trace", _trace_table
    else:
        raise ValueError(f"{path}: expected a JSON object, a mode report or a decode trace")
    with file_errors(path, kind):
        metrics, counts = table(data)
    print("metric,value")
    for line in metrics:
        print(line)
    print()
    print("trigger_word,count")
    for word, count in counts:
        print(f"{word},{count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgrs",
        description="Certainty-guided reflection suppression: benchmark and analyze runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a dataset under one or more decoding modes")
    run.add_argument("--dataset", required=True, help="JSONL problems file")
    run.add_argument("--backend", required=True, help="toy:<spec.json> or remote")
    run.add_argument(
        "--mode",
        action="append",
        help="vanilla | fixed-p=<p> | cgrs (repeatable; default vanilla + cgrs)",
    )
    run.add_argument("--delta", type=float, default=0.9)
    run.add_argument("--temperature", type=float, default=0.6)
    run.add_argument("--top-p", type=float, default=0.95, dest="top_p")
    run.add_argument("--seeds", help="comma-separated repetition seeds")
    run.add_argument(
        "--reps",
        type=int,
        help=f"repetitions (default: one per --seeds entry, else {DEFAULT_REPS})",
    )
    run.add_argument("--max-tokens", type=int, default=1024, dest="max_tokens")
    run.add_argument("--trigger-config", help="trigger config JSON")
    run.add_argument("--parallelism", type=int, default=1)
    run.add_argument("--remote-vocab", help="vocabulary file of the served tokenizer")
    run.add_argument("--remote-eos", help="eos token surface in the remote vocabulary")
    run.add_argument("--out", required=True, help="report output directory")
    run.set_defaults(func=cmd_run, prog=run.prog)

    lexicon = sub.add_parser("lexicon", help="trigger lexicon tools")
    lex_sub = lexicon.add_subparsers(dest="lexicon_command", required=True)
    build = lex_sub.add_parser("build", help="build a trigger set from traces")
    build.add_argument("--traces", required=True, help="directory of token-id trace files")
    build.add_argument("--vocab", required=True, help="vocabulary JSON file")
    build.add_argument("--min-count", type=int, default=None, dest="min_count")
    build.add_argument("--config", help="trigger config JSON (defaults to built-ins)")
    build.add_argument("--out", default=".", help="output directory")
    build.set_defaults(func=cmd_lexicon_build, prog=build.prog)

    analyze = sub.add_parser("analyze", help="summarize a trace or report JSON")
    analyze.add_argument("--trace", required=True, help="DecodeTrace or report JSON file")
    analyze.set_defaults(func=cmd_analyze, prog=analyze.prog)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input: a value, a file or its contents
        raise SystemExit(f"{args.prog}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
