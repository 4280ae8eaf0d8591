"""Benchmark harness: datasets, scoring, and mode-by-mode comparison runs.

A run executes each problem of a JSONL dataset under one or more decoding
modes (vanilla, pinned suppression probability, certainty-guided) across
matched seeds, then reports accuracy, mean generated length, and the length
reduction of each mode against the vanilla baseline from the same seeds.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .backend import BackendError, ModelBackend
from .controller import DecodeTrace, GenerationConfig, ModeSpec, generate, probe_prompt_ids
from .lexicon import TriggerTokenSet, build_trigger_set, default_trigger_words
from .rng import derive_seed


class DatasetError(ValueError):
    """A dataset file failed validation."""


class ExtractionError(ValueError):
    """No well-formed boxed answer could be extracted."""


@dataclass(frozen=True)
class Problem:
    id: str
    prompt: str
    gold_answer: str
    answer_style: str | None = None  # None -> boxed exact match; "choice" -> letter

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("problem id must be nonempty")
        if not isinstance(self.prompt, str):
            raise ValueError(f"prompt must be a string, got {self.prompt!r}")
        if self.answer_style not in (None, "choice"):
            raise ValueError(f"unknown answer_style: {self.answer_style!r}")


@dataclass
class RunReport:
    """Aggregated metrics of one mode over one dataset."""

    mode: str
    dataset: str
    n_problems: int
    repetitions: int
    seeds: tuple[int, ...]
    accuracy: float  # percent
    mean_length: float  # tokens
    length_reduction: float | None  # percent vs vanilla at the same seeds
    length_distribution: tuple[int, ...]  # one entry per (repetition, problem)
    trigger_frequencies: dict[str, int]  # base word -> occurrences in outputs
    unparsable: int
    backend_failures: int


def load_dataset(path: str | Path) -> list[Problem]:
    """Read a JSONL dataset of {id, prompt, gold_answer[, answer_style]}.

    Problems keep file order.  An ``id`` or ``gold_answer`` that is a number
    is read as its text; ``null``, a boolean, a list or an object is an
    invalid record, and so is a number ``id`` that is not an integer and a
    ``gold_answer`` that is not finite (``NaN``, ``Infinity`` or a literal
    such as ``1e400`` that overflows).  Raises :class:`DatasetError` on a malformed line or an
    invalid record (with its line number) or a duplicate id (naming the id);
    an empty file yields an empty list with a warning.
    """
    path = Path(path)
    problems: list[Problem] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
            if not isinstance(record, dict):
                raise DatasetError(f"{path}:{lineno}: expected a JSON object, got {line.strip()!r}")
            try:
                for name in ("id", "gold_answer"):  # str() would turn null into "None"
                    value = record[name]
                    if isinstance(value, (bool, type(None), list, dict)):
                        raise ValueError(f"{name} must be a string or number, got {value!r}")
                    if isinstance(value, float) and (name == "id" or not math.isfinite(value)):
                        kind = "an integer" if name == "id" else "a finite number"
                        raise ValueError(f"{name} must be a string or {kind}, got {value!r}")
                problem = Problem(
                    id=str(record["id"]),
                    prompt=record["prompt"],
                    gold_answer=str(record["gold_answer"]),
                    answer_style=record.get("answer_style"),
                )
            except KeyError as exc:
                raise DatasetError(f"{path}:{lineno}: missing field {exc}") from exc
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from exc
            if problem.id in seen:
                raise DatasetError(f"{path}:{lineno}: duplicate problem id {problem.id!r}")
            seen.add(problem.id)
            problems.append(problem)
    if not problems:
        warnings.warn(f"dataset {path} is empty", stacklevel=2)
    return problems


def extract_boxed_answer(text: str) -> str:
    """Brace-balanced content of the last ``\\boxed{...}`` in ``text``.

    Raises:
        ExtractionError: no boxed occurrence, or unbalanced braces.
    """
    marker = "\\boxed"
    idx = text.rfind(marker)
    if idx == -1:
        raise ExtractionError("no \\boxed occurrence in text")
    open_idx = idx + len(marker)
    if open_idx >= len(text) or text[open_idx] != "{":
        raise ExtractionError("last \\boxed occurrence carries no braced group")
    depth = 0
    for i in range(open_idx, len(text)):
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1 : i]
    raise ExtractionError("unbalanced braces after last \\boxed")


def _strip_outer_parens(s: str) -> str:
    while len(s) >= 2 and s[0] == "(" and s[-1] == ")":
        depth = 0
        wraps = True
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if depth == 0 and i < len(s) - 1:
                wraps = False  # the first paren closes early: not an outer wrap
                break
        if not wraps:
            break
        s = s[1:-1].strip()
    return s


def canonicalize_answer(answer: str) -> str:
    """Light canonical form: trim whitespace, outer parens, a leading '+'."""
    s = _strip_outer_parens(answer.strip())
    if s.startswith("+"):
        s = s[1:]
    return s


def score(predicted: str, gold: str, answer_style: str | None = None) -> bool:
    """Exact match after canonicalization; choice style compares letters."""
    p = canonicalize_answer(predicted)
    g = canonicalize_answer(gold)
    if answer_style == "choice":
        return p.upper() == g.upper()
    return p == g


def length_reduction(vanilla_mean: float, mode_mean: float) -> float:
    """Percent reduction of a mode's mean length against the vanilla baseline."""
    if vanilla_mean <= 0:
        raise ValueError(f"vanilla mean length must be positive, got {vanilla_mean}")
    return (vanilla_mean - mode_mean) / vanilla_mean * 100.0


def count_trigger_words(texts: Sequence[str], base_words: Sequence[str]) -> dict[str, int]:
    """Word-boundary occurrence counts of each base word's case variants."""
    counts: dict[str, int] = {}
    for base in base_words:
        variants = sorted({base, base.lower(), base.upper()})
        pattern = re.compile(
            r"(?<!\w)(?:" + "|".join(re.escape(v) for v in variants) + r")(?!\w)"
        )
        counts[base] = sum(len(pattern.findall(t)) for t in texts)
    return counts


@dataclass
class _ProblemOutcome:
    token_count: int = 0
    text: str = ""
    correct: bool = False
    unparsable: bool = False
    failed: bool = False


def _run_one(
    backend: ModelBackend,
    problem: Problem,
    config: GenerationConfig,
    triggers: TriggerTokenSet,
) -> _ProblemOutcome:
    try:
        trace: DecodeTrace = generate(backend, problem.prompt, config, triggers)
    except BackendError:
        return _ProblemOutcome(failed=True)
    outcome = _ProblemOutcome(trace.token_count, trace.text)
    try:
        predicted = extract_boxed_answer(trace.text)
    except ExtractionError:
        outcome.unparsable = True
    else:
        outcome.correct = score(predicted, problem.gold_answer, problem.answer_style)
    return outcome


def run_benchmark(
    problems: Sequence[Problem],
    backend: ModelBackend,
    modes: Sequence[ModeSpec],
    config: GenerationConfig,
    seeds: Sequence[int],
    trigger_words: Sequence[str] | None = None,
    dataset_name: str = "dataset",
    parallelism: int = 1,
) -> dict[str, RunReport]:
    """Run every mode over every (seed, problem) pair and aggregate reports.

    Per-problem seeds are derived from the repetition seed and the problem
    index, and are shared across modes so comparisons are matched.  Length
    reduction is computed against the vanilla mode of the same invocation;
    modes of a run without vanilla report ``length_reduction = None``.

    Raises:
        DatasetError: a prompt the backend's vocabulary cannot encode, naming
            the problem id; it is raised before any generation starts.
        ValueError: a mode probes and the vocabulary cannot encode
            ``config.probe_prompt`` (named); also raised before any generation.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    words = list(trigger_words) if trigger_words is not None else default_trigger_words()
    triggers = build_trigger_set(words, backend.vocabulary)
    labels = [m.label for m in modes]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate mode labels: {labels}")
    for problem in problems:
        try:
            backend.vocabulary.encode(problem.prompt)
        except ValueError as exc:
            raise DatasetError(f"problem {problem.id!r}: prompt is not encodable: {exc}") from exc
    if any(mode.probes for mode in modes):
        probe_prompt_ids(backend.vocabulary, config)

    # a task's modes run back to back, so the later ones find the sampling
    # blocks of the first in the Philox block cache at any run size
    tasks = [
        (mode.apply(config, derive_seed(seed, pi)), problem)
        for seed in seeds
        for pi, problem in enumerate(problems)
        for mode in modes
    ]
    if parallelism == 1:
        results = [_run_one(backend, prob, cfg, triggers) for cfg, prob in tasks]
    else:
        # imported here, as only a parallel run needs it: at module level it
        # adds about 5 ms to every ``import cgrs``
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            futures = [pool.submit(_run_one, backend, prob, cfg, triggers) for cfg, prob in tasks]
            results = [f.result() for f in futures]  # original task order
    outcomes = {mode.label: results[m :: len(modes)] for m, mode in enumerate(modes)}

    vanilla_mean: float | None = None
    if "vanilla" in outcomes and outcomes["vanilla"]:
        vanilla_mean = _mean(o.token_count for o in outcomes["vanilla"])

    reports: dict[str, RunReport] = {}
    for mode in modes:
        results = outcomes[mode.label]
        mean_length = _mean(o.token_count for o in results)
        if mode.kind == "vanilla":
            reduction: float | None = 0.0
        elif vanilla_mean:
            reduction = length_reduction(vanilla_mean, mean_length)
        else:
            reduction = None
        reports[mode.label] = RunReport(
            mode=mode.label,
            dataset=dataset_name,
            n_problems=len(problems),
            repetitions=len(seeds),
            seeds=tuple(seeds),
            accuracy=100.0 * _mean(1.0 if o.correct else 0.0 for o in results),
            mean_length=mean_length,
            length_reduction=reduction,
            length_distribution=tuple(o.token_count for o in results),
            trigger_frequencies=count_trigger_words([o.text for o in results], words),
            unparsable=sum(1 for o in results if o.unparsable),
            backend_failures=sum(1 for o in results if o.failed),
        )
    return reports


def _mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return float(sum(values)) / len(values)


def write_reports(reports: Mapping[str, RunReport], out_dir: str | Path) -> list[Path]:
    """Write one JSON per mode plus a combined CSV summary; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for label in sorted(reports):
        path = out / f"{label}.json"
        path.write_text(
            json.dumps(vars(reports[label]), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    csv_path = out / "summary.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "mode", "acc", "len", "lr"])
        for label in sorted(reports):
            r = reports[label]
            writer.writerow(
                [
                    r.dataset,
                    r.mode,
                    f"{r.accuracy:.1f}",
                    f"{r.mean_length:.1f}",
                    "" if r.length_reduction is None else f"{r.length_reduction:.1f}",
                ]
            )
    paths.append(csv_path)
    return paths
