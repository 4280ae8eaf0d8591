"""Measurement, correctness gate and metrics of the cgrs benchmark.

The engine is driven only through its public API: ``GenerationSession``
(``next_token`` and ``run``), ``DecodeTrace.to_json`` and the harness's
``ModeSpec.apply``, ``derive_seed``, ``extract_boxed_answer``, ``score`` and
``length_reduction``.  Every metric is measured from outside the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cgrs import (
    BackendError,
    ExtractionError,
    GenerationSession,
    ModeSpec,
    Problem,
    extract_boxed_answer,
    length_reduction,
    score,
)
from cgrs.rng import derive_seed

from .speed import BUILD, EOS_STEP, KERNELS, STEP, TAIL, Timeline, kernel_ns
from .tracing import SpanTable, Tracer, installed
from .workloads import ROOT, CountingBackend, Workload, load_settings, setup

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
#: Calibration kernel of set-up: imports, Vocabulary and trigger-set building are Python loops.
SETUP_KERNEL = "interpreter"
#: Standard errors allowed between the toy means and the Markov oracle.
ORACLE_SE = 4.0
BACKEND_SPANS = (
    (CountingBackend, "next_distribution", "backend.next_distribution"),
    (CountingBackend, "sample_token", "backend.sample_token"),
)


@dataclass
class TaskRecord:
    """One (mode, seed, problem) generation, measured end to end."""

    cycle: int
    mode: str
    token_count: int
    truncated: bool
    correct: bool
    failed: str | None
    probe_steps: int  # model calls beyond one per main step, from the proxy
    json_bytes: int
    masked_steps: tuple[int, ...]
    digest: str
    pieces: tuple[int, int]  # this generation's slice of the run's Timeline
    # timings in reference-speed ns, filled in by Runner.run_cycles
    decode_ns: float = 0.0  # sum of next_token() durations, the EOS step included
    raw_decode_ns: float = 0.0  # the same, not scaled
    ttft_ns: float | None = None
    problem_ns: float = 0.0


def _no_span(name: str):
    return nullcontext()


def _contains(tokens: list[int], needle: list[int]) -> bool:
    n = len(needle)
    return any(tokens[i:i + n] == needle for i, t in enumerate(tokens) if t == needle[0])


class Runner:
    """Runs cycles of a workload and keeps the gate's findings.

    With a ``calibration`` (see ``speed.py``), every timing is scaled to the
    reference host speed; the calibration kernels run between timed calls.
    """

    def __init__(self, wl: Workload, calibration: dict[str, str] | None = None):
        self.wl = wl
        self.calibration = calibration
        self.peak_rss_mb = 0.0  # after the first min_cycles cycles of the last run_cycles
        self.failures: list[str] = []
        self.probe_ids = wl.backend.vocabulary.encode(wl.config.probe_prompt)

    def run_task(
        self, mode: ModeSpec, problem: Problem, seed: int, cycle: int, timeline: Timeline, tracer=None
    ) -> TaskRecord:
        wl = self.wl
        cfg = mode.apply(wl.config, seed)
        span = tracer.span if tracer else _no_span
        calls0 = wl.backend.calls
        first = len(timeline.ns)
        with span("bench.problem"):
            timeline.tick()
            t = time.perf_counter_ns()
            try:
                session = GenerationSession(wl.backend, problem.prompt, cfg, wl.triggers)
                timeline.add(BUILD, time.perf_counter_ns() - t, "build")
                while len(session.tokens) < cfg.max_tokens:
                    timeline.tick()
                    calls = wl.backend.calls
                    t = time.perf_counter_ns()
                    token = session.next_token()
                    dt = time.perf_counter_ns() - t
                    key = "probe_step" if wl.backend.calls - calls > 1 else "step"
                    timeline.add(EOS_STEP if token is None else STEP, dt, key)
                    if token is None:
                        break
                timeline.tick()
                t = time.perf_counter_ns()
                trace = session.run()
            except BackendError as exc:
                reason = f"{mode.label} {problem.id} seed={seed}: {type(exc).__name__}: {exc}"
                print(f"perfbench: generation failed: {reason}", file=sys.stderr)
                return TaskRecord(cycle, mode.label, 0, True, False, reason, 0, 0, (), "",
                                  (first, len(timeline.ns)))
            with span("harness.scoring"):
                try:
                    answer = extract_boxed_answer(trace.text)
                    correct = score(answer, problem.gold_answer, problem.answer_style)
                except ExtractionError:
                    correct = False
            text = trace.to_json()
            timeline.add(TAIL, time.perf_counter_ns() - t, "tail")

        main_calls = trace.token_count + (0 if trace.truncated else 1)
        if _contains(trace.tokens, self.probe_ids):
            self.failures.append(f"probe prompt ids leaked into the {mode.label} stream of {problem.id}")
        if not trace.truncated and not correct:
            self.failures.append(f"{mode.label} {problem.id} seed={seed} ended at EOS with a wrong answer")
        return TaskRecord(
            cycle=cycle,
            mode=mode.label,
            token_count=trace.token_count,
            truncated=trace.truncated,
            correct=correct,
            failed=None,
            probe_steps=wl.backend.calls - calls0 - main_calls,
            json_bytes=len(text),
            masked_steps=tuple(d.step for d in trace.suppression_decisions if d.r),
            digest=hashlib.blake2b(array("q", trace.tokens).tobytes(), digest_size=16).hexdigest(),
            pieces=(first, len(timeline.ns)),
        )

    def run_cycles(
        self, seed: int, seconds: float, min_cycles: int, max_cycles: int | None = None,
        tracer=None, itls: array | None = None,
    ) -> list[TaskRecord]:
        """Closed loop over whole cycles until ``seconds`` and ``min_cycles`` are both met.

        The durations of the ``next_token()`` calls that returned a token are
        appended to ``itls``.
        """
        itls = array("q") if itls is None else itls
        timeline = Timeline(self.calibration)
        records: list[TaskRecord] = []
        start = time.perf_counter()
        cycle = 0
        while cycle < min_cycles or (
            time.perf_counter() - start < seconds and (max_cycles is None or cycle < max_cycles)
        ):
            rep_seed = derive_seed(seed, cycle)
            for index, problem in enumerate(self.wl.problems):
                problem_seed = derive_seed(rep_seed, index)
                for mode in self.wl.modes:
                    if tracer:
                        tracer.new_generation()
                    records.append(self.run_task(mode, problem, problem_seed, cycle, timeline, tracer))
            cycle += 1
            if cycle == min_cycles:
                # a fixed amount of work, so the benchmark's own records do not
                # make the figure depend on how many cycles the host allowed
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _fill_timings(records, timeline, itls)
        return records


def _fill_timings(records: list[TaskRecord], timeline: Timeline, itls: array) -> None:
    """Sum each generation's timed pieces into its record, in reference-speed ns."""
    scaled = timeline.scaled()
    raw = np.frombuffer(timeline.ns, dtype=np.int64)
    kind = np.frombuffer(timeline.kind, dtype=np.int8)
    starts = np.array([r.pieces[0] for r in records], dtype=np.int64)
    ends = np.array([r.pieces[1] for r in records], dtype=np.int64)
    owner = np.repeat(np.arange(len(records)), ends - starts)
    step = (kind == STEP) | (kind == EOS_STEP)
    n = len(records)
    decode = np.bincount(owner, weights=np.where(step, scaled, 0.0), minlength=n)
    raw_decode = np.bincount(owner, weights=np.where(step, raw, 0), minlength=n)
    problem = np.bincount(owner, weights=scaled, minlength=n)
    for i, r in enumerate(records):
        r.decode_ns, r.raw_decode_ns, r.problem_ns = decode[i], raw_decode[i], problem[i]
        first = r.pieces[0]
        if r.pieces[1] - first >= 2 and kind[first] == BUILD and kind[first + 1] == STEP:
            r.ttft_ns = scaled[first] + scaled[first + 1]
    itls.extend(np.rint(scaled[kind == STEP]).astype(np.int64).tolist())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _by_mode(records: list[TaskRecord], label: str) -> list[TaskRecord]:
    return [r for r in records if r.mode == label]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quality(records: list[TaskRecord]) -> dict[str, float]:
    """Accuracy and length figures the way run_benchmark aggregates them."""
    out: dict[str, float] = {}
    for label in sorted({r.mode for r in records}):
        rs = _by_mode(records, label)
        out[f"{label}.mean_length"] = _mean(r.token_count for r in rs)
        out[f"{label}.accuracy"] = 100.0 * _mean(1.0 if r.correct else 0.0 for r in rs)
        out[f"{label}.probe_steps"] = _mean(r.probe_steps for r in rs)
        out[f"{label}.n"] = len(rs)
    return out


def end_to_end(
    records: list[TaskRecord], quality_records: list[TaskRecord], itls: array, setup_s: list[float],
    peak_rss_mb: float | None = None,
) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) of every end-to-end metric."""
    m: dict[str, tuple[float, str, int]] = {}
    m["setup_s"] = (float(np.median(setup_s)), "s", len(setup_s))
    ok = [r for r in records if r.failed is None]
    for label in sorted({r.mode for r in records}):
        rs = _by_mode(ok, label)
        tokens = sum(r.token_count for r in rs)
        m[f"ms_per_token.{label}"] = (sum(r.decode_ns for r in rs) / 1e6 / max(tokens, 1), "ms", tokens)
        m[f"raw.ms_per_token.{label}"] = (
            sum(r.raw_decode_ns for r in rs) / 1e6 / max(tokens, 1), "ms", tokens
        )
    itl = np.frombuffer(itls, dtype=np.int64) / 1e6
    ttft = np.array([r.ttft_ns for r in ok if r.ttft_ns is not None]) / 1e6
    problem = np.array([r.problem_ns for r in ok]) / 1e6
    for name, values, q in (
        ("itl_ms_p50", itl, 50), ("itl_ms_p99", itl, 99),
        ("ttft_ms_p50", ttft, 50), ("ttft_ms_p90", ttft, 90),
        ("problem_ms_p50", problem, 50), ("problem_ms_p90", problem, 90),
    ):
        m[name] = (float(np.percentile(values, q)) if values.size else math.nan, "ms", int(values.size))
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    m["error_rate"] = (sum(r.failed is not None for r in records) / len(records), "ratio", len(records))
    q = quality(quality_records)
    n = int(q.get("cgrs.n", 0))
    vanilla = q["vanilla.mean_length"]
    m["cgrs_accuracy_pct"] = (q["cgrs.accuracy"], "%", n)
    m["cgrs_length_reduction_pct"] = (length_reduction(vanilla, q["cgrs.mean_length"]), "%", n)
    m["cgrs_net_tokens_pct_of_vanilla"] = (
        100.0 * (q["cgrs.mean_length"] + q["cgrs.probe_steps"]) / vanilla, "%", n
    )
    return m


def per_layer(
    table: SpanTable, traced: list[TaskRecord], plain: list[TaskRecord],
    timings_ms: dict[str, float], server: dict | None,
) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) of every per-layer metric of the traced run."""
    m: dict[str, tuple[float, str, int]] = {}
    tokens = sum(r.token_count for r in traced)
    cgrs_tokens = sum(r.token_count for r in _by_mode(traced, "cgrs"))
    next_token_ns = table.total_ns("controller.next_token")
    main_steps = sum(r.token_count + (0 if r.truncated else 1) for r in traced)

    def us_per_call(metric: str, span: str) -> None:
        m[metric] = (table.mean_us(span), "us", table.calls(span))

    sampling_ns = table.total_ns("sampling.sample_from_logits") + table.total_ns(
        "sampling.distribution_to_logits"
    )
    if server is not None:  # the loopback server samples with the stub's calls
        for fn in ("distribution_to_logits", "softmax", "nucleus_filter"):
            calls, ns = server["sampling"][fn]
            m[f"sampling.{fn}.us_per_call"] = (ns / 1e3 / max(calls, 1), "us", calls)
            sampling_ns += ns
    else:
        for fn in ("distribution_to_logits", "softmax", "nucleus_filter"):
            us_per_call(f"sampling.{fn}.us_per_call", f"sampling.{fn}")
    us_per_call("sampling.sample_from_logits.us_per_call", "sampling.sample_from_logits")
    m["sampling.share_of_step"] = (sampling_ns / max(next_token_ns, 1.0), "ratio", main_steps)

    masked = sum(len(r.masked_steps) for r in traced)
    us_per_call("suppression.mask_triggers.us_per_call", "suppression.mask_triggers")
    m["suppression.masked_steps_per_token"] = (masked / max(tokens, 1), "ratio", tokens)
    us_per_call("suppression.should_suppress.us_per_call", "suppression.should_suppress")
    us_per_call("rng.decision_uniform.us_per_call", "rng.decision_uniform")
    us_per_call("rng.sampling_uniform.us_per_call", "rng.sampling_uniform")
    if server is not None:
        applied, effective = server["bias_requests"], server["bias_requests_with_trigger_mass"]
    else:
        applied, effective = _effective_masks(table, traced)
    m["suppression.effective_mask_ratio"] = (effective / max(applied, 1), "ratio", applied)

    us_per_call("certainty.token_distribution_validate.us_per_call", "certainty.token_distribution_validate")
    us_per_call("certainty.certainty_score.us_per_call", "certainty.certainty_score")

    ids = table.ids("controller.next_token")
    m["controller.next_token.self_us"] = (
        float(table.self_time[ids].sum()) / 1e3 / max(main_steps, 1), "us", main_steps
    )
    us_per_call("controller.checkpoint_feed.us_per_call", "controller.checkpoint_feed")
    probe_ms = table.durations_ms("controller.run_probe")
    for q in (50, 99):
        value = float(np.percentile(probe_ms, q)) if probe_ms.size else 0.0
        m[f"controller.run_probe.ms_p{q}"] = (value, "ms", int(probe_ms.size))
    probes = table.calls("controller.run_probe")
    empty = int(table.raised[table.ids("controller.run_probe")].sum())
    m["controller.probes_per_token"] = (probes / max(cgrs_tokens, 1), "ratio", cgrs_tokens)
    m["controller.probe_empty_ratio"] = (empty / max(probes, 1), "ratio", probes)
    probe_steps = sum(r.probe_steps for r in _by_mode(traced, "cgrs"))
    m["controller.probe_steps_per_token"] = (probe_steps / max(cgrs_tokens, 1), "ratio", cgrs_tokens)
    m["controller.trace_to_json.ms_per_problem"] = (
        table.mean_us("controller.trace_to_json") / 1e3, "ms", table.calls("controller.trace_to_json")
    )
    m["controller.trace_bytes_per_token"] = (sum(r.json_bytes for r in traced) / max(tokens, 1), "B", tokens)

    for metric, parent in (("prompt", "bench.problem"), ("probe_prompt", "controller.run_probe")):
        ms = table.durations_ms("lexicon.encode", parent=parent)
        m[f"lexicon.encode.{metric}_ms_p50"] = (float(np.median(ms)) if ms.size else 0.0, "ms", int(ms.size))
    m["lexicon.vocabulary_init_ms"] = (timings_ms["vocabulary_init"], "ms", 1)
    m["lexicon.build_trigger_set_ms"] = (timings_ms["build_trigger_set"], "ms", 1)

    us_per_call("backend.next_distribution.us_per_call", "backend.next_distribution")
    calls = table.calls("backend.next_distribution") + table.calls("backend.sample_token")
    m["backend.model_calls_per_token"] = (calls / max(tokens, 1), "ratio", tokens)
    sample_ms = table.durations_ms("backend.sample_token")
    m["backend.sample_token.ms_p50"] = (float(np.median(sample_ms)) if sample_ms.size else 0.0, "ms", int(sample_ms.size))
    s = server or {"requests": 0, "prompt_bytes": 0, "busy_ns": 0}
    m["backend.http_requests_per_token"] = (s["requests"] / max(tokens, 1), "ratio", s["requests"])
    m["backend.prompt_bytes_per_token"] = (s["prompt_bytes"] / max(tokens, 1), "B", s["requests"])
    m["backend.server_busy_share"] = (s["busy_ns"] / max(next_token_ns, 1.0), "ratio", s["requests"])

    m["harness.scoring.us_per_problem"] = (table.mean_us("harness.scoring"), "us", table.calls("harness.scoring"))
    plain_ms = sum(r.decode_ns for r in plain) / max(sum(r.token_count for r in plain), 1)
    traced_ms = sum(r.decode_ns for r in traced) / max(tokens, 1)
    m["trace.overhead_pct"] = (100.0 * (traced_ms - plain_ms) / plain_ms, "%", tokens)
    return m


def _effective_masks(table: SpanTable, traced: list[TaskRecord]) -> tuple[int, int]:
    """Masked main steps, and those whose unmasked trigger mass was nonzero."""
    main = table.children_of("backend.next_distribution", "controller.next_token")
    generation = table.generation[main]
    bounds = np.searchsorted(generation, np.arange(len(traced) + 1))
    applied = effective = 0
    for g, record in enumerate(traced):
        steps = main[bounds[g]:bounds[g + 1]]
        for step in record.masked_steps:
            if step < steps.size:
                applied += 1
                effective += table.notes.get(int(steps[step]), 0.0) > 0.0
    return applied, effective


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def oracle_failures(wl: Workload, quality_records: list[TaskRecord]) -> list[str]:
    """Toy means against the independent Markov-chain oracle of the test suite."""
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    from markov_oracle import expected_length

    toy = wl.backend.inner
    prompt_ids = toy.vocabulary.encode(wl.problems[0].prompt)
    trigger_ids = sorted(wl.triggers.token_ids)
    failures = []
    for label, mask_prob in (("vanilla", 0.0), ("fixed_p_1", 1.0)):
        lengths = np.array([r.token_count for r in _by_mode(quality_records, label)], dtype=float)
        expected = expected_length(toy, prompt_ids, mask_prob, trigger_ids)
        se = lengths.std(ddof=1) / math.sqrt(lengths.size)
        if abs(lengths.mean() - expected) > ORACLE_SE * se + 1e-9:
            failures.append(
                f"toy {label} mean length {lengths.mean():.4f} is more than {ORACLE_SE} "
                f"standard errors ({se:.4f}) from the oracle's {expected:.4f}"
            )
    return failures


def server_failures(stats: dict, client_calls: int, probe_steps: int) -> list[str]:
    """Server-side counts against the client's: every reply 200, no call lost or added."""
    failures = []
    if stats["non_200"]:
        failures.append(f"loopback server replied non-200 {stats['non_200']} times: {stats['errors']}")
    if stats["requests"] != client_calls:
        failures.append(
            f"loopback server saw {stats['requests']} requests, the client made {client_calls} calls"
        )
    if stats["logprob_requests"] != probe_steps:
        failures.append(
            f"loopback server saw {stats['logprob_requests']} probe requests, "
            f"the client counted {probe_steps} probe steps"
        )
    return failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the point the first session would be built.

    Each sample is scaled to the reference host speed by the mean of two
    calibration samples the set-up process takes at its start and its end; the
    time they take is not counted.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
        word, *numbers = line.split() or [""]
        if proc.returncode != 0 or word != "ready" or len(numbers) != 3:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {line!r}")
        before, after, kernel_time = map(int, numbers)
        samples.append((elapsed - kernel_time / 1e9) * KERNELS[SETUP_KERNEL][1] / ((before + after) / 2))
    return samples


def _report(metrics: dict[str, tuple[float, str, int]]) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit:<6} n={n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cgrs benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still stops its server process on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    settings = load_settings()["workloads"]
    if args.workload not in settings:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(settings)}")
    s = settings[args.workload]
    if args.setup_only:
        t0 = time.perf_counter_ns()
        before = kernel_ns(SETUP_KERNEL, 3)  # the first run is cold
        kernel_time = time.perf_counter_ns() - t0
        wl = setup(args.workload, args.seed, s)
        t0 = time.perf_counter_ns()
        after = kernel_ns(SETUP_KERNEL, 3)
        kernel_time += time.perf_counter_ns() - t0
        print(f"ready {before} {after} {kernel_time}", flush=True)
        wl.close()
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup_s = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = setup(args.workload, args.seed, s)
    try:
        runner = Runner(wl, None if args.trace else s["calibration"])
        if args.trace:
            metrics, records = traced_run(
                runner, args.seed, args.seconds / 2, s["trace_max_cycles"],
                OUT_DIR / f"spans-{args.workload}-{args.seed}.npz",
            )
            wanted = declared["per_layer"]
        else:
            itls = array("q")
            records = runner.run_cycles(args.seed, args.seconds, s["quality_cycles"], itls=itls)
            quality_records = [r for r in records if r.cycle < s["quality_cycles"]]
            metrics = end_to_end(records, quality_records, itls, setup_s, runner.peak_rss_mb)
            if s["backend"] == "toy":
                runner.failures += oracle_failures(wl, quality_records)
            wanted = declared["end_to_end"]
        if wl.server is not None:
            probe_steps = sum(r.probe_steps for r in records)
            runner.failures += server_failures(wl.server.stats(), wl.backend.calls, probe_steps)
    finally:
        wl.close()

    cycles = max(r.cycle for r in records) + 1
    print(f"workload {args.workload} seed {args.seed}: {cycles} cycles, {len(records)} generations")
    _report(metrics)
    for failure in runner.failures:
        print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": len(records),
        "failed": sum(r.failed is not None for r in records),
        "metrics": {d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]} for d in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def traced_run(runner: Runner, seed: int, seconds: float, max_cycles: int, spans_path: Path):
    """Untraced pass, then the same generations traced; per-layer metrics and all records."""
    wl = runner.wl
    # one untimed generation first, so the untraced pass does not pay the cold start alone
    warm = runner.run_task(wl.modes[-1], wl.problems[0], derive_seed(seed, 0), -1, Timeline(None))
    plain = runner.run_cycles(seed, seconds, 1, max_cycles)
    cycles = max(r.cycle for r in plain) + 1
    tracer = Tracer()
    before = wl.server.stats() if wl.server else None
    wl.backend.tracer = tracer
    if wl.server:
        wl.server.set_trace(True)
    try:
        with installed(tracer, BACKEND_SPANS):
            traced = runner.run_cycles(seed, 0.0, cycles, cycles, tracer=tracer)
    finally:
        wl.backend.tracer = None
        if wl.server:
            wl.server.set_trace(False)
    server = None
    if wl.server:
        after = wl.server.stats()
        server = {k: after[k] - before[k] for k in
                  ("requests", "prompt_bytes", "busy_ns", "bias_requests", "bias_requests_with_trigger_mass")}
        server["sampling"] = {
            fn: [a - b for a, b in zip(after["sampling"][fn], before["sampling"][fn])]
            for fn in after["sampling"]
        }
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            runner.failures.append(f"traced {b.mode} stream differs from the untraced one (cycle {b.cycle})")
    tracer.save(spans_path)
    metrics = per_layer(SpanTable(tracer), traced, plain, wl.timings_ms, server)
    return metrics, [warm] + plain + traced
