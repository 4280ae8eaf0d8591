"""Tests of the benchmark itself: synthetic model, tracing, task set, server."""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cgrs import GenerationConfig, ModeSpec, Vocabulary, generate, run_benchmark, run_probe  # noqa: E402
from cgrs.rng import derive_seed  # noqa: E402
from perfbench import bench, speed, tracing  # noqa: E402
from perfbench.workloads import CountingBackend, load_settings, setup  # noqa: E402
from perfbench.zipf_model import (  # noqa: E402
    PROBE_PIECES,
    ZipfParams,
    build_surfaces,
)

SMALL_V = {"zipf": {**load_settings()["workloads"]["zipf-152k"]["zipf"], "vocab_size": 3000}}


@pytest.fixture(scope="module")
def small_zipf():
    wl = setup("zipf-152k", 5, **SMALL_V)
    yield wl
    wl.close()


class _Recording(CountingBackend):
    def __init__(self, inner, trigger_ids):
        super().__init__(inner, trigger_ids)
        self.seen = []

    def next_distribution(self, context):
        dist = super().next_distribution(context)
        self.seen.append((list(context), dist.probs))
        return dist


def test_zipf_distributions_normalized_and_pure(small_zipf):
    wl = small_zipf
    rec = _Recording(wl.backend.inner, wl.triggers.token_ids)
    for mode in wl.modes:
        generate(rec, wl.problems[0].prompt, mode.apply(wl.config, 3), wl.triggers)
    assert len(rec.seen) > 50
    for context, probs in rec.seen:
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0)
        again = wl.backend.inner.next_distribution(context).probs
        assert np.array_equal(again, probs)


def test_zipf_probe_answer_is_deterministic(small_zipf):
    wl = small_zipf
    problem = wl.problems[0]
    cfg = GenerationConfig(max_tokens=64)
    vocab = wl.backend.vocabulary
    context = vocab.encode(problem.prompt)
    first = run_probe(wl.backend.inner, context, cfg)
    second = run_probe(wl.backend.inner, list(context), cfg)
    assert first.answer_text == second.answer_text == "{" + problem.gold_answer
    assert first.certainty == second.certainty
    assert first.certainty.value < cfg.delta  # uncertain before the settle paragraph


def test_full_size_vocabulary_shape():
    params = ZipfParams()
    surfaces = build_surfaces(params)
    assert len(surfaces) == len(set(surfaces)) == 151936
    vocab = Vocabulary(surfaces)
    assert vocab.encode(GenerationConfig().probe_prompt) == [vocab.token_to_id[p] for p in PROBE_PIECES]
    assert vocab.encode("\n\n") == [vocab.token_to_id["\n\n"]]


def _reference_reports(wl, seeds):
    return run_benchmark(wl.problems, wl.backend.inner, wl.modes, wl.config, seeds)


@pytest.mark.parametrize("workload", ["toy-overthink", "zipf-152k"])
def test_task_set_matches_run_benchmark(workload):
    wl = setup(workload, 11, **(SMALL_V if workload == "zipf-152k" else {}))
    cycles = 2 if workload == "toy-overthink" else 1
    records = bench.Runner(wl).run_cycles(11, 0.0, cycles, cycles)
    q = bench.quality(records)
    reports = _reference_reports(wl, [derive_seed(11, c) for c in range(cycles)])
    for mode in wl.modes:
        assert q[f"{mode.label}.mean_length"] == reports[mode.label].mean_length
        assert q[f"{mode.label}.accuracy"] == reports[mode.label].accuracy
    e2e = bench.end_to_end(records, records, array("q", [1, 2]), [0.1])
    assert e2e["cgrs_length_reduction_pct"][0] == reports["cgrs"].length_reduction


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    wl = setup("toy-overthink", 2)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in
                 tracing.targets(bench.BACKEND_SPANS)]
    assert len(originals) == len(tracing.MODULE_TARGETS) + len(tracing.CLASS_TARGETS) + 2
    runner = bench.Runner(wl)
    metrics, records = bench.traced_run(runner, 2, 0.0, 3, tmp_path / "spans.npz")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner}.{attr} left wrapped"
    assert not runner.failures
    assert (tmp_path / "spans.npz").is_file()
    assert metrics["controller.next_token.self_us"][0] > 0
    assert 0 < metrics["suppression.effective_mask_ratio"][0] < 1
    assert metrics["controller.probe_steps_per_token"][0] > 0


def test_timeline_scales_each_piece_by_its_kernel(monkeypatch):
    samples = {"interpreter": iter([2, 4, 9]), "sort": iter([1, 1, 3])}
    monkeypatch.setattr(speed, "kernel_ns", lambda name, repeats=1: next(samples[name]))
    monkeypatch.setattr(speed, "KERNELS", {"interpreter": (None, 3), "sort": (None, 2)})
    timeline = speed.Timeline(
        {"build": "interpreter", "step": "sort", "probe_step": "interpreter", "tail": "sort"}
    )
    timeline.add(speed.BUILD, 10, "build")
    timeline.add(speed.STEP, 10, "step")
    timeline.tick(force=True)
    timeline.add(speed.STEP, 10, "probe_step")
    timeline.add(speed.TAIL, 10, "tail")
    # window 0: interpreter samples 2 and 4, sort 1 and 1; window 1: 4 and 9, 1 and 3
    assert timeline.scaled().tolist() == pytest.approx([10.0, 20.0, 10.0 * 3 / 6.5, 10.0])
    raw = speed.Timeline(None)
    raw.add(speed.STEP, 7, "step")
    assert raw.scaled().tolist() == [7.0]


def test_span_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
        sum(range(20000))
    table = tracing.SpanTable(tracer)
    outer, inner = table.ids("outer")[0], table.ids("inner")[0]
    assert table.self_time[inner] == table.duration[inner]
    assert table.self_time[outer] == pytest.approx(table.duration[outer] - table.duration[inner])


def test_oracle_gate_flags_a_shifted_mean():
    wl = setup("toy-overthink", 3)
    records = bench.Runner(wl).run_cycles(3, 0.0, 100, 100)
    assert bench.oracle_failures(wl, records) == []
    for r in records:
        if r.mode == "vanilla":
            r.token_count += 4
    assert len(bench.oracle_failures(wl, records)) == 1


def test_probe_subsequence_check():
    assert bench._contains([1, 2, 3, 4], [2, 3])
    assert not bench._contains([1, 2, 4, 3], [2, 3])


def test_loopback_counts_match_client_calls():
    wl = setup("remote-loopback", 4)
    try:
        runner = bench.Runner(wl)
        records = runner.run_cycles(4, 0.0, 1, 1)
        stats = wl.server.stats()
        probe_steps = sum(r.probe_steps for r in records)
        assert probe_steps > 0
        assert bench.server_failures(stats, wl.backend.calls, probe_steps) == []
        assert bench.server_failures(stats, wl.backend.calls + 1, probe_steps) != []
        proc = wl.server._proc
    finally:
        wl.close()
    assert proc.poll() is not None


def test_mode_labels_match_metric_names():
    labels = {ModeSpec.parse(m).label for m in load_settings()["workloads"]["toy-overthink"]["modes"]}
    declared = {d["name"] for d in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert {f"ms_per_token.{label}" for label in labels} <= declared
