"""Acceptance suite: ten numbered criteria, one PASS/FAIL line each.

Every criterion runs as its own test and prints a single summary line that
survives pytest's capture, so a tee'd run shows the verdict per criterion.
Generations performed here are recorded and swept by the probe-isolation
criterion at the end.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cgrs.backend import ToyBackend, overthinking_spec
from cgrs.certainty import TokenDistribution, certainty_score
from cgrs.cli import main as cli_main
from cgrs.controller import DecodeTrace, GenerationConfig, ModeSpec, generate
from cgrs.harness import RunReport, length_reduction, write_reports
from cgrs.lexicon import (
    Vocabulary,
    build_from_traces,
    build_trigger_set,
    default_trigger_words,
    expand_variants,
    load_trigger_config,
    save_trigger_config,
)
from cgrs.rng import sampling_uniform
from cgrs.sampling import softmax
from cgrs.suppression import mask_triggers, suppression_probability

from conftest import TOY_PROMPT
from markov_oracle import expected_length
from remote_stub import toy_completion_server

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"

#: main-stream traces generated by this suite, swept by criterion 7
TRACES: list[DecodeTrace] = []


@contextmanager
def criterion(capsys, num: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num:02d}] FAIL ({time.perf_counter() - t0:.2f}s): {desc}")
        raise
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] PASS ({time.perf_counter() - t0:.2f}s): {desc}")


def toy_cfg(**overrides) -> GenerationConfig:
    base = dict(temperature=1.0, top_p=1.0, delta=0.9, max_tokens=400, seed=0)
    base.update(overrides)
    return GenerationConfig(**base)


def record(trace: DecodeTrace) -> DecodeTrace:
    TRACES.append(trace)
    return trace


def test_criterion_01_certainty_oracle(capsys):
    with criterion(capsys, 1, "certainty score boundary values, base invariance, monotonicity"):
        t0 = time.perf_counter()
        uniform = TokenDistribution(probs=np.full(4, 0.25))
        onehot = TokenDistribution(probs=np.array([0.0, 0.0, 1.0, 0.0]))

        assert abs(certainty_score([uniform] * 3, 4).value - 0.0) < 1e-9
        assert abs(certainty_score([onehot] * 3, 4).value - 1.0) < 1e-9
        assert abs(certainty_score([uniform, onehot], 4).value - 0.5) < 1e-9

        rng = np.random.default_rng(1001)
        for _ in range(1000):
            vocab = int(rng.integers(2, 48))
            probs = rng.dirichlet(np.ones(vocab) * rng.uniform(0.3, 4.0))
            dist = TokenDistribution(probs=probs)
            c = certainty_score([dist], vocab).value
            assert 0.0 <= c <= 1.0
            # sharpening: mixing mass toward the argmax never lowers certainty
            lam = float(rng.uniform(0.0, 1.0))
            peak = np.zeros(vocab)
            peak[int(np.argmax(probs))] = 1.0
            sharper = TokenDistribution(probs=(1 - lam) * probs + lam * peak)
            assert certainty_score([sharper], vocab).value >= c - 1e-12

        # base invariance: entropy in bits over log2|V| gives the same score
        for _ in range(200):
            vocab = int(rng.integers(2, 32))
            n_tok = int(rng.integers(1, 4))
            dists = [TokenDistribution(probs=rng.dirichlet(np.ones(vocab))) for _ in range(n_tok)]
            nats = certainty_score(dists, vocab).value
            h_bits = [
                -float(np.sum(d.probs[d.probs > 0] * np.log2(d.probs[d.probs > 0])))
                for d in dists
            ]
            bits = 1.0 - (sum(h_bits) / n_tok) / math.log2(vocab)
            assert abs(nats - bits) < 1e-12

        assert time.perf_counter() - t0 < 1.0, "criterion 1 must finish under one second"


def test_criterion_02_suppression_ramp(capsys):
    with criterion(capsys, 2, "suppression ramp grid, case-study point, threshold continuity"):
        # 101 x 100 grid against exact rational arithmetic on the same floats
        for i in range(101):
            c = i / 100
            for j in range(100):
                d = j / 100
                exact = max(Fraction(0), (Fraction(c) - Fraction(d)) / (1 - Fraction(d)))
                assert abs(suppression_probability(c, d) - float(exact)) <= 1e-12

        # case-study point: binary64 evaluation lands 5 ulp above 0.26, so
        # equality is asserted at 1e-15 (the 1e-12 grid above pins the arithmetic)
        p = suppression_probability(0.926, 0.9)
        assert abs(p - 0.26) <= 1e-15

        for d in (0.0, 0.3, 0.5, 0.9, 0.99):
            eps = 1e-9
            below = suppression_probability(max(d - eps, 0.0), d)
            above = suppression_probability(min(d + eps, 1.0), d)
            assert below == 0.0
            assert 0.0 <= above <= eps / (1.0 - d) + 1e-12


def test_criterion_03_masking(capsys):
    with criterion(capsys, 3, "trigger masking kills triggers, preserves unmasked ratios"):
        rng = np.random.default_rng(3003)
        for _ in range(1000):
            n = int(rng.integers(4, 48))
            logits = rng.normal(size=n) * 3.0
            k = int(rng.integers(1, n - 1))
            triggers = set(map(int, rng.choice(n, size=k, replace=False)))
            masked = mask_triggers(logits, triggers)

            p_orig = softmax(logits)
            p_masked = softmax(masked)
            keep = np.array(sorted(set(range(n)) - triggers))

            for t in triggers:
                assert p_masked[t] < 1e-9
            ratios_orig = p_orig[keep][:, None] / p_orig[keep][None, :]
            ratios_masked = p_masked[keep][:, None] / p_masked[keep][None, :]
            assert np.allclose(ratios_masked, ratios_orig, rtol=1e-12, atol=0.0)

            twice = mask_triggers(masked, triggers)
            assert np.array_equal(twice, masked)  # idempotent

            shift = float(rng.normal() * 5.0)
            a = mask_triggers(logits + shift, triggers)
            b = mask_triggers(logits, triggers) + shift
            assert np.array_equal(a[keep], b[keep])  # commutes on unmasked entries


def reference_vanilla_tokens(backend, prompt: str, seed: int, max_tokens: int = 400) -> list[int]:
    """Independent vanilla sampler: raw-probability inverse CDF, shared streams."""
    vocab = backend.vocabulary
    ctx = list(vocab.encode(prompt))
    eos = backend.eos_token_id
    out: list[int] = []
    for step in range(max_tokens):
        probs = backend.next_distribution(ctx).probs
        u = sampling_uniform(seed, step)
        token = None
        acc = 0.0
        for i, q in enumerate(probs):
            acc += float(q)
            if u < acc:
                token = i
                break
        if token is None:
            token = int(np.flatnonzero(probs > 0)[-1])
        if token == eos:
            break
        ctx.append(token)
        out.append(token)
    return out


def test_criterion_04_decode_loop_conformance(
    capsys, overthinking_backend, overthinking_triggers
):
    with criterion(capsys, 4, "decode loop: vanilla identity, p=1 ban, p bookkeeping"):
        backend = overthinking_backend
        wait_id = backend.vocabulary.token_to_id["Wait"]
        delta = 0.9

        # disabled suppression reproduces an independent sampler token for token
        for seed in range(100):
            trace = record(
                generate(
                    backend,
                    TOY_PROMPT,
                    toy_cfg(seed=seed, mode=ModeSpec("vanilla")),
                    overthinking_triggers,
                )
            )
            assert trace.tokens == reference_vanilla_tokens(backend, TOY_PROMPT, seed)

        # forced p=1: not a single trigger token across >= 10,000 tokens
        total = 0
        seed = 0
        while total < 10_000:
            trace = record(
                generate(
                    backend,
                    TOY_PROMPT,
                    toy_cfg(seed=seed, mode=ModeSpec("fixed_p", 1.0)),
                    overthinking_triggers,
                )
            )
            assert wait_id not in trace.tokens
            total += trace.token_count
            seed += 1
        assert total >= 10_000

        # certainty-guided bookkeeping on 100 runs
        for seed in range(100):
            trace = record(
                generate(
                    backend, TOY_PROMPT, toy_cfg(seed=seed, delta=delta), overthinking_triggers
                )
            )
            assert trace.checkpoint_events, "toy runs always reach a checkpoint"
            events = {e.step: e.p_after for e in trace.checkpoint_events}
            first_step = trace.checkpoint_events[0].step
            current = 0.0
            for decision in trace.suppression_decisions:
                if decision.step <= first_step:
                    assert decision.p == 0.0  # p is 0 before the first checkpoint
                assert decision.p == current  # constant between checkpoints
                if decision.step in events:
                    current = events[decision.step]
            for event in trace.checkpoint_events:
                c = event.probe.certainty.value
                assert event.p_after == max(0.0, (c - delta) / (1.0 - delta))


def test_criterion_05_overthinking_reduction_oracle(
    capsys, overthinking_backend, overthinking_triggers
):
    with criterion(capsys, 5, "analytic length oracle, 1000-run means, answer preservation"):
        t0 = time.perf_counter()
        backend = overthinking_backend
        prompt_ids = backend.vocabulary.encode(TOY_PROMPT)
        trig_ids = sorted(overthinking_triggers.token_ids)
        n = 1000

        # linear-solve oracle cross-checked against closed forms
        e0 = expected_length(backend, prompt_ids, 0.0, trig_ids)
        e1 = expected_length(backend, prompt_ids, 1.0, trig_ids)
        assert abs(e0 - 54.0 / 7.0) < 1e-9
        assert abs(e1 - 6.0) < 1e-9

        lengths = {"vanilla": [], "fixed1": [], "cgrs": []}
        answers_match = 0
        for seed in range(n):
            vanilla = record(
                generate(
                    backend,
                    TOY_PROMPT,
                    toy_cfg(seed=seed, mode=ModeSpec("vanilla")),
                    overthinking_triggers,
                )
            )
            fixed1 = record(
                generate(
                    backend,
                    TOY_PROMPT,
                    toy_cfg(seed=seed, mode=ModeSpec("fixed_p", 1.0)),
                    overthinking_triggers,
                )
            )
            cgrs = record(
                generate(backend, TOY_PROMPT, toy_cfg(seed=seed), overthinking_triggers)
            )
            lengths["vanilla"].append(vanilla.token_count)
            lengths["fixed1"].append(fixed1.token_count)
            lengths["cgrs"].append(cgrs.token_count)
            v_ans = vanilla.text.rsplit("\\boxed{", 1)[1].split("}", 1)[0]
            c_ans = cgrs.text.rsplit("\\boxed{", 1)[1].split("}", 1)[0]
            answers_match += v_ans == c_ans

        def within_3se(samples, analytic):
            arr = np.asarray(samples, dtype=np.float64)
            se = arr.std(ddof=1) / math.sqrt(arr.size)
            return abs(arr.mean() - analytic) <= 3.0 * se

        assert within_3se(lengths["vanilla"], e0)
        assert within_3se(lengths["fixed1"], e1)

        mean_cgrs = float(np.mean(lengths["cgrs"]))
        assert e1 < mean_cgrs < e0  # strictly between the analytic endpoints

        # the certainty-guided schedule equals a fixed-p* run analytically:
        # every post-checkpoint decision sees the same probe certainty
        p_star = TRACES[-1].checkpoint_events[0].p_after
        e_star = expected_length(backend, prompt_ids, p_star, trig_ids)
        s = 1.0 - 0.3 * (1.0 - p_star)
        assert abs(e_star - (6.0 + 4.0 * (1.0 - s) / s)) < 1e-9
        assert within_3se(lengths["cgrs"], e_star)

        assert answers_match / n >= 0.99
        assert time.perf_counter() - t0 < 120.0, "criterion 5 must finish under two minutes"


def test_criterion_06_fixed_p_trend(capsys, overthinking_backend, overthinking_triggers):
    with criterion(capsys, 6, "mean length monotone over p in {0, 0.25, 0.5, 1}, sign tests"):
        from scipy.stats import binomtest

        backend = overthinking_backend
        ps = (0.0, 0.25, 0.5, 1.0)
        lengths = {p: [] for p in ps}
        for seed in range(200):
            for p in ps:
                trace = record(
                    generate(
                        backend,
                        TOY_PROMPT,
                        toy_cfg(seed=seed, mode=ModeSpec("fixed_p", p)),
                        overthinking_triggers,
                    )
                )
                lengths[p].append(trace.token_count)

        means = [float(np.mean(lengths[p])) for p in ps]
        assert all(a >= b for a, b in zip(means, means[1:])), means

        for low, high in zip(ps, ps[1:]):
            lo = np.array(lengths[low])
            hi = np.array(lengths[high])
            # matched seeds share decision streams: raising p never lengthens a run
            assert (lo >= hi).all()
            wins = int((lo > hi).sum())
            ties = int((lo == hi).sum())
            n_eff = wins + int((lo < hi).sum())
            assert n_eff >= 5, f"too many ties between p={low} and p={high} ({ties})"
            pvalue = binomtest(wins, n_eff, alternative="greater").pvalue
            assert pvalue < 0.05, (low, high, wins, n_eff, pvalue)


def contains_subsequence(haystack: list[int], needle: list[int]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    first = needle[0]
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i] == first and haystack[i : i + len(needle)] == needle:
            return True
    return False


def test_criterion_07_probe_isolation(capsys, overthinking_backend, overthinking_triggers):
    with criterion(capsys, 7, "no main token stream ever contains the probe prompt"):
        backend = overthinking_backend
        # a few remote-backend generations join the locally recorded ones
        with toy_completion_server(overthinking_spec()) as (base_url, toy):
            from cgrs.backend import RemoteBackend

            remote = RemoteBackend(
                vocab=toy.vocabulary, base_url=base_url, eos_token="<eos>", top_k=11
            )
            for seed in range(3):
                record(generate(remote, TOY_PROMPT, toy_cfg(seed=seed), overthinking_triggers))
                record(
                    generate(
                        remote,
                        TOY_PROMPT,
                        toy_cfg(seed=seed, mode=ModeSpec("fixed_p", 1.0)),
                        overthinking_triggers,
                    )
                )

        assert len(TRACES) > 3000, "earlier criteria must have populated the trace pool"
        checked = 0
        for trace in TRACES:
            probe_seq = backend.vocabulary.encode(trace.config.probe_prompt)
            assert probe_seq, "probe prompt must encode to at least one token"
            assert not contains_subsequence(trace.tokens, probe_seq), trace.config
            checked += 1
        # sanity: the subsequence scan itself can find planted needles
        planted = TRACES[0].tokens + probe_seq + TRACES[1].tokens
        assert contains_subsequence(planted, probe_seq)
        assert checked == len(TRACES)


def test_criterion_08_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 8, "two identical `cgrs run` invocations: byte-identical reports"):
        args = [
            "run",
            "--dataset", str(DEMO_DIR / "problems.jsonl"),
            "--backend", f"toy:{DEMO_DIR / 'toy_overthinking.json'}",
            "--mode", "vanilla",
            "--mode", "fixed-p=0.5",
            "--mode", "cgrs",
            "--temperature", "1.0",
            "--top-p", "1.0",
            "--seeds", "0,1,2",
            "--reps", "3",
        ]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["cgrs.json", "fixed_p_0.5.json", "summary.csv", "vanilla.json"]
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical invocations"


def test_criterion_09_length_reduction_arithmetic(capsys, tmp_path):
    with criterion(capsys, 9, "LR(5861, 3406) reports 41.9% within 0.05pp"):
        lr = length_reduction(5861.0, 3406.0)
        assert abs(lr - 41.9) <= 0.05

        def report(mode, mean, reduction):
            return RunReport(
                mode=mode,
                dataset="table1-analog",
                n_problems=40,
                repetitions=1,
                seeds=(0,),
                accuracy=88.3,
                mean_length=mean,
                length_reduction=reduction,
                length_distribution=(int(mean),),
                trigger_frequencies={},
                unparsable=0,
                backend_failures=0,
            )

        write_reports(
            {
                "vanilla": report("vanilla", 5861.0, 0.0),
                "cgrs": report("cgrs", 3406.0, lr),
            },
            tmp_path,
        )
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        assert rows[0] == "dataset,mode,acc,len,lr"
        cgrs_row = next(r for r in rows[1:] if ",cgrs," in r)
        assert cgrs_row.split(",")[4] == "41.9"


def test_criterion_10_lexicon_suite(capsys, tmp_path):
    with criterion(capsys, 10, "variant expansion, min_count monotonicity, config round-trip"):
        assert expand_variants("But") == {"But", " But", "but", " but", "BUT", " BUT"}

        rng = np.random.default_rng(1010)
        vocab = Vocabulary(
            ["Wait", " wait", "WAIT", "But", "but", "Hmm", "step", "x", "y"]
        )
        candidates = build_trigger_set(["Wait", "But", "Hmm"], vocab)
        for _ in range(50):
            traces = [
                [int(t) for t in rng.integers(0, vocab.size, size=rng.integers(0, 40))]
                for _ in range(int(rng.integers(1, 6)))
            ]
            previous = None
            for mc in range(0, 7):
                kept, _ = build_from_traces(traces, candidates, mc)
                if previous is not None:
                    assert kept.token_ids <= previous  # monotone shrinking
                previous = kept.token_ids

        words = default_trigger_words() + ["Perhaps"]
        path = tmp_path / "triggers.json"
        save_trigger_config(path, words, min_count=3)
        loaded_words, loaded_min = load_trigger_config(path)
        assert loaded_words == words
        assert loaded_min == 3
        save_trigger_config(tmp_path / "again.json", loaded_words, loaded_min)
        assert (tmp_path / "again.json").read_text() == path.read_text()
