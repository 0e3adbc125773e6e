"""Checks of the benchmark itself: each workload passes its own checks at a
tiny size, and a wrong answer is counted as a failed op, never passed.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(name, workdir, tracer=None):
    workload = bw.WORKLOADS[name](7, workdir, tiny=True)
    tracer = tracer or bench_trace.NullTracer()
    return bw.measure(workload, workload.build_pass(0), 0.0, tracer)


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_tiny_run_passes_its_checks(name, tmp_path):
    out = run_tiny(name, tmp_path)
    assert out.attempted > 0
    assert out.failed == 0, out.failures
    assert out.correct, out.pass_errors
    assert len(out.pass_rates) == 1


def test_same_seed_gives_same_inputs(tmp_path):
    def answers(seed):
        ops = list(bw.element_queries(seed, tmp_path, tiny=True).build_pass(1))
        return [op.call() for op in ops[:30]]

    assert answers(3) == answers(3)
    assert answers(3) != answers(4)


def test_corpus_file_is_the_generated_corpus():
    corpus = bw.corpus
    generated = [
        corpus.dump_line(S)
        for order in range(1, 5)
        for S in corpus.generate_tables(corpus.CorpusSpec(order, "up_to_iso_anti"))
    ]
    assert [corpus.dump_line(S) for S in bw.corpus4()] == generated
    assert len(generated) == sum(bw.CLASSES_UP_TO_ISO_ANTI.values()) == 149


def test_same_rows_word_names_the_same_transformation():
    S = bw.core.example_ijkf()
    rng = bw.random.Random(0)
    u = (0, 1, 3, 2, 0, 3)
    v = bw.same_rows_word(S, u, rng)
    assert v != u
    assert bw.engine.equal(S, u, v)


def test_cascade_matches_act():
    S = bw.core.symmetric_group(3)
    for word in [(1, 2), (3, 4, 5), (0, 5, 2, 1)]:
        prefix = (5, 1, 4, 0, 2, 3)
        assert bw.cascade(S, word, prefix) == bw.engine.act(S, word, prefix)


def test_corrupted_cayley_row_counts_as_failure(tmp_path, monkeypatch):
    original = bw.engine.enumerate_semigroup

    def corrupted(S, *args, **kwargs):
        result = original(S, *args, **kwargs)
        rows = list(result.cayley)
        rows[0] = tuple((v + 1) % len(rows) for v in rows[0])
        return dataclasses.replace(result, cayley=tuple(rows))

    monkeypatch.setattr(bw.engine, "enumerate_semigroup", corrupted)
    out = run_tiny("closed-wide", tmp_path)
    assert out.attempted > 0
    assert out.failed == out.attempted
    assert not out.correct


def test_mismatched_equal_counts_as_failure(tmp_path, monkeypatch):
    original = bw.engine.equal
    monkeypatch.setattr(bw.engine, "equal", lambda S, u, v: not original(S, u, v))
    out = run_tiny("element-queries", tmp_path)
    assert out.failed == out.attempted // 3
    assert all(failure.startswith("equal") for failure in out.failures)


def test_wrong_act_counts_as_failure(tmp_path, monkeypatch):
    original = bw.engine.act
    monkeypatch.setattr(
        bw.engine, "act", lambda S, w, p: tuple(reversed(original(S, w, p))) + (0,)
    )
    out = run_tiny("element-queries", tmp_path)
    assert out.failed == out.attempted // 3


def test_verify_disagreement_counts_as_failure(tmp_path, monkeypatch):
    original = bw.verify.classify

    def lying(S):
        report = original(S)
        return dataclasses.replace(report, is_group=not report.is_group)

    monkeypatch.setattr(bw.verify, "classify", lying)
    out = run_tiny("verify-order4", tmp_path)
    assert out.attempted == 5
    assert out.failed == out.attempted


def test_missing_corpus_table_fails_the_pass(tmp_path, monkeypatch):
    original = bw.corpus.generate_tables

    def short(spec, *args, **kwargs):
        tables = list(original(spec, *args, **kwargs))
        return iter(tables[:-1] if spec.order == 2 else tables)

    monkeypatch.setattr(bw.corpus, "generate_tables", short)
    out = run_tiny("verify-order4", tmp_path)
    assert out.failed == 0
    assert out.pass_errors and not out.correct


def test_wrong_cli_output_counts_as_failure(tmp_path, monkeypatch):
    original = bw.run_cli

    def garbled(argv, env):
        proc = original(argv, env)
        return subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout + " ", proc.stderr)

    monkeypatch.setattr(bw, "run_cli", garbled)
    out = run_tiny("cli-oneshot", tmp_path)
    assert out.attempted > 0
    assert out.failed == out.attempted


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    engine = bw.engine
    original_extend = engine.BehaviorGraph.extend
    original_enumerate = engine.enumerate_semigroup
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer):
        # verify imports engine functions by name: its copy is wrapped too
        assert bw.verify.enumerate_semigroup is engine.enumerate_semigroup
        assert engine.enumerate_semigroup is not original_enumerate
        out = run_tiny("verify-order4", tmp_path, tracer)
    assert engine.BehaviorGraph.extend is original_extend
    assert bw.verify.enumerate_semigroup is original_enumerate
    assert out.correct

    values = bench_trace.summarize(tracer.spans, out.busy_s, out.ops_per_s, {}, 0.0)
    assert list(values) == [entry["name"] for entry in BENCHMARK["per_layer"]]
    assert values["engine.extend.calls"] > 0
    assert 0 < values["engine.extend.useful_ratio"] <= 1
    assert 0 < values["engine.extend.last_share"] < 1
    assert values["engine.enumerate_semigroup.s_exceeded"] > 0
    # order 1 and 2: 1 + 8 labeled tables, 1 + 4 kept
    assert values["corpus.canonical_form.calls"] == 9
    assert values["corpus.kept_ratio"] == pytest.approx(5 / 9)
    assert {span.op for span in tracer.spans if span.name == "verify.check_table"} == set(range(5))
    # answer checks run with the tracer off
    assert sum(1 for span in tracer.spans if span.name == "verify.check_table") == 5


def test_benchmark_json_matches_the_code():
    layers = [(name, unit, better) for name, unit, better, _ in bench_trace.PER_LAYER]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layers
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bw.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(bw.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(x) for x in range(1, 101)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)


def test_run_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-wide",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    record = json.loads(lines[-2])
    assert {"nproc", "python", "numpy", "loadavg_1m", "seed"} <= set(record["env"])


def test_run_without_source_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
