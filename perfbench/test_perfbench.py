"""Smoke tests for the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

TINY_SYNTH = ["--clusters", "3", "--items-per-cluster", "20", "--users", "60",
              "--seq-len", "8"]
TINY_CONFIG = dict(embed_dim=4, att_hidden_dim=4, recon_hidden_dim=2,
                   num_interests=2, max_seq_len=8, temperature=0.2,
                   lambda_cl=0.1, lambda_att=0.04, lambda_ct=0.01,
                   num_rec_negatives=4, batch_size=16, epochs=1, eval_every=1)
TINY = {
    "tiny-train": Workload(name="tiny-train", synth=TINY_SYNTH,
                           config=TINY_CONFIG,
                           commands=("train", "eval", "diagnose")),
    "tiny-serve": Workload(name="tiny-serve", synth=TINY_SYNTH,
                           config=dict(TINY_CONFIG, eval_every=0),
                           commands=("eval", "diagnose"), setup_train=True),
    "tiny-broken": Workload(name="tiny-broken", synth=TINY_SYNTH,
                            config=dict(TINY_CONFIG, epochs=0),
                            commands=("train", "eval", "diagnose")),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(harness, "WORKLOADS", dict(WORKLOADS, **TINY))
    root = os.environ.get("MIREC_OUTPUT_ROOT")
    yield
    if root is None:
        os.environ.pop("MIREC_OUTPUT_ROOT", None)
    else:
        os.environ["MIREC_OUTPUT_ROOT"] = root


def run(tmp_path, name, trace, names, seconds=0.0):
    return harness.run_workload(name, 3, seconds, trace, str(tmp_path / "work"),
                                str(tmp_path / "trace.json"), names, 1)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", ["tiny-train", "tiny-serve"])
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, name):
    result, report = run(tmp_path, name, 0, END_TO_END, seconds=1.0)
    # correct includes byte-identical eval and diagnose output in every pass
    assert result["correct"] and result["failed"] == 0, report
    assert "1 timed pass(es)" not in report[1]  # read passes ran
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(v is not None and v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["tiny-train", "tiny-serve"])
def test_traced_run_matches_untraced_and_reports_layers(tmp_path, name):
    result, _ = run(tmp_path, name, 1, PER_LAYER)
    # correct includes the byte-identity of traced and untraced artifacts
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert all(v is not None for v in metrics.values()), metrics
    assert metrics["evaluation.user_ms_p99"] >= metrics["evaluation.user_ms_p50"] > 0
    assert metrics["data.ingest_calls"] >= 2
    assert metrics["evaluation.users"] > 0
    assert metrics["diagnostics.kmeans_calls"] > 1
    if name == "tiny-train":
        assert metrics["trainer.steps"] > 0
        assert metrics["gradcore.tape_bytes_per_step"] > 0
        assert metrics["losses.contrast_tape_entries"] > 0
        assert 0.0 <= metrics["losses.pos_empty_share"] <= 1.0
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert "pipeline" in doc["names"] and doc["spans"]


def test_tracer_leaves_the_package_as_it_found_it():
    from mirec import gradcore, trainer
    before = (trainer.compute_batch_losses, gradcore.Tape.backward, gradcore.matmul)
    t = tracing.Tracer().install()
    assert trainer.compute_batch_losses is not before[0]
    t.restore()
    assert (trainer.compute_batch_losses, gradcore.Tape.backward,
            gradcore.matmul) == before


def test_missing_name_is_unmeasured_not_fatal(monkeypatch):
    targets = [t for t in tracing._targets() if t[0] != "evaluation.extract"]
    targets.append(("evaluation.extract", "mirec.evaluation", "no_such_function",
                    None, None))
    monkeypatch.setattr(tracing, "_targets", lambda: targets)
    t = tracing.Tracer().install()
    t.restore()
    metrics = tracing.layer_metrics(t, PER_LAYER)
    assert "evaluation.extract" in t.missing
    assert metrics["evaluation.extract_ms_p50"] is None
    assert metrics["evaluation.user_ms_p50"] is None
    assert metrics["trainer.steps"] == 0


def test_result_line_holds_only_numbers():
    units = {"a": "ms", "b": "count"}
    report = []
    result = {"correct": True, "metrics": {"a": 1.5, "b": None}}
    metrics = bench_run.result_metrics(result, report, units, trace=1)
    assert metrics == {"a": {"value": 1.5, "unit": "ms"},
                       "b": {"value": 0, "unit": "count"}}
    assert result["correct"] and not report  # unmeasured layers stay correct
    metrics = bench_run.result_metrics(result, report, units, trace=0)
    assert metrics["b"]["value"] == 0 and not result["correct"]
    assert report and "b" in report[0]


def test_failed_command_is_counted_and_the_run_goes_on(tmp_path):
    result, report = run(tmp_path, "tiny-broken", 0, END_TO_END)
    assert not result["correct"]
    # train fails, so eval and diagnose find no checkpoint; set-ups still pass
    assert result["failed"] == 3
    assert result["attempted"] >= 2 + 3
    assert any("train: exit 1" in line for line in report)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
