"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload completes and prints every declared metric with its unit;
each correctness check fails the run when its output is corrupted on
purpose; and without the program the benchmark exits nonzero without a
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics each workload's traced run must measure as nonzero
EXERCISED = {
    "train": ["autodiff.backward.s", "autodiff.AdamW.step.s", "autodiff.ops_per_dpt_step",
              "training.passages_per_step", "pretrain.rip_loss.self_s",
              "encoder.mlm_logits.s", "evaluation.evaluate.s", "mining.pool_size_mean"],
    "retrieve": ["autodiff.ops_per_sequence", "autodiff.gelu.self_s",
                 "vector_index.search.calls", "mining.bm25_search.calls",
                 "mining.DenseRetriever.__call__.s", "tokenizer.Vocabulary.encode.calls"],
    "serve": ["serving.server_ms_p50", "serving.transport_ms_p50",
              "serving.EncodingService.encode_vector.s", "serving.EncodingService.register.s",
              "encoder.prefix_kv.calls", "prompts.promptset_from_json.s",
              "serving.http.do_POST.s"],
}

# the check each injected corruption must trip
CAUGHT_BY = {
    "served_vector": "served_vector_matches_encode",
    "fingerprint": "fingerprint_echo",
    "backbone": "backbone_unchanged_by_dpt",
    "index_fingerprint": "index_fingerprint",
    "leaked_positive": "no_positive_in_negatives",
    "traced_quality": "traced_quality_equals_untraced",
}


def bench(workload, trace=0, inject="none", cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = json.loads(lines[-2]) if len(lines) > 1 else None
    return proc, result, detail


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train", "retrieve", "serve"])
def test_workload_prints_every_metric(workload, trace):
    proc, result, detail = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace:
        for name in EXERCISED[workload] + ["trace.spans"]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["machine"]["blas_threads"] == "1"


@pytest.mark.parametrize("workload,inject,trace", [
    ("serve", "served_vector", 0),
    ("serve", "fingerprint", 0),
    ("train", "backbone", 0),
    ("train", "index_fingerprint", 0),
    ("retrieve", "index_fingerprint", 0),
    ("train", "leaked_positive", 0),
    ("retrieve", "leaked_positive", 0),
    ("retrieve", "traced_quality", 1),
])
def test_corrupted_output_fails_the_run(workload, inject, trace):
    proc, result, detail = bench(workload, trace, inject)
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] > 0
    assert detail["checks"][CAUGHT_BY[inject]]["failed"] > 0


def test_without_the_program_no_result():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc, result, _ = bench("train", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert result is None
