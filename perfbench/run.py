"""Benchmark of promptir: one workload per run, its metrics on the last line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer metrics of a traced
run. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
run's details (machine, sample sizes, checks, every figure measured),
which are also written to .bench_out/. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # this process and its server child only
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import promptir
except ImportError as exc:
    sys.exit(f"perfbench: cannot import promptir from {ROOT / 'src'}: {exc}")
if not Path(promptir.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: promptir imported from {promptir.__file__}, not this checkout")

import numpy as np  # noqa: E402

from common import (INJECTIONS, OUT_DIR, SIZES, Calibration, Run, machine,  # noqa: E402
                    peak_rss_mb, summarize)
import retrieve_workload  # noqa: E402
import serve_workload  # noqa: E402
import tracing  # noqa: E402
import train_workload  # noqa: E402

IN_PROCESS = {"train": train_workload, "retrieve": retrieve_workload}
QUALITY = ("mrr_at_10", "recall_at_100", "mining.denoise.keep_rate",
           "mining.pool_size_mean", "mining.assemble.shortfall_rate",
           "mining.assemble.dense_share")


def in_process(name, size, args, run):
    """train or retrieve: set up, measure, and with --trace 1 a traced pass."""
    module, p, shape = IN_PROCESS[name], size[name], size["model"]
    setups, cal = [], Calibration()
    for _ in range(size["setup_repeats"]):
        st, dt = cal.timed(module.setup, p, shape, args.seed)
        setups.append(dt)
    t0 = time.perf_counter()
    f = module.pipeline(st, p, args.seed, run, args.inject)
    wall = time.perf_counter() - t0
    lat = summarize(np.asarray(f.pop("query_latencies_s")) * 1e3)
    detail = {"setup_s_samples": setups, "setup_calibration": cal.summary(), "wall_s": wall,
              "query_latency_ms": lat, "figures": f}
    if not args.trace:
        # index rates and latencies are already at the reference machine
        # speed (common.Calibration); figures.calibration says how far off it ran
        return {
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": peak_rss_mb(),
            "index_passages_per_s": f["index_passages_per_s"],
            "latency_p50_ms": lat["p50"],
            "latency_tail_ms": lat["tail"],
            "throughput_per_s": f["throughput_per_s"],
        }, detail

    # the same pass again on a fresh set-up, traced
    st = module.setup(p, shape, args.seed)
    passages = []
    tracer = tracing.Tracer().install(hooks={
        "training.batch_candidates": lambda cands: passages.append(
            len({pid for c in cands for pid in c}))})
    try:
        t0 = time.perf_counter()
        traced = module.pipeline(st, p, args.seed, run, args.inject)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.remove()
    traced.pop("query_latencies_s")
    if args.inject == "traced_quality":
        traced["mrr_at_10"] += 0.01
    for key in QUALITY:
        run.check("traced_quality_equals_untraced", traced[key] == f[key],
                  f"{key}: {traced[key]} != {f[key]}")
    spans = tracer.spans()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    np.savez(OUT_DIR / f"trace-{name}.npz", **spans)
    known = {k: v for k, v in f.items() if k.startswith("mining.")}
    known.update({
        "pretrain.rip_units_per_s": f.get("rip_units_per_s", 0.0),
        "evaluation.mrr_at_10": f["mrr_at_10"],
        "evaluation.recall_at_100": f["recall_at_100"],
        "training.passages_per_step": float(np.mean(passages)) if passages else 0.0,
        "trace.overhead_s": traced_wall - wall,
        "trace.overhead_share": (traced_wall - wall) / wall,
    })
    detail["traced_wall_s"] = traced_wall
    return (spans, known), detail


def serve(size, args, run):
    values, detail = serve_workload.measure(args.size, size, args.seed, args.seconds,
                                            args.trace, args.inject, run)
    if not args.trace:
        return values, detail
    known = dict(detail.pop("probe"))
    known["trace.overhead_s"] = detail["overhead_s"]
    known["trace.overhead_share"] = detail["overhead_s"] / detail["untraced_wall_s"]
    return (detail.pop("spans"), known), detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("train", "retrieve", "serve"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the serve workload's base-rate phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--inject", choices=INJECTIONS, default="none",
                    help="corrupt one output on purpose (smoke test of the checks)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    size = SIZES[args.size]
    run = Run()
    t0 = time.perf_counter()
    try:
        if args.workload == "serve":
            values, detail = serve(size, args, run)
        else:
            values, detail = in_process(args.workload, size, args, run)
        if args.trace:
            spans, known = values
            values = tracing.per_layer([m["name"] for m in declared], spans, known)
            detail["layers"] = tracing.layer_stats(spans)
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in declared}
    except Exception as exc:  # the program failed mid-run: report it as a failed run
        traceback.print_exc()
        run.check("workload_completed", False, repr(exc))
        detail, metrics = {}, {}
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "inject": args.inject,
        "run_s": time.perf_counter() - t0, "machine": machine(), "checks": run.checks,
        "peak_rss_mb": {"self": peak_rss_mb(), "children": peak_rss_mb(children=True)},
    })
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1, default=str))
    summary = {k: v for k, v in detail.items() if k != "layers"}
    print(json.dumps(summary, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
