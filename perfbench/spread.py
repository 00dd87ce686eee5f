"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1 2 3 4 5 [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of the median, beside the
bound BENCHMARK.json gives it. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in declared}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    for m in declared:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else float("nan")
        print(f"{m['name']:44s} median {med:12.5g} spread {share:7.3f}  "
              f"bound {m.get('bound', '-')}  values {[round(x, 4) for x in v]}")


if __name__ == "__main__":
    main()
