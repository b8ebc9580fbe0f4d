"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--seconds S] [WORKLOAD ...]

Runs ``run.py --trace 0`` once per seed for each workload (default: those
in ``BENCHMARK.json``) and prints, per metric, the median of the runs and
the distance between their first and third quartiles as a share of that
median, next to the metric's bound from ``BENCHMARK.json``.  The raw
results are written to ``bench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import ROOT

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "workloads", nargs="*", default=[w["name"] for w in spec["workloads"]]
    )
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        (HERE / "out" / f"spread-{name}.json").write_text(json.dumps(results))
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{name}: {args.runs} runs, correct {correct}, "
              f"{failed}/{attempted} child runs failed")
        ok &= correct
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            print(f"  {metric:<14} median {med:<12.6g} spread {share:7.2%}  "
                  f"bound {bound:.0%}  values {' '.join(f'{v:.4g}' for v in values)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
