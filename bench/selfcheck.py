"""Checks of the benchmark itself.

    python3 bench/selfcheck.py [--seed N]

1. ``bench/models/mobile_sink2.big`` is ``models/mobile_sink.big`` with a
   second ``N.(Buf(0) | PhM)`` in ``big start`` and no other change.  (A
   blanket substitution would also rewrite the ``send_far`` reactum and
   give an unbounded model.)
2. Two traced runs of each workload with the same seed report identical
   per-layer counts and ratios, and a run with another seed changes them
   only on ``sink2-sim``, the one workload that consumes the seed.

Exit status 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, SINK2, WORKLOADS

HERE = Path(__file__).resolve().parent
SECOND_SENSOR = " | N.(Buf(0) | PhM));"
TIMED_UNITS = ("s", "us", "1/s")


def check_model() -> list:
    base = (ROOT / "models" / "mobile_sink.big").read_text(encoding="utf-8")
    variant = (ROOT / SINK2).read_text(encoding="utf-8")
    base_lines, var_lines = base.splitlines(), variant.splitlines()
    if len(base_lines) != len(var_lines):
        return ["the two-sensor model has a different number of lines"]
    problems = []
    for b, v in zip(base_lines, var_lines):
        if b.startswith("big start ="):
            if v != b[: -len(");")] + SECOND_SENSOR:
                problems.append(f"start line is {v!r}")
        elif b != v:
            problems.append(f"line differs: {v!r}")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed:\n{proc.stdout}")
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] not in TIMED_UNITS and name != "trace.overhead_frac"
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = check_model()
    print(f"two-sensor model: {'ok' if not problems else '; '.join(problems)}")
    for name, wl in WORKLOADS.items():
        first = traced_counts(name, args.seed)
        again = traced_counts(name, args.seed)
        other = traced_counts(name, args.seed + 1)
        unstable = sorted(k for k in first if first[k] != again[k])
        moved = sorted(k for k in first if first[k] != other[k])
        print(f"{name}: same seed differs in {unstable or 'nothing'}; "
              f"seed {args.seed + 1} differs in {len(moved)} figures")
        if unstable:
            problems.append(f"{name} counts differ between same-seed runs")
        if bool(moved) != (wl.steps is not None):
            problems.append(f"{name}: unexpected effect of the seed: {moved}")
    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
