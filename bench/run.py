"""The bigrs benchmark: run one workload in fresh single-threaded child
interpreters, one at a time, check every output and print the metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are in ``workloads.py`` and the metric names and units in
``BENCHMARK.json``.  A run starts one unmeasured child to warm the
bytecode and file caches, then starts work children until ``--seconds``
have passed (at least one), then set-up-only children until there are
enough ``setup_s`` samples.  ``sink2-sim`` first builds the two-sensor
closure once, untimed, because its check needs the digest of every
reachable state.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
work children, times scaled to the machine's median speed (see
``CAL_REF_S``).  With ``--trace 1`` it alternates an untraced and a traced
child (see ``tracer.py``) and reports the per-layer metrics and the
tracing overhead; every traced child simulates with the same seed, so
their counts must agree.

Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit status 0
when the run completed, 1 when no child produced a measurement, 2 when
the engine's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SETUP_PHASES
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
DEADLINE_S = 170  # a run must finish within 180 s
SETUP_SAMPLES = 7
# one BLAS thread, so the child stays single-threaded on a 2-core machine
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# The machine is a shared VM whose speed for the same code wanders by
# 0.65-1.25x of its median within seconds to minutes, which gives plain
# wall times a 23-29% run-to-run spread.  Each child therefore times a
# fixed calibration kernel just before and just after its workload, and
# every end-to-end time is scaled by CAL_REF_S / (mean of the two), so it
# reads as seconds at a fixed reference speed.  CAL_REF_S is a constant
# near the kernel's median on a KVM guest with 2 vCPUs of an Intel Xeon
# at 2.1 GHz (0.140 s and 0.164 s in two sessions of a few hundred fresh
# interpreters).  The report prints the unscaled wall times too.
CAL_REF_S = 0.15
EXTRA_UNITS = {
    "wall_work_s": "s",
    "wall_total_s": "s",
    "calibration_s": "s",
    "build_s": "s",
    "analysis_s": "s",
    "export_s": "s",
    "sim_steps_per_s": "steps/s",
}


class Run:
    """The children of one benchmark run and what they reported."""

    def __init__(self, wl):
        self.wl = wl
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list = []
        self.digests: set | None = None

    def launch(self, role: str, sim_seed: int, traced: bool, counted=True):
        """Run one child to completion; returns its report, or None after
        recording why it failed."""
        cmd = [sys.executable, str(CHILD), role, self.wl.name, str(sim_seed),
               "1" if traced else "0"]
        env = dict(os.environ, **CHILD_ENV)
        self.attempted += counted
        launch = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                cmd + [repr(launch), str(OUT)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return self._fail(counted, f"{role} child timed out")
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return self._fail(counted, f"{role} child exited {proc.returncode}: {tail}")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self._fail(counted, f"{role} child printed no report")
        problems = self.check(role, report)
        if problems:
            return self._fail(counted, f"{role} child: " + "; ".join(problems))
        return report

    def _fail(self, counted: bool, why: str):
        if counted:
            self.failures.append(why)
        print(f"FAILED: {why}", file=sys.stderr)
        return None

    def check(self, role: str, r: dict) -> list:
        """Output checks that do not depend on state numbering."""
        wl, problems = self.wl, []
        if role == "closure" or (role == "work" and wl.builds):
            got = (r.get("states"), r.get("transitions"))
            if got != (wl.states, wl.transitions):
                problems.append(
                    f"{got[0]} states / {got[1]} transitions, "
                    f"expected {wl.states} / {wl.transitions}"
                )
        if role == "closure" and len(r.get("digests", ())) != wl.states:
            problems.append(f"{len(r.get('digests', ()))} distinct state digests")
        if role != "work":
            return problems
        if wl.query is not None:
            value = r.get("value")
            if value is None or abs(value - wl.value) > wl.rel_tol * abs(wl.value):
                problems.append(
                    f"{wl.query} = {value}, expected {wl.value} "
                    f"within {wl.rel_tol:g} relative"
                )
        if wl.export:
            e = r.get("export", {})
            want = {
                "tra_header": [wl.states, wl.transitions],
                "json_states": wl.states,
                "json_transitions": wl.transitions,
                "json_state_bigraphs": wl.states,
            }
            for field, value in want.items():
                if e.get(field) != value:
                    problems.append(f"export {field} is {e.get(field)}, expected {value}")
        if wl.steps is not None:
            steps = r.get("sim_digests", [])
            if len(steps) != wl.steps:
                problems.append(f"{len(steps)} trace steps, expected {wl.steps}")
            stray = [d for d in steps if d not in self.digests]
            if stray:
                problems.append(
                    f"{len(stray)} trace digests outside the closure, first {stray[0]}"
                )
        return problems


def _stats(values: list) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _sim_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def _speed(r: dict) -> float:
    """Factor that turns the child's wall seconds into seconds at the
    reference speed."""
    return CAL_REF_S / statistics.mean(r["calibration_s"])


def _setup_s(r: dict) -> float:
    return (r["phases"]["import"] + r["phases"]["load_model"]) * _speed(r)


def _end_to_end(wl, reports: list, setups: list) -> dict:
    """Samples per end-to-end metric, one per successful work child."""
    samples: dict = {"setup_s": setups}
    for r in reports:
        ph, f = r["phases"], _speed(r)
        work = sum(v for k, v in ph.items() if k not in SETUP_PHASES)
        rows = {
            "work_s": work * f,
            "total_s": r["total_s"] * f,
            "peak_rss_mb": r["peak_rss_mb"],
            "wall_work_s": work,
            "wall_total_s": r["total_s"],
            "calibration_s": statistics.mean(r["calibration_s"]),
        }
        if wl.builds:
            rows["build_s"] = ph["build"] * f
        if wl.query is not None:
            rows["analysis_s"] = ph["query"] * f
        if wl.export:
            rows["export_s"] = (ph["export_prism"] + ph["export_json"]) * f
        if wl.steps is not None:
            rows["sim_steps_per_s"] = len(r["sim_digests"]) / ph["simulate"] / f
        for k, v in rows.items():
            samples.setdefault(k, []).append(v)
    return samples


def _per_layer(traced: list, untraced: list) -> tuple:
    """Per-layer values (None where the layer was not called through) and
    whether the traced children's counts agree."""
    layers = [r["layers"] for r in traced]
    values: dict = {}
    agree = True
    for name, first in layers[0].items():
        column = [lr[name] for lr in layers]
        if first is None or isinstance(first, (list, str)):
            values[name] = first
        elif isinstance(first, int):
            agree &= all(v == first for v in column)
            values[name] = first
        else:
            values[name] = statistics.median(column)
    values["trace.overhead_frac"] = (
        statistics.median(r["total_s"] * _speed(r) for r in traced)
        / statistics.median(r["total_s"] * _speed(r) for r in untraced)
        - 1
    )
    return values, agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bigrs" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload]
    run = Run(wl)
    run.launch("setup", 0, False, counted=False)  # warm caches, unmeasured
    if wl.steps is not None:
        closure = run.launch("closure", 0, False)
        run.digests = set(closure["digests"]) if closure else set()

    reports, traced = [], []
    start = time.monotonic()
    i = 0
    while True:
        sim_seed = _sim_seed(args.seed, 0 if args.trace else i)
        r = run.launch("work", sim_seed, False)
        if r is not None:
            reports.append(r)
        if args.trace:
            r = run.launch("work", sim_seed, True)
            if r is not None:
                traced.append(r)
        i += 1
        if time.monotonic() - start >= args.seconds:
            break

    setups = [_setup_s(r) for r in reports]
    while not args.trace and len(setups) < SETUP_SAMPLES and reports:
        r = run.launch("setup", 0, False)
        if r is None:
            break
        setups.append(_setup_s(r))

    failed = len(run.failures)
    frac = failed / run.attempted
    print(
        f"workload {wl.name}  seed {args.seed}  trace {args.trace}: "
        f"{run.attempted} child runs, {failed} failed, failed_frac {frac:.4g} ratio"
    )
    for why in run.failures:
        print(f"  failure: {why}")
    if not reports or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        values, agree = _per_layer(traced, reports)
        declared = spec["per_layer"]
        _print_layers(values, agree, traced[-1])
    else:
        samples = _end_to_end(wl, reports, setups)
        values = {k: _stats(v)["median"] for k, v in samples.items()}
        declared = spec["end_to_end"]
        _print_end_to_end(samples, declared, frac)
    metrics = {
        m["name"]: {"value": values[m["name"]] or 0, "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_end_to_end(samples: dict, declared: list, frac: float) -> None:
    units = {m["name"]: m["unit"] for m in declared} | EXTRA_UNITS
    print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
    for name, values in samples.items():
        st = _stats(values)
        print(f"  {name:<18}{st['median']:>12.6g}{st['q1']:>12.6g}"
              f"{st['q3']:>12.6g}{st['n']:>4}  {units[name]}")
    print(f"  {'failed_frac':<18}{frac:>12.6g}{'':>28}  ratio")


def _print_layers(values: dict, agree: bool, last: dict) -> None:
    for name, value in values.items():
        if name.startswith("check.") or name == "trace.installed":
            continue
        shown = "not observed" if value is None else f"{value:.6g}"
        print(f"  {name:<38}{shown:>14}")
    spans = last["layers"]
    phases = sum(last["phases"].values())
    print(
        f"  spans: top-level phases {phases:.4f} s + untraced remainder "
        f"{spans['check.unaccounted_s']:.4f} s = total_s {last['total_s']:.4f} s; "
        "self times add up to the phases: "
        + ("yes" if not spans["check.problems"] else "; ".join(spans["check.problems"]))
    )
    print(f"  wrapped: {', '.join(spans['trace.installed'])}")
    if not agree:
        print("  WARNING: per-layer counts differ between traced runs of the same inputs")


if __name__ == "__main__":
    sys.exit(main())
