"""One benchmark iteration in a fresh interpreter.

    python3 bench/child.py ROLE WORKLOAD SIM_SEED TRACE LAUNCH OUT_DIR

ROLE is ``setup`` (import ``bigrs`` and load the model), ``closure`` (also
build the state space and report the digest of every state, which the
simulation check needs) or ``work`` (the workload, with the same public
calls as ``bigrs full``, ``bigrs check`` or ``bigrs sim``).  LAUNCH is the
parent's CLOCK_MONOTONIC reading taken just before it started this
process, so ``total_s`` includes interpreter start-up.  With TRACE 1 the
layer functions are wrapped and per-layer figures are added.

The child also times a fixed calibration kernel just before it imports
``bigrs`` and just after the last workload output, on the same vCPU as
the workload; ``run.py`` uses the two readings to correct for the
machine's speed at that moment.  The first one is not part of
``total_s``.

Prints one JSON object on stdout.  Everything after the last workload
output is untimed: reading back outputs, the retained-size walk and
writing the spans file.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import types
from pathlib import Path

from tracer import Tracer
from workloads import ROOT, WORKLOADS


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel of dict, tuple and frozenset
    churn, the kind of work the engine does.  Its live data stays under
    1 MB, so it hardly moves the child's peak RSS, and the collector is
    off, so the workload's heap does not change its time."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(160):
            table = {}
            for i in range(2000):
                table[i, i % 13] = frozenset((i, i + 1))
            total = 0
            for key, value in table.items():
                total += len(value) + key[1]
        return time.perf_counter() - start
    finally:
        gc.enable()


def _digest(key: bytes) -> str:
    # the trace digest of `bigrs sim`: a 16-hex-digit hash of the state's
    # canonical form
    return hashlib.sha256(key).hexdigest()[:16]


def _deep_size(root, exclude) -> int:
    """Bytes of every object reachable from `root` and not from `exclude`
    (types, modules and functions are shared code, not retained data)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = set()
    stack = [exclude]
    while stack:  # mark what the model itself holds
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(obj, skip):
            seen.add(id(obj))
            stack.extend(gc.get_referents(obj))
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def _tra_header(ts, bigrs) -> list:
    return [int(x) for x in bigrs.render_tra(ts).split("\n", 1)[0].split()]


def main(argv) -> int:
    role, name, sim_seed, trace, launch, out_dir = argv[1:7]
    wl = WORKLOADS[name]
    out_dir = Path(out_dir)
    sys.path.insert(0, str(ROOT / "src"))
    cal_before = calibrate()
    tr = Tracer()
    with tr.phase("import"):
        import bigrs
    if trace == "1":
        tr.install()
    with tr.phase("load_model"):
        spec = bigrs.load_model(ROOT / wl.model)

    ts = trace_steps = None
    result: dict = {}
    if role == "closure" or (role == "work" and wl.builds):
        with tr.phase("build"):
            ts = bigrs.build_transition_system(spec)
    if role == "work" and wl.export:
        wl_dir = out_dir / name
        with tr.phase("export_prism"):
            bundle = bigrs.export_prism(ts, wl_dir, Path(wl.model).stem)
        with tr.phase("export_json"):
            json_path = bigrs.export_json(ts, wl_dir, Path(wl.model).stem)
    if role == "work" and wl.query:
        with tr.phase("query"):
            value = bigrs.run_query(ts, bigrs.parse_query(wl.query))
        result["value"] = value
    if role == "work" and wl.steps:
        with tr.phase("simulate"):
            trace_steps = bigrs.simulate(spec, wl.steps, int(sim_seed))
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["calibration_s"] = [cal_before, calibrate()]
    result["total_s"] = end - float(launch) - cal_before
    result["phases"] = tr.phase_times()

    # -- untimed from here on ---------------------------------------------
    if ts is not None:
        result["states"] = ts.n_states
        result["transitions"] = _tra_header(ts, bigrs)[-1]
    if role == "closure":
        result["digests"] = sorted({_digest(key) for key, _ in ts.states})
    if role == "work" and wl.export:
        tra = bundle.tra_file.read_text(encoding="utf-8").split("\n", 1)[0]
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        files = [p for p in bundle.manifest.values()] + [json_path]
        result["export"] = {
            "tra_header": [int(x) for x in tra.split()],
            "json_states": doc["states"],
            "json_transitions": len(doc["transitions"]),
            "json_state_bigraphs": len(doc["state_bigraphs"]),
            "bytes": sum(Path(p).stat().st_size for p in files),
        }
    if trace_steps is not None:
        result["sim_digests"] = [s.state_digest for s in trace_steps]
    if trace == "1":
        result["layers"] = _layers(tr, bigrs, wl, spec, ts, result)
        tr.write_spans(out_dir / f"spans-{name}.tsv")
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _layers(tr: Tracer, bigrs, wl, spec, ts, result) -> dict:
    """Per-layer figures of a traced work run.  A figure is None when its
    layer was not called through in this run ("not observed")."""
    agg = tr.aggregate()
    phases = tr.phase_times()

    def span(name):
        return agg["spans"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per(num, den, scale=1.0):
        return scale * num / den if den else None

    canon, occ, rw = span("canonical_key"), span("occurrences"), span("rewrite")
    has, arule = span("has_occurrence"), span("apply_rule_all")
    out = {
        "language.load_s": phases["load_model"],
        "language.rule_instances": len(spec.rules),
        "canon.canonical_key.calls": canon["calls"] or None,
        "canon.canonical_key.s": canon["s"] if canon["calls"] else None,
        "canon.canonical_key.us_per_call": per(canon["s"], canon["calls"], 1e6),
        "canon.key_bytes_mean": per(tr.key_bytes, canon["calls"]),
        "canon.repeat_ratio": per(tr.key_repeats, canon["calls"]),
        "matching.occurrences.calls": occ["calls"] or None,
        "matching.occurrences.s": occ["s"] if occ["calls"] else None,
        "matching.occurrences.hit_ratio": per(
            tr.work_count("occurrence_hits"), occ["calls"]
        ),
        "matching.rewrite.calls": rw["calls"] or None,
        "matching.rewrite.s": rw["s"] if rw["calls"] else None,
        "matching.rewrite.us_per_call": per(rw["s"], rw["calls"], 1e6),
        "matching.has_occurrence.calls": has["calls"] or None,
        "matching.has_occurrence.s": has["s"] if has["calls"] else None,
        "matching.apply_rule_all.self_s": (
            arule["self_s"] if arule["calls"] else None
        ),
        "bigraph.constructions": tr.work_count("bigraph"),
        "bigraph.constructions_per_rewrite": per(
            tr.work_count("bigraph"), rw["calls"]
        ),
        "system.build.self_s": None,
        "system.states": None,
        "system.transitions": None,
        "system.new_state_ratio": None,
        "system.retained_kb_per_state": None,
        "analysis.query.s": phases.get("query"),
        "analysis.entries": None,
        "analysis.sweeps": None,
        "analysis.entry_updates_per_s": None,
        "export.prism.s": phases.get("export_prism"),
        "export.json.s": phases.get("export_json"),
        "export.bytes": result.get("export", {}).get("bytes"),
        "simulate.steps": None,
        "simulate.revisit_ratio": None,
        "simulate.digest.s": None,
    }
    if ts is not None:
        out["system.build.self_s"] = span("build")["self_s"]
        out["system.states"] = ts.n_states
        out["system.transitions"] = result["transitions"]
        out["system.new_state_ratio"] = per(
            ts.n_states - 1, tr.counts["build", "outcomes"]
        )
        out["system.retained_kb_per_state"] = (
            _deep_size(ts, spec) / 1024 / ts.n_states
        )
    if "query" in phases:
        # value-iteration rounds of an unbounded query, else the horizon of
        # a bounded or cumulative one
        sweeps = sum(tr.reach_iterations) or bigrs.parse_query(wl.query).horizon
        out["analysis.entries"] = result["transitions"]
        out["analysis.sweeps"] = sweeps
        out["analysis.entry_updates_per_s"] = (
            sweeps * result["transitions"] / phases["query"]
        )
    steps = result.get("sim_digests")
    if steps is not None:
        seen: set = set()
        revisits = 0
        for d in steps:
            revisits += d in seen
            seen.add(d)
        out["simulate.steps"] = len(steps)
        out["simulate.revisit_ratio"] = per(revisits, len(steps))
        out["simulate.digest.s"] = agg["simulate_digest_s"]
    out["check.problems"] = agg["problems"]
    out["check.unaccounted_s"] = result["total_s"] - agg["phase_total_s"]
    out["trace.installed"] = tr.installed
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
