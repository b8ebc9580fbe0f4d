"""Command-line front door.

Subcommands:

* ``validate <model>`` -- parse and elaborate, report problems.
* ``full <model> [--max-states N] [--out DIR] [--format prism|dot|json]
  [--rewards-as-states]`` -- build the transition system and export it;
  ``--rewards-as-states`` needs the prism format.
* ``check <model> --query "<query>" [--max-states N]`` -- build and answer
  one query (see `bigrs.analysis` for the query fragment).  The state
  cap N of ``full`` and ``check`` must be >= 1.
* ``sim <model> --steps N [--seed S]`` -- print a random trace of N >= 0
  steps as JSON lines.

Exit status: 0 on success, 1 on model errors, 2 on usage errors.
The ``BIGRS_OUT_DIR`` environment variable sets the default output
directory for ``full``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis import parse_query, run_query
from .bigraph import BigraphError
from .export import export_dot, export_json, export_prism
from .language import load_model
from .walk import simulate
from .system import build_transition_system


def _int_from(least: int):
    """An argparse type accepting the integers >= `least`."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = least - 1
        if n < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}"
            )
        return n

    return parse


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bigrs",
        description="Bigraphical reactive systems: build, analyze, export.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and elaborate a model")
    p.add_argument("model")

    p = sub.add_parser("full", help="build the full transition system")
    p.add_argument("model")
    p.add_argument("--max-states", type=_int_from(1), default=1_000_000)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument(
        "--format", choices=("prism", "dot", "json"), default="prism"
    )
    p.add_argument(
        "--rewards-as-states",
        action="store_true",
        help="fold MDP action rewards into successor-state rewards",
    )

    p = sub.add_parser("check", help="answer a query on a model")
    p.add_argument("model")
    p.add_argument("--query", required=True)
    p.add_argument("--max-states", type=_int_from(1), default=1_000_000)

    p = sub.add_parser("sim", help="random trace")
    p.add_argument("model")
    p.add_argument("--steps", type=_int_from(0), required=True)
    p.add_argument("--seed", type=int, default=None)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "full" and args.rewards_as_states and args.format != "prism":
        parser.error("--rewards-as-states applies to --format prism only")
    try:
        return _dispatch(args)
    except BigraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    spec = load_model(args.model)
    stem = Path(args.model).stem

    if args.command == "validate":
        print(
            f"{args.model}: {spec.kind}, {len(spec.rules)} rule(s), "
            f"{len(spec.actions)} action(s), {len(spec.predicates)} predicate(s)"
        )
        return 0

    if args.command == "full":
        ts = build_transition_system(spec, max_states=args.max_states)
        out_dir = args.out or os.environ.get("BIGRS_OUT_DIR") or "."
        if args.format == "prism":
            bundle = export_prism(
                ts, out_dir, stem, rewards_as_states=args.rewards_as_states
            )
            for role, path in sorted(bundle.manifest.items()):
                print(f"{role}: {path}")
        elif args.format == "dot":
            print(f"dot: {export_dot(ts, out_dir, stem)}")
        else:
            print(f"json: {export_json(ts, out_dir, stem)}")
        print(f"states: {ts.n_states}")
        return 0

    if args.command == "check":
        query = parse_query(args.query)
        ts = build_transition_system(spec, max_states=args.max_states)
        value = run_query(ts, query)
        print(f"{value:.10g}")
        return 0

    # sim
    for step in simulate(spec, args.steps, args.seed):
        doc = {"step": step.step, "state": step.state_digest}
        if step.rule is not None:
            doc["rule"] = step.rule
        if step.action is not None:
            doc["action"] = step.action
        if step.time is not None:
            doc["time"] = step.time
        print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
