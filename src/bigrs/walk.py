"""Random trace generation directly over concrete states (no state-space
closure).  Traces are reproducible from the seed; MDP action choice is
resolved uniformly at random among the applicable actions, and a brs
step uniformly among the distinct successors.

Each distinct state is expanded (matched, rewritten and keyed by
`system._step`) at most once per trace.  The walk numbers states by
canonical key in discovery order (`ids`), and keeps for each expanded
state its choices in `rows`, free of bigraphs: for each entry of a
choice its rule, its successor's number and the running float sum of
the masses.  A state that has been seen but not yet expanded keeps one
concrete representative in `reps`, dropped when it is expanded.

This is sound because a trace depends on a state only through its key.
`_step` lists its entries in rule order and then successor-key order,
and each entry's occurrence count is invariant under isomorphism, so any
representative of a key gives the same choices, and the random
generator draws the same numbers in the same order.  A trace is
therefore a function of the model, the seed and the budget.  The memo
costs one row per expanded state, a few tuples per choice and one float
per entry, plus one `Bigraph` per state seen but not yet expanded."""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .bigraph import lean
from .canon import canonical_key
from .system import SystemSpec, _step, rule_dispatch


@dataclass
class TraceStep:
    """State reached at `step`, the rule (and action) that produced it, and
    the accumulated time for rate-based systems."""

    step: int
    state_digest: str
    rule: Optional[str] = None
    action: Optional[str] = None
    time: Optional[float] = None


def _digest(key: bytes) -> str:
    return hashlib.sha256(key).hexdigest()[:16]


def simulate(spec: SystemSpec, steps: int, seed: int | None = None) -> list[TraceStep]:
    """Walk up to `steps` transitions from the initial state, one trace
    entry per applied step (fewer if a terminal state is hit first, empty
    for a zero step budget).  A pbrs state where no rule of positive
    weight applies, and an MDP action none of whose rules of positive
    weight applies, give a step that stays in place with no rule.  A brs
    step records the first rule, in rule order, that yields the chosen
    successor."""
    kind = spec.kind
    dispatch = rule_dispatch(spec.rules, spec.actions)
    rng = random.Random(seed)
    ids: dict[bytes, int] = {}  # canonical key -> state number
    digests: list[str] = []  # state number -> digest of its key
    rows: list = []  # state number -> choices, None until expanded
    reps: dict = {}  # state number -> Bigraph, until expanded

    def number(key: bytes, g) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(digests)
            digests.append(_digest(key))
            rows.append(None)
            reps[i] = g
        return i

    def expand(i: int) -> tuple:
        """State i's choices as (action name, rules, successor numbers,
        total mass, running sums of the masses).  The total is the float
        of the exact sum and the running sums add the masses as floats in
        entry order; a draw x picks the first entry whose sum exceeds x."""
        row = []
        for action, entries in _step(kind, reps.pop(i), dispatch, spec.actions):
            if kind == "brs":  # one entry per distinct successor
                first: dict = {}
                for e in entries:
                    first.setdefault(e[1], e)
                entries = list(first.values())
            row.append((
                action.name if action else None,
                tuple(e[0] for e in entries),
                tuple([number(key, succ) for _, key, succ, _ in entries]),
                float(sum(e[3] for e in entries)),
                tuple(accumulate(float(e[3]) for e in entries)),
            ))
        return tuple(row)

    g = lean(spec.initial)
    here = number(canonical_key(g), g)
    now = 0.0 if kind == "sbrs" else None
    trace: list[TraceStep] = []
    for k in range(1, steps + 1):
        row = rows[here]
        if row is None:
            row = rows[here] = expand(here)
        if not row:
            break
        # MDP action choice is uniform; the other kinds have one choice
        choice = row[rng.randrange(len(row))] if kind == "abrs" else row[0]
        name, rules, succs, total, sums = choice
        if not succs:  # stay in place
            trace.append(TraceStep(k, digests[here], None, name))
            continue
        if kind == "brs":
            i = rng.randrange(len(succs))
        else:
            if kind == "sbrs":
                now += rng.expovariate(total)
            # the first successor whose running sum exceeds the draw
            x = rng.random() * total
            i = min(bisect_right(sums, x), len(succs) - 1)
        rule, here = rules[i], succs[i]
        trace.append(TraceStep(k, digests[here], rule, name, now))
    return trace
