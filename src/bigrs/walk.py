"""Random trace generation directly over concrete states (no state-space
closure).  Traces are reproducible from the seed; MDP action choice is
resolved uniformly at random among the applicable actions, and a brs
step uniformly among the distinct successors.

The walk keeps its states in a `system.StateStore`, which numbers the
initial state 0, and expands each distinct state at most once per
trace.  For each expanded state it keeps its choices, free of bigraphs:
for each entry of a choice its rule, its successor's number and the
running float sum of the masses.
A state is a flat form (`canon.Form`), made by `canon.form_of` or a
rewrite's splice and checked by the `Form` constructor, so every state a
trace reports is checked, expanded or not.  The walk builds no `Bigraph`.

This is sound because a trace depends on a state only through its key.
`_step` lists its entries in rule order and then successor-key order,
and each entry's occurrence count is invariant under isomorphism, so any
representative of a key gives the same choices, and the random
generator draws the same numbers in the same order.  A trace is
therefore a function of the model, the seed and the budget."""

from __future__ import annotations

import hashlib
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .system import StateStore, SystemSpec, check_doubles


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


def _scaled(masses: list, total) -> list:
    """Masses that count only by their ratios (pbrs, abrs) times
    2^-e, for e the binary exponent of their exact total, when the
    total's double is not a normal double: beyond the double range, or
    so small that it is subnormal or 0.  The scaled total lies between
    1/2 and 2.  Masses whose total is a normal double come back as they
    are, so their running sums and draws do not change."""
    try:
        if float(total) >= sys.float_info.min:
            return masses
    except OverflowError:
        pass
    total = Fraction(total)
    e = total.numerator.bit_length() - total.denominator.bit_length()
    scale = Fraction(2) ** -e
    return [m * scale for m in masses]


def simulate(spec: SystemSpec, steps: int, seed: int | None = None) -> list[TraceStep]:
    """Walk up to `steps` transitions from the initial state, one trace
    entry per applied step (fewer if a terminal state is hit first, empty
    for a zero step budget).  A pbrs state where no rule of positive
    weight applies, and an MDP action none of whose rules of positive
    weight applies, give a step that stays in place with no rule.  A brs
    step records the first rule, in rule order, that yields the chosen
    successor."""
    kind = spec.kind
    store = StateStore(spec)
    rng = random.Random(seed)
    rows: dict = {}  # state number -> its choices, once expanded
    digests: dict = {}  # state number -> digest of its key, once reached

    def expand(i: int) -> tuple:
        """State i's choices as (action name, rules, successor numbers,
        total mass, running sums of the masses).  The total is the float
        of the exact sum and the running sums add the masses as floats in
        entry order; a draw x picks the first entry whose sum exceeds x.
        As in the closure, the masses of one successor are merged before
        they are checked: an sbrs rate beyond or below the double range is
        refused, and so is a pbrs or abrs choice with an exact probability
        (merged mass / total) below it.  The masses themselves are brought
        into the range by `_scaled`."""
        row = []
        for action, entries in store.expand(i):
            if kind == "brs":  # one entry per distinct successor
                first: dict = {}
                for e in entries:
                    first.setdefault(e[1], e)
                entries = list(first.values())
            masses = [e[2] for e in entries]
            if kind != "brs" and masses:
                merged: dict = {}
                for _, j, m in entries:
                    merged[j] = merged[j] + m if j in merged else m
                if kind == "sbrs":
                    check_doubles(f"state {i}", "rate", list(merged.values()))
                else:
                    total = sum(masses)
                    # the least probability is the one that can round to 0
                    check_doubles(f"state {i}", "probability",
                                  [min(merged.values()) / total])
                    masses = _scaled(masses, total)
            row.append((
                action.name if action else None,
                tuple(e[0] for e in entries),
                tuple(e[1] for e in entries),
                float(sum(masses)),
                tuple(accumulate(map(float, masses))),
            ))
        return tuple(row)

    here = 0  # the store's number of the initial state
    now = 0.0 if kind == "sbrs" else None
    trace: list[TraceStep] = []
    for k in range(1, steps + 1):
        row = rows.get(here)
        if row is None:
            row = rows[here] = expand(here)
        if not row:
            break
        # MDP action choice is uniform; the other kinds have one choice
        choice = row[rng.randrange(len(row))] if kind == "abrs" else row[0]
        name, rules, succs, total, sums = choice
        rule = None  # a choice with no successors stays in place
        if succs:
            if kind == "brs":
                i = rng.randrange(len(succs))
            else:
                if kind == "sbrs":
                    now += rng.expovariate(total)
                # the first successor whose running sum exceeds the draw
                x = rng.random() * total
                i = min(bisect_right(sums, x), len(succs) - 1)
            rule, here = rules[i], succs[i]
        if here not in digests:
            digests[here] = _digest(store.keys[here])
        trace.append(TraceStep(k, digests[here], rule, name, now))
    return trace
