"""Random trace generation directly over concrete states (no state-space
closure).  Traces are reproducible from the seed; MDP action choice is
resolved uniformly at random among the applicable actions."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from .bigraph import lean
from .canon import canonical_key
from .system import SystemSpec, _step


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


def _pick(rng: random.Random, entries, total):
    x = rng.random() * float(total)
    acc = 0.0
    for entry in entries:
        acc += float(entry[3])
        if x < acc:
            return entry
    return entries[-1]


def simulate(spec: SystemSpec, steps: int, seed: int | None = None) -> list[TraceStep]:
    """Walk up to `steps` transitions from the initial state, one trace
    entry per applied step (fewer if a terminal state is hit first, empty
    for a zero step budget).  A pbrs state where no rule of positive
    weight applies, and an MDP action none of whose rules of positive
    weight applies, give a step that stays in place with no rule."""
    rng = random.Random(seed)
    g = lean(spec.initial)
    key = canonical_key(g)
    now = 0.0 if spec.kind == "sbrs" else None
    trace: list[TraceStep] = []
    for k in range(1, steps + 1):
        choices = _step(spec.kind, g, spec.rules, spec.actions)
        if not choices:
            break
        # MDP action choice is uniform; the other kinds have one choice
        if spec.kind == "abrs":
            action, entries = choices[rng.randrange(len(choices))]
        else:
            action, entries = choices[0]
        name = action.name if action else None
        if not entries:  # stay in place
            trace.append(TraceStep(k, _digest(key), None, name))
            continue
        if spec.kind == "brs":  # uniform over distinct rewrite results
            rule, key, g, _ = entries[rng.randrange(len(entries))]
        else:
            total = sum(e[3] for e in entries)
            if spec.kind == "sbrs":
                now += rng.expovariate(float(total))
            rule, key, g, _ = _pick(rng, entries, total)
        trace.append(TraceStep(k, _digest(key), rule, name, now))
    return trace
