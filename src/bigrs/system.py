"""Transition systems over ground bigraph states.

Builds the reachable state space of a declared system by breadth-first
closure from the initial state, deduplicating states by canonical key.
Every state's row is a list of choices, as in an MDP:

* kind ``brs``   -- one choice of the plain successors,
* kind ``pbrs``  -- one choice, the weight-normalized distribution (DTMC),
* kind ``sbrs``  -- one choice of rates, rate * occurrence count (CTMC),
* kind ``abrs``  -- one distribution per applicable action, normalized
  within the action (MDP).

Probabilities are exact rationals end to end; they become floats only at
export time.

The closure and the simulator (`bigrs.walk`) keep their states in one
`StateStore`: canonical key -> discovery number, and the flat form
(`canon.Form`) first seen for each number.  The store makes the initial
state's form and key itself and numbers it 0.  A form is made by
`canon.form_of` (the initial state) or by the splice of a rewrite
(`matching._splice`), and checked by the `Form` constructor, so every
state that is numbered has passed that check.  `_step` and the labeller
read forms.  Expanding a state runs `_step` on its form and gives back
choices over successor numbers, and the store then drops the form.  The
closure keeps each state as a `canon.KeptState` of its form's arrays,
whose `bigraph()` builds the state's `Bigraph` on demand.  Beyond `lean`
of the initial state, neither the closure nor the walk builds a `Bigraph`.
The closure makes each row once, a BFS level at a time, in the form that
the `TransitionSystem` constructor keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Mapping

from .bigraph import Bigraph, BigraphError, lean, require_solid
from .canon import Form, KeptState, canonical_key, form_of
from .matching import (
    Dispatch,
    apply_rule_all,
    has_occurrence,
    pattern_plan,
    redex_plan,
)

KINDS = ("brs", "pbrs", "sbrs", "abrs")


class SystemError_(BigraphError):
    pass


class DoubleRangeError(SystemError_):
    """A rate, a total of rates, a probability or a reward beyond the
    double range, or a nonzero one whose double is 0."""


class StateCapError(SystemError_):
    """Raised when the closure hits the state cap; carries the truncated
    system (rows of unexpanded states are filled with terminal rows and
    ``complete`` is False)."""

    def __init__(self, msg: str, partial: "TransitionSystem"):
        super().__init__(msg)
        self.partial = partial


@dataclass(frozen=True)
class WeightedRule:
    """A reaction rule with a nonnegative weight (pbrs/abrs) or rate (sbrs).

    The redex must be solid and both sides must share one interface; rules
    with weight 0 are never applied.
    """

    name: str
    redex: Bigraph
    reactum: Bigraph
    weight: Fraction

    def __post_init__(self):
        require_solid(self.redex, f"redex of rule {self.name}")
        if (
            self.redex.inner != self.reactum.inner
            or self.redex.outer != self.reactum.outer
        ):
            raise SystemError_(
                f"rule {self.name}: redex {self.redex.inner}->{self.redex.outer} "
                f"and reactum {self.reactum.inner}->{self.reactum.outer} "
                "must have the same interface"
            )
        if self.weight < 0:
            raise SystemError_(f"rule {self.name}: negative weight")


@dataclass(frozen=True)
class ActionDecl:
    """A named non-empty set of weighted rules; choosing the action enables
    exactly those rewrites.  The same rule may appear in several actions."""

    name: str
    rules: tuple
    reward: Fraction = Fraction(0)

    def __post_init__(self):
        if not self.rules:
            raise SystemError_(f"action {self.name}: empty rule set")
        if self.reward < 0:
            raise SystemError_(f"action {self.name}: negative reward")


@dataclass(frozen=True)
class PredicateDecl:
    """A solid pattern labelling every state it occurs in, with an optional
    state reward contribution."""

    name: str
    pattern: Bigraph
    reward: Fraction = Fraction(0)

    def __post_init__(self):
        require_solid(self.pattern, f"predicate {self.name}")
        if self.reward < 0:
            raise SystemError_(f"predicate {self.name}: negative reward")


@dataclass(frozen=True)
class SystemSpec:
    """A fully elaborated system: the engine-facing contract of a model."""

    kind: str
    signature: Mapping  # control name -> ControlDecl
    initial: Bigraph
    rules: tuple
    actions: tuple = ()
    predicates: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SystemError_(f"unknown system kind {self.kind!r}")
        if not self.initial.is_ground():
            raise SystemError_("initial bigraph must be ground")
        if self.kind == "abrs":
            if not self.actions:
                raise SystemError_("an abrs needs at least one action")
            in_actions = {r.name for a in self.actions for r in a.rules}
            loose = [r.name for r in self.rules if r.name not in in_actions]
            if loose:
                raise SystemError_(
                    f"abrs rules outside every action: {', '.join(loose)}"
                )
        elif self.actions:
            raise SystemError_(f"kind {self.kind} does not take actions")


@dataclass
class TransitionSystem:
    """Canonical states, indexed rows, labels and rewards of a built system.

    Every row, whatever the kind, is a list of choices ``(action name or
    None, {successor index: mass})``; an empty row is terminal.  A pbrs
    row has exactly one choice, a probability distribution (the delta on
    the state itself when no rule of positive weight applies).  An abrs
    row has one distribution per applicable action.  An sbrs row has at
    most one choice, holding the rates, and a brs row at most one, with
    mass 1 per successor.  State 0 is the initial state's class.

    The constructor checks every row: a choice is non-empty, over states,
    with positive masses; a pbrs or abrs choice has mass exactly 1 (within
    1e-12 for floats), and its probabilities, or an sbrs choice's rates
    and their total, are doubles, none of them with the double 0.
    Rewards are held to the same range (`DoubleRangeError` otherwise).
    Choices are stored by action name and entries by successor index,
    except that a brs keeps its given order (canonical-key order in a
    built system).  Only a row out of that order is copied, never a
    closure-built one; the caller's list is not changed.  Absent labels
    and rewards are filled with empty and zero values.
    """

    kind: str
    states: list  # (canonical key, KeptState)
    rows: list
    labels: list = field(default_factory=list)
    label_names: tuple = ()  # the declared label universe
    state_reward: list = field(default_factory=list)
    action_reward: list = field(default_factory=list)  # name -> reward
    complete: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SystemError_(f"unknown system kind {self.kind!r}")
        n = len(self.states)
        self.rows = list(self.rows)
        self.labels = self.labels or [frozenset()] * n
        self.state_reward = self.state_reward or [Fraction(0)] * n
        self.action_reward = self.action_reward or [{}] * n
        for what in ("rows", "labels", "state_reward", "action_reward"):
            if len(getattr(self, what)) != n:
                raise SystemError_(f"{len(getattr(self, what))} {what} for {n} states")
        by_index = self.kind != "brs"
        for i, row in enumerate(self.rows):
            if self.kind == "pbrs" and len(row) != 1 or (
                self.kind in ("brs", "sbrs") and len(row) > 1
            ):
                raise SystemError_(
                    f"state {i}: a {self.kind} row has {len(row)} choices"
                )
            for _, entries in row:
                _check_choice(self.kind, i, entries, n)
            if any(a > b for (a, _), (b, _) in pairwise(row)) or by_index and any(
                j > k for _, es in row for j, k in pairwise(es)
            ):
                self.rows[i] = [
                    (name, dict(sorted(entries.items())) if by_index else entries)
                    for name, entries in sorted(row, key=lambda c: c[0])
                ]
        for i, r in enumerate(self.state_reward):
            check_doubles(i, "state reward", (r,))
        for i, per in enumerate(self.action_reward):
            for name, r in per.items():
                check_doubles(i, f"reward of action {name}", (r,))

    @property
    def n_states(self) -> int:
        return len(self.states)

    def states_with_label(self, label: str) -> list:
        return [i for i, ls in enumerate(self.labels) if label in ls]

    def transitions(self):
        """Every transition as (src, action name or None, dst, probability
        or rate or None), in row order: sources ascending, then choices,
        then entries.  A brs transition carries no number."""
        numbered = self.kind != "brs"
        for i, row in enumerate(self.rows):
            for name, entries in row:
                for j, p in entries.items():
                    yield i, name, j, p if numbered else None


def check_doubles(i: int, what: str, values) -> None:
    """Raise `DoubleRangeError`, naming state i, unless each of the values
    and their sum are doubles and no nonzero value's double is 0."""
    try:
        doubles = list(map(float, values))
        math.fsum(doubles)
    except OverflowError:
        raise DoubleRangeError(f"state {i}: {what} beyond the double range") from None
    if any(v and not d for v, d in zip(values, doubles)):
        raise DoubleRangeError(f"state {i}: {what} below the double range")


def _check_choice(kind: str, i: int, entries: dict, n: int) -> None:
    """A choice of state i is non-empty, over successors 0..n-1, with
    positive masses, summing to one for a pbrs or abrs (exactly for
    rationals, within 1e-12 for floats).  Its probabilities (pbrs, abrs)
    or rates (sbrs) and their total are doubles, none with the double 0."""
    if not entries:
        raise SystemError_(f"state {i}: empty choice")
    for j in entries:
        if not 0 <= j < n:
            raise SystemError_(f"state {i}: successor {j} is not one of {n} states")
    if any(m <= 0 for m in entries.values()):
        raise SystemError_(f"state {i}: choice entries must be positive")
    if kind == "sbrs":
        check_doubles(i, "rate", entries.values())
    if kind in ("pbrs", "abrs"):
        total = sum(entries.values())
        if isinstance(total, Fraction):
            ok = total == 1
        else:
            ok = abs(total - 1) <= 1e-12
        if not ok:
            raise SystemError_(f"state {i}: choice mass is {total}, not 1")
        check_doubles(i, "probability", entries.values())


# ---------------------------------------------------------------------------
# the step kernel, the labeller and the state store
# ---------------------------------------------------------------------------


def rule_dispatch(rules=(), actions=()) -> Dispatch:
    """The rules `_step` may offer a state, indexed by control: `rules`,
    or when there are actions the rules of every action, the first of
    each name.  Built once per rule list by the caller that owns it."""
    if actions:
        pool: dict = {}
        for a in actions:
            for rule in a.rules:
                pool.setdefault(rule.name, rule)
        rules = pool.values()
    rules = tuple(rules)
    return Dispatch(rules, [redex_plan(rule.redex) for rule in rules])


def _step(kind: str, g: Form, rules: Dispatch, actions=()) -> list:
    """The choices at state g as (action or None, entries): one per
    applicable action of an abrs, in declaration order, and at most one
    for the other kinds.  An entry is (rule name, successor key,
    successor's form, weight * occurrence count), in rule order and then
    key order; weight-0 rules give none, and brs ignores weights.

    `rules` is the `rule_dispatch` of the system's rules, or of the
    actions' rules for an abrs.  It is asked once which rules g has the
    controls for, and only those reach `apply_rule_all`.  Any other rule
    has no occurrence at g, and counts as an empty result: it gives no
    entries and does not make its action applicable.

    An empty list means g is terminal.  A choice with no entries means
    "stay at g": a pbrs state where no rule of positive weight applies,
    or an applicable action none of whose rules of positive weight does.
    """
    # rule name -> apply_rule_all result, None until computed; a rule
    # missing here is not a candidate at g
    outcomes: dict = dict.fromkeys(r.name for r in rules.candidates(g))

    def entries(rule_list) -> list:
        out = []
        for rule in rule_list:
            if rule.name not in outcomes:
                continue
            outs = outcomes[rule.name]
            if outs is None:
                outs = outcomes[rule.name] = apply_rule_all(g, rule)
            w = 1 if kind == "brs" else rule.weight
            if outs and w:
                out.extend(
                    (rule.name, o.key, o.form, w * o.count) for o in outs
                )
        return out

    if kind == "abrs":
        choices = [(a, entries(a.rules)) for a in actions]
        return [(a, es) for a, es in choices
                if any(outcomes.get(r.name) for r in a.rules)]
    es = entries(rules.items)
    return [(None, es)] if es or kind == "pbrs" else []


def labeller(predicates):
    """A function giving a state its (labels, state reward): the predicates
    occurring in it and the sum of their rewards.  The predicates are
    indexed by control once; a state is searched only for those it has
    the controls for."""
    preds = Dispatch(predicates, [pattern_plan(p.pattern) for p in predicates])

    def label(g: Form) -> tuple:
        sat = [p for p in preds.candidates(g) if has_occurrence(p.pattern, g)]
        return frozenset(p.name for p in sat), sum((p.reward for p in sat), Fraction(0))

    return label


class StateStore:
    """The states of a closure or a walk, numbered as they are found from
    the initial state, number 0; see the module docstring."""

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.rules = rule_dispatch(spec.rules, spec.actions)
        self.number: dict = {}  # canonical key -> discovery number
        self.keys: list = []  # discovery number -> canonical key
        self.forms: list = []  # discovery number -> Form, None once expanded
        init = form_of(lean(spec.initial))
        self.add(canonical_key(init), init)

    def add(self, key: bytes, form: Form) -> int:
        """The number of the state with this key, its form kept if the key
        is new."""
        if key not in self.number:
            self.number[key] = len(self.keys)
            self.keys.append(key)
            self.forms.append(form)
        return self.number[key]

    def expand(self, i: int) -> list:
        """State i's choices as (action or None, [(rule name, successor
        number, mass)]), in `_step`'s order; its form is dropped."""
        form, self.forms[i] = self.forms[i], None
        choices = _step(self.spec.kind, form, self.rules, self.spec.actions)
        return [(a, [(r, self.add(k, succ), m) for r, k, succ, m in es])
                for a, es in choices]


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def build_transition_system(
    spec: SystemSpec, max_states: int = 1_000_000
) -> TransitionSystem:
    """Breadth-first fixed-point closure from the initial state.

    States are deduplicated by canonical key and numbered by BFS level,
    each level in key order, which is the order they are expanded in.
    At the cap, the first states of the last level are kept unexpanded
    (see docs/formats.md).  Each kept state is labelled once, before its
    expansion, which then reuses the control index the labeller built.
    A level's rows are made once, when the next level is numbered; equal
    label sets, rewards and action-reward maps are one object each.
    """
    if max_states <= 0:
        raise SystemError_("state cap must be positive")
    store = StateStore(spec)
    label = labeller(spec.predicates)
    reward_of = {a.name: a.reward for a in spec.actions}
    export: list = [0]  # discovery number -> export number, None past the cap
    states: list = []  # export number -> (key, KeptState)
    rows, labels, state_reward, action_reward = [], [], [], []
    same: dict = {}  # a label set, reward or action-reward map -> one object
    truncated = False
    level = [0]
    while level:
        expanded = []  # the level's choices over discovery numbers
        for i in level:
            form = store.forms[i]
            states.append((store.keys[i], KeptState(form)))
            ls, r = label(form)
            labels.append(same.setdefault(ls, ls))
            state_reward.append(same.setdefault(r, r))
            expanded.append(None if truncated else store.expand(i))
        level = sorted(range(len(export), len(store.keys)), key=store.keys.__getitem__)
        if len(states) + len(level) > max_states:
            truncated = True
            del level[max_states - len(states):]
        export += [None] * (len(store.keys) - len(export))
        for n, j in enumerate(level, len(states)):
            export[j] = n
        for n, choices in enumerate(expanded, len(rows)):
            rows.append(_row(spec.kind, n, choices, export, store.keys))
            per = {a: reward_of[a] for a, _ in rows[n] if a in reward_of}
            action_reward.append(same.setdefault(tuple(per.items()), per))
    ts = TransitionSystem(
        kind=spec.kind,
        states=states,
        rows=rows,
        labels=labels,
        label_names=tuple(p.name for p in spec.predicates),
        state_reward=state_reward,
        action_reward=action_reward,
        complete=not truncated,
    )
    if truncated:
        raise StateCapError(
            f"state cap of {max_states} states exceeded; result truncated",
            ts,
        )
    return ts


def _row(kind: str, n: int, choices, export: list, keys: list) -> list:
    """Row n from its choices over discovery numbers, in stored order; an
    sbrs choice sums the rates, a pbrs or abrs choice is normalized (the
    delta on n if empty).  A row never expanded (choices None), or leading
    past the cap, is terminal: the delta for a pbrs, empty otherwise."""
    if choices is None or any(export[j] is None for _, es in choices for _, j, _ in es):
        return [(None, {n: Fraction(1)})] if kind == "pbrs" else []

    def entries(es) -> dict:
        if kind == "brs":
            succs = sorted({j for _, j, _ in es}, key=keys.__getitem__)
            return dict.fromkeys((export[j] for j in succs), 1)
        masses: dict = {}
        for j, m in sorted((export[j], m) for _, j, m in es):
            masses[j] = masses[j] + m if j in masses else m
        if kind == "sbrs":
            return masses
        total = sum(masses.values())
        return {j: m / total for j, m in masses.items()} if total else {n: Fraction(1)}

    return sorted(((a and a.name, entries(es)) for a, es in choices),
                  key=lambda c: c[0])
