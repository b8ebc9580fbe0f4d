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
The closure makes each row once, a BFS level at a time, and writes it
into the system's `TransitionStore`, the one packed form of the rows.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
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


class TransitionStore(Sequence):
    """The rows of a transition system, packed into arrays of C ints that
    numpy can view in place:

    * ``choice_at`` -- per state, the index of its first choice, then the
      number of choices;
    * ``action`` -- per choice, the index of its action name (or None) in
      ``names``;
    * ``entry_at`` -- per choice, the index of its first entry, then the
      number of entries;
    * ``succ`` and ``mass`` -- per entry, the successor and the index of
      its mass in ``masses``, the distinct exact masses in order of first
      use, whose doubles are ``doubles``.  Equal masses are one, the
      first given.

    Read as a sequence, it is read-only: row i is made afresh on each
    read as a list of choices ``(action name or None, {successor:
    mass})``, and the rows compare equal to lists of such rows.  `add` is
    the one writer, and checks each row before it appends it.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.choice_at = array("i", [0])
        self.action = array("i")
        self.entry_at = array("i", [0])
        self.succ = array("i")
        self.mass = array("i")
        self.names: list = []
        self.masses: list = []
        self.doubles = array("d")
        self._index: dict = {}  # a mass's integer ratio -> its index in masses
        self._what = {"sbrs": "rate", "brs": "mass"}.get(kind, "probability")

    def add(self, row, n: int) -> None:
        """Append `row`, choices in stored order, as the row of state
        i = len(self).  A pbrs row has one choice, a brs or sbrs row at
        most one, and each choice is non-empty, over successors 0..n-1,
        with positive masses summing to one for a pbrs or abrs (exactly
        for rationals, within 1e-12 for floats).  Each mass, a rate
        (sbrs) or a probability (pbrs, abrs), and an sbrs choice's total
        are doubles, none with the double 0.  A mass is checked once, when
        first seen."""
        i, kind = len(self), self.kind
        if kind == "pbrs" and len(row) != 1 or kind in ("brs", "sbrs") and len(row) > 1:
            raise SystemError_(f"state {i}: a {kind} row has {len(row)} choices")
        packed = []
        for name, entries in row:
            if not entries:
                raise SystemError_(f"state {i}: empty choice")
            for j in entries:
                if not 0 <= j < n:
                    raise SystemError_(f"state {i}: successor {j} is not one of {n} states")
            try:
                ratios = [m.as_integer_ratio() for m in entries.values()]
            except (ValueError, OverflowError):
                raise DoubleRangeError(f"state {i}: {self._what} is not finite") from None
            ks = list(map(self._index.get, ratios))
            if None in ks:
                ks = list(map(self._intern, [i] * len(ratios), entries.values(), ratios))
            if kind == "sbrs":
                check_doubles(i, "rate", [self.doubles[k] for k in ks])
            elif kind != "brs":
                total = sum(entries.values())
                if not (total == 1 if isinstance(total, Fraction)
                        else abs(total - 1) <= 1e-12):
                    raise SystemError_(f"state {i}: choice mass is {total}, not 1")
            packed.append((name, entries, ks))
        for name, entries, ks in packed:
            if name not in self.names:
                self.names.append(name)
            self.action.append(self.names.index(name))
            self.succ.extend(entries)
            self.mass.extend(ks)
            self.entry_at.append(len(self.succ))
        self.choice_at.append(len(self.action))

    def _intern(self, i: int, m, ratio: tuple) -> int:
        """The index of mass m, of the given integer ratio, first seen at
        state i; appended if new."""
        k = self._index.get(ratio)
        if k is None:
            if m <= 0:
                raise SystemError_(f"state {i}: choice entries must be positive")
            check_doubles(i, self._what, (m,))
            k = self._index[ratio] = len(self.masses)
            self.masses.append(m)
            self.doubles.append(float(m))
        return k

    def __len__(self) -> int:
        return len(self.choice_at) - 1

    def span(self, i: int) -> tuple[int, int]:
        """The positions in ``succ`` and ``mass`` of state i's entries,
        as (first, end), over all its choices."""
        return self.entry_at[self.choice_at[i]], self.entry_at[self.choice_at[i + 1]]

    def successors(self, i: int) -> array:
        """The successors of all state i's choices, a slice of ``succ``."""
        lo, hi = self.span(i)
        return self.succ[lo:hi]

    def choices(self, i: int) -> list:
        """State i's choices as (action name or None, successors, mass
        indices), the last two slices of ``succ`` and ``mass``."""
        e = self.entry_at
        return [(self.names[self.action[c]], self.succ[e[c]:e[c + 1]],
                 self.mass[e[c]:e[c + 1]])
                for c in range(self.choice_at[i], self.choice_at[i + 1])]

    def entries(self):
        """Every entry as (state, action name or None, successor, mass
        index), in stored order."""
        for i in range(len(self)):
            for name, js, ks in self.choices(i):
                for j, k in zip(js, ks):
                    yield i, name, j, k

    def __getitem__(self, i: int) -> list:
        masses = self.masses
        return [(name, {j: masses[k] for j, k in zip(js, ks)})
                for name, js, ks in self.choices(range(len(self))[i])]

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


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

    ``rows`` is a `TransitionStore`.  Given one of this kind, as the
    closure and `dataclasses.replace` do, the constructor keeps it after
    checking that its successors are states.  Given any other sequence of
    rows, it packs them with `TransitionStore.add`, which checks each
    one, and leaves the caller's list and rows unchanged.  Rewards are
    held to the double range (`DoubleRangeError` otherwise).  Choices are
    stored by action name and entries by successor index, except that a
    brs keeps its given order (canonical-key order in a built system).
    Absent labels and rewards are filled with empty and zero values.
    """

    kind: str
    states: list  # (canonical key, KeptState)
    rows: Sequence  # a TransitionStore once constructed
    labels: list = field(default_factory=list)
    label_names: tuple = ()  # the declared label universe
    state_reward: list = field(default_factory=list)
    action_reward: list = field(default_factory=list)  # name -> reward
    complete: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SystemError_(f"unknown system kind {self.kind!r}")
        n = len(self.states)
        self.labels = self.labels or [frozenset()] * n
        self.state_reward = self.state_reward or [Fraction(0)] * n
        self.action_reward = self.action_reward or [{}] * n
        for what in ("rows", "labels", "state_reward", "action_reward"):
            if len(getattr(self, what)) != n:
                raise SystemError_(f"{len(getattr(self, what))} {what} for {n} states")
        given = self.rows
        if isinstance(given, TransitionStore) and given.kind == self.kind:
            if given.succ and max(given.succ) >= n:
                raise SystemError_(f"a successor {max(given.succ)} is not one of {n} states")
        else:
            self.rows = TransitionStore(self.kind)
            by_index = self.kind != "brs"
            for row in given:
                if self.kind == "abrs" and any(a > b for (a, _), (b, _) in pairwise(row)):
                    row = sorted(row, key=lambda c: c[0])
                if by_index and any(j > k for _, es in row for j, k in pairwise(es)):
                    row = [(name, dict(sorted(es.items()))) for name, es in row]
                self.rows.add(row, n)
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
        masses = self.rows.masses
        numbered = self.kind != "brs"
        for i, name, j, k in self.rows.entries():
            yield i, name, j, masses[k] if numbered else None


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
    A level's rows are made once, when the next level is numbered, and
    written into the store; equal label sets, rewards and action-reward
    maps are one object each.
    """
    if max_states <= 0:
        raise SystemError_("state cap must be positive")
    store = StateStore(spec)
    label = labeller(spec.predicates)
    reward_of = {a.name: a.reward for a in spec.actions}
    export: list = [0]  # discovery number -> export number, None past the cap
    states: list = []  # export number -> (key, KeptState)
    rows = TransitionStore(spec.kind)
    labels, state_reward, action_reward = [], [], []
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
            row = _row(spec.kind, n, choices, export, store.keys)
            rows.add(row, len(states) + len(level))
            per = {a: reward_of[a] for a, _ in row if a in reward_of}
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
