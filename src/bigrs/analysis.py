"""Numerical checking of built transition systems.

Reachability on DTMCs (bounded and unbounded), unbounded reachability on
CTMCs via the embedded chain, min/max bounded reachability and bounded
expected cumulative reward on MDPs.  Every query iterates one Bellman
backup over the rows' choices held in CSR arrays: a CTMC choice is
divided by its exit rate (the embedded chain), and an empty row is a
self-loop choice of reward 0, so such a state absorbs.  The
unbounded queries stop at absolute sup-norm change below the tolerance.
The cumulative-reward semantics counts the state reward at every time
step (one state plus one action reward per step), so a single absorbing
state of reward 1 yields exactly k after k steps.

numpy is imported inside the functions that make or read the arrays, so
the first query loads it; a build, an export or a walk never does.

The query syntax accepted by `parse_query` is the tiny PCTL fragment the
command line exposes:

    P=? [ F label ]          unbounded reachability (DTMC or CTMC)
    P=? [ F<=N label ]       bounded reachability (DTMC)
    Pmin=? [ F<=N label ]    MDP bounded reachability, minimizing
    Pmax=? [ F<=N label ]    MDP bounded reachability, maximizing
    Rmin=? [ C<=K ]          MDP bounded cumulative reward, minimizing
    Rmax=? [ C<=K ]          MDP bounded cumulative reward, maximizing
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .bigraph import BigraphError
from .system import TransitionSystem


class AnalysisError(BigraphError):
    pass


class ConvergenceError(AnalysisError):
    def __init__(self, msg: str, last_vector):
        super().__init__(msg)
        self.last_vector = last_vector


@dataclass(frozen=True)
class Query:
    kind: str  # boundedReach | reach | mdpReachMin | mdpReachMax | mdpCostMin | mdpCostMax
    label: str | None = None
    horizon: int | None = None


class ReachValue(NamedTuple):
    value: float
    iterations: int


_QUERY_RES = [
    (re.compile(r"^P=\?\s*\[\s*F\s*<=\s*(\d+)\s+(\S+)\s*\]$"), "boundedReach"),
    (re.compile(r"^P=\?\s*\[\s*F\s+(\S+)\s*\]$"), "reach"),
    (re.compile(r"^Pmin=\?\s*\[\s*F\s*<=\s*(\d+)\s+(\S+)\s*\]$"), "mdpReachMin"),
    (re.compile(r"^Pmax=\?\s*\[\s*F\s*<=\s*(\d+)\s+(\S+)\s*\]$"), "mdpReachMax"),
    (re.compile(r"^Rmin=\?\s*\[\s*C\s*<=\s*(\d+)\s*\]$"), "mdpCostMin"),
    (re.compile(r"^Rmax=\?\s*\[\s*C\s*<=\s*(\d+)\s*\]$"), "mdpCostMax"),
]


def parse_query(text: str) -> Query:
    s = text.strip()
    for rx, kind in _QUERY_RES:
        m = rx.match(s)
        if not m:
            continue
        if kind == "reach":
            return Query(kind, label=m.group(1))
        if kind in ("mdpCostMin", "mdpCostMax"):
            return Query(kind, horizon=int(m.group(1)))
        return Query(kind, label=m.group(2), horizon=int(m.group(1)))
    raise AnalysisError(f"cannot parse query {text!r}")


def run_query(ts: TransitionSystem, query: Query) -> float:
    if query.kind == "boundedReach":
        return dtmc_bounded_reach(ts, query.label, query.horizon)
    if query.kind == "reach":
        reach = ctmc_reach if ts.kind == "sbrs" else dtmc_reach
        return reach(ts, query.label).value
    mode = "min" if query.kind.endswith("Min") else "max"
    if query.kind.startswith("mdpReach"):
        return mdp_bounded_reach(ts, query.label, query.horizon, mode)
    return mdp_expected_cost(ts, query.horizon, mode)


def _check(ts: TransitionSystem, kind: str, what: str, horizon=None,
           mode=None) -> None:
    """The argument checks of every analysis: `what` needs a system of
    `kind`, and a horizon or mode, when given, must be >= 0 or be 'min'
    or 'max'."""
    if ts.kind != kind:
        shape = {"pbrs": "a DTMC", "sbrs": "a CTMC", "abrs": "an MDP"}[kind]
        raise AnalysisError(f"{what} needs {shape}, got {ts.kind}")
    if mode not in (None, "min", "max"):
        raise AnalysisError(f"mode must be 'min' or 'max', not {mode!r}")
    if horizon is not None and horizon < 0:
        raise AnalysisError("horizon must be >= 0")


def _goal_states(ts: TransitionSystem, label: str) -> list[int]:
    goals = ts.states_with_label(label)
    known = set(ts.label_names) | {l for ls in ts.labels for l in ls}
    if not goals and label not in known:
        raise AnalysisError(
            f"unknown label {label!r}; declared labels: "
            f"{', '.join(sorted(known)) or 'none'}"
        )
    return goals


# ---------------------------------------------------------------------------
# the MDP view and its backup
# ---------------------------------------------------------------------------


class _Choices(NamedTuple):
    """A system as an MDP in CSR form: state s owns the choices from
    first_choice[s] up to the next state's, choice c the entries from
    first_entry[c] up to the next choice's.  Every state has a choice and
    every choice an entry, as `reduceat` needs."""

    first_choice: np.ndarray  # per state
    first_entry: np.ndarray  # per choice
    reward: np.ndarray  # per choice: its action reward
    dst: np.ndarray  # per entry
    prob: np.ndarray  # per entry


def _choices(ts: TransitionSystem) -> _Choices:
    """The rows' choices, each carrying its action reward; a CTMC choice
    is divided by its exit rate (the embedded chain), and an empty row
    becomes a self-loop of reward 0."""
    import numpy as np

    rated = ts.kind == "sbrs"
    first_choice, first_entry, reward, dst, prob = [], [], [], [], []
    for i, row in enumerate(ts.rows):
        first_choice.append(len(first_entry))
        for name, entries in row or [(None, {i: 1})]:
            first_entry.append(len(dst))
            reward.append(float(ts.action_reward[i].get(name, 0)))
            for j, p in (_jump(entries) if rated else entries).items():
                dst.append(j)
                prob.append(float(p))
    return _Choices(*map(np.array, (first_choice, first_entry, reward, dst, prob)))


def _backup(m: _Choices, x, mode: str = "max", rewarded: bool = False):
    """One Bellman backup: per state, the min or max over its choices of
    sum prob * x[dst] over the choice's entries, plus the choice's reward
    when `rewarded`."""
    import numpy as np

    q = np.add.reduceat(m.prob * x[m.dst], m.first_entry)
    if rewarded:
        q += m.reward
    opt = np.minimum if mode == "min" else np.maximum
    return opt.reduceat(q, m.first_choice)


def _reach(ts, goal_label: str, mode: str, sweeps: int, tol=None) -> ReachValue:
    """From the goal indicator, repeat x <- backup(x) with x = 1 kept on
    the goal states: `sweeps` times, or, given `tol`, until the sup-norm
    change is below it (ConvergenceError if that takes over `sweeps`).
    Without `tol`, a sweep that gives back its input element for element
    ends the loop early: the backup depends on x alone, so every later
    sweep would give the same vector."""
    import numpy as np

    goals = _goal_states(ts, goal_label)
    m = _choices(ts)
    x = np.zeros(ts.n_states)
    x[goals] = 1.0
    for it in range(1, sweeps + 1):
        nxt = _backup(m, x, mode)
        nxt[goals] = 1.0
        if tol is None:
            done = np.array_equal(nxt, x)
        else:
            done = float(np.max(np.abs(nxt - x))) < tol
        x = nxt
        if done:
            return ReachValue(float(x[0]), it)
    if tol is not None:
        raise ConvergenceError(f"no convergence within {sweeps} iterations", x)
    return ReachValue(float(x[0]), sweeps)


# ---------------------------------------------------------------------------
# DTMC / CTMC
# ---------------------------------------------------------------------------


def dtmc_bounded_reach(
    ts: TransitionSystem, goal_label: str, horizon: int
) -> float:
    """Probability of hitting the goal label within `horizon` steps, by the
    backward recursion x_{k+1}(s) = 1 on goal else sum P(s,.) x_k."""
    _check(ts, "pbrs", "bounded reachability", horizon)
    return _reach(ts, goal_label, "max", horizon).value


def dtmc_reach(
    ts: TransitionSystem,
    goal_label: str,
    tol: float = 1e-9,
    max_iterations: int = 10**6,
) -> ReachValue:
    """Least fixed point of the reachability equations by value iteration
    to sup-norm `tol`; also reports the iteration count."""
    _check(ts, "pbrs", "unbounded reachability")
    return _reach(ts, goal_label, "max", max_iterations, tol)


def _jump(rates: dict) -> dict:
    """A CTMC choice divided by its exit rate."""
    total = sum(rates.values(), Fraction(0))
    return {j: r / total for j, r in rates.items()}


def ctmc_reach(
    ts: TransitionSystem,
    goal_label: str,
    tol: float = 1e-9,
    max_iterations: int = 10**6,
) -> ReachValue:
    """Unbounded reachability on the embedded (jump) chain; invariant under
    uniform scaling of all rates."""
    _check(ts, "sbrs", "unbounded reachability")
    return _reach(ts, goal_label, "max", max_iterations, tol)


# ---------------------------------------------------------------------------
# MDP
# ---------------------------------------------------------------------------


def mdp_bounded_reach(
    ts: TransitionSystem, goal_label: str, horizon: int, mode: str
) -> float:
    """Optimal probability of hitting the goal within `horizon` steps;
    states with an empty action row are absorbing."""
    _check(ts, "abrs", "MDP reachability", horizon, mode)
    return _reach(ts, goal_label, mode, horizon).value


def mdp_expected_cost(ts: TransitionSystem, horizon: int, mode: str) -> float:
    """Optimal expected cumulative reward over `horizon` steps:
    v_{j+1}(s) = r(s) + opt_a [ r(s,a) + sum mu_a(s') v_j(s') ], with
    absorbing states accumulating their state reward each step."""
    import numpy as np

    _check(ts, "abrs", "expected cost", horizon, mode)
    srew = np.array([float(r) for r in ts.state_reward])
    m = _choices(ts)
    v = np.zeros(ts.n_states)
    for _ in range(horizon):
        v = srew + _backup(m, v, mode, rewarded=True)
    return float(v[0])
