"""Numerical checking of built transition systems.

Reachability on DTMCs (bounded and unbounded), unbounded reachability on
CTMCs via the embedded chain, min/max bounded reachability and bounded
expected cumulative reward on MDPs.

Unbounded reachability (`dtmc_reach`, `ctmc_reach`) is solved, not
iterated to a tolerance.  From the exact rows, read from the store as
integer weights over one denominator each (`_exact`; a CTMC row divided
by its exit rate; an empty row a self-loop, so such a state absorbs):

1. Prob0/Prob1 by backward reachability (Baier & Katoen, *Principles of
   Model Checking*, 2008, 10.1): a state that cannot reach the goal gets
   exactly 0, and one that cannot reach such a state before the goal
   gets exactly 1.  What is left, the undecided states, can each leave
   the undecided set, so their equations x = A x + b have one solution.
2. Tarjan's strongly connected components of the undecided states, by an
   explicit stack (no recursion), which lists each SCC after every SCC
   it reaches.
3. The SCCs in that order (Dai, Mausam & Weld, "Topological value
   iteration algorithms", JAIR 2011), each with the values below it
   already known.  An SCC of at most `DENSE_MAX` states is solved by
   dense partial-pivot elimination in pure Python, with a second
   right-hand side: t, the expected number of steps to leave the
   undecided states.  A larger SCC runs interval iteration (Haddad &
   Monmege, RP 2014) on that SCC alone, from 0 and from 1, with t
   iterated beside it, until the two are within `TOL`, for at most
   `MAX_SWEEPS` sweeps in all; this path alone loads numpy.
4. A certificate: one sweep over the same exact rows, in integers.
   With d_U and d_L the least margins for which x + d_U t is a
   super-solution (x >= A x + b) and x - d_L t a sub-solution, every
   true value lies between the two; the sweep also checks t > 0 and
   (I - A) t > 0 exactly, which proves the solution unique.  Scaling the
   margin by t certifies states whose whole row stays inside their SCC,
   where a uniform margin cannot.  Should the check fail (a float solve
   gone wrong), interval iteration over all undecided states replaces
   the solved values and is checked again.

`DENSE_MAX` is 128, by measurement (CPython 3.11 on one Xeon core, best
of three): eliminating an SCC of 128 states takes 33 ms when each row
has four entries and 66 ms when every row is full, against 50-165 ms to
import numpy before the first sweep; 192 states take 122 and 259 ms.

`ReachValue.value` is the solved value at the initial state, and
`.lower` and `.upper` are its certified bounds, rounded outwards (on
budding's `particles(5)` they are 1.3e-15 apart).  `.iterations` counts
every sweep over the rows: the certificate's and those of interval
iteration.  A query whose initial state Prob0/Prob1 decides runs none.

Bounded reachability and the MDP queries iterate one Bellman backup
over the rows' choices in CSR form (`_choices`), read from the
`TransitionStore`'s own arrays by `np.frombuffer`, with each entry's
double looked up in the store's table of distinct masses and each
choice's action reward in a table of the distinct reward maps.  A sweep
runs `sweeps` times, or until it gives back its input.  The cumulative-reward semantics counts the
state reward at every time step (one state plus one action reward per
step), so a single absorbing state of reward 1 yields exactly k after k
steps.

numpy is imported inside the functions that make or read the arrays:
bounded and MDP queries load it, and so does an unbounded query that
iterates: one with an SCC of more than `DENSE_MAX` states (none of the
shipped models has one) or a failed certificate.  A build, an export or
a walk never does.

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

import math
import re
from dataclasses import dataclass
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
    """An unbounded reachability probability at the initial state, with
    certified bounds lower <= true value <= upper and the number of
    sweeps over the rows it took."""

    value: float
    iterations: int
    lower: float
    upper: float


# the largest SCC solved by dense elimination; larger ones are iterated
DENSE_MAX = 128
# interval iteration's width and sweep budget, read at each call
TOL = 1e-9
MAX_SWEEPS = 10**6


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
    if not goals:
        known = set(ts.label_names) | {l for ls in ts.labels for l in ls}
        if label not in known:
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
    """The store's choices, read from its arrays with no Python loop over
    the entries: the probabilities are looked up in its table of doubles,
    the action rewards in one table row per distinct reward map, and the
    offsets and successors widened once to numpy's index type, which
    every sweep would otherwise convert them to again.  An empty row
    becomes a self-loop of reward 0."""
    import numpy as np

    rows = ts.rows

    def ints(a):
        return np.frombuffer(a, np.intc).astype(np.intp)

    choice_at, entry_at, dst = ints(rows.choice_at), ints(rows.entry_at), ints(rows.succ)
    prob = np.frombuffer(rows.doubles)[np.frombuffer(rows.mass, np.intc)]
    maps: dict = {}  # id of a reward map -> (its table row, the map)
    which = [maps.setdefault(id(per), (len(maps), per))[0] for per in ts.action_reward]
    table = np.array([[float(per.get(a, 0)) for a in rows.names]
                      for _, per in maps.values()]).reshape(len(maps), len(rows.names))
    counts = np.diff(choice_at)
    reward = table[np.repeat(which, counts), np.frombuffer(rows.action, np.intc)]
    if counts.all():
        return _Choices(choice_at[:-1], entry_at[:-1], reward, dst, prob)
    hole = counts == 0
    empty = np.flatnonzero(hole)
    at = choice_at[empty]  # the choice each self-loop goes before
    sizes = np.insert(np.diff(entry_at), at, 1)
    return _Choices(
        choice_at[:-1] + np.cumsum(hole) - hole,
        np.cumsum(sizes) - sizes,
        np.insert(reward, at, 0.0),
        np.insert(dst, entry_at[at], empty),
        np.insert(prob, entry_at[at], 1.0),
    )


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


def _reach(ts, goal_label: str, mode: str, sweeps: int) -> tuple[float, int]:
    """(x[0], sweeps run) after x <- backup(x) from the goal indicator,
    x = 1 kept on the goals, `sweeps` times.  A sweep that gives back its
    input element for element ends the loop early: the backup depends on
    x alone, so every later sweep would give the same vector."""
    import numpy as np

    goals = _goal_states(ts, goal_label)
    m = _choices(ts)
    x = np.zeros(ts.n_states)
    x[goals] = 1.0
    for it in range(1, sweeps + 1):
        nxt = _backup(m, x, mode)
        nxt[goals] = 1.0
        if np.array_equal(nxt, x):
            return float(x[0]), it
        x = nxt
    return float(x[0]), sweeps


# ---------------------------------------------------------------------------
# unbounded reachability: Prob0/Prob1, SCCs bottom-up, a certificate
# ---------------------------------------------------------------------------


def _decided(rows, goals: list) -> tuple[bytearray, bytearray]:
    """Prob0/Prob1 by backward reachability over the store's successors
    (an empty row's self-loop adds no path): `reach[i]` when state i can
    reach a goal (else its value is 0), `miss[i]` when it can reach a
    state that cannot, before any goal (else its value is 1)."""
    n = len(rows)
    pred = [[] for _ in range(n)]
    for i in range(n):
        for j in rows.successors(i):
            pred[j].append(i)
    reach, miss, goal = bytearray(n), bytearray(n), bytearray(n)
    for g in goals:
        reach[g] = goal[g] = 1
    stack = list(goals)
    while stack:
        for i in pred[stack.pop()]:
            if not reach[i]:
                reach[i] = 1
                stack.append(i)
    stack = [i for i in range(n) if not reach[i]]
    for i in stack:
        miss[i] = 1
    while stack:
        for i in pred[stack.pop()]:
            if not miss[i] and not goal[i]:
                miss[i] = 1
                stack.append(i)
    return reach, miss


def _sccs(nodes: list, succ, inside: bytearray) -> list[list[int]]:
    """Tarjan's strongly connected components of the graph on `nodes`
    (the states with `inside` set; edges leaving them are ignored), where
    succ(v) gives v's successors, with an explicit stack.  Each SCC comes
    after every SCC it reaches."""
    index = [-1] * len(inside)
    low = index[:]
    on = bytearray(len(inside))
    stack, out, count = [], [], 0
    for root in nodes:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on[root] = 1
        work = [(root, iter(succ(root)))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not inside[w]:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on[w] = 1
                    work.append((w, iter(succ(w))))
                    break
                if on[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on[w] = 0
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def _exact(ts: TransitionSystem):
    """A function giving state i's row as (successors, integer weights,
    d), read from the store: successor j has probability weight/d
    exactly, a CTMC row being divided by its exit rate."""
    rows, rated = ts.rows, ts.kind == "sbrs"
    ratios = [m.as_integer_ratio() for m in rows.masses]

    def row(i: int) -> tuple:
        lo, hi = rows.span(i)
        pairs = [ratios[k] for k in rows.mass[lo:hi]]
        d = math.lcm(*(q for _, q in pairs))
        weights = [p * (d // q) for p, q in pairs]
        return rows.succ[lo:hi], weights, sum(weights) if rated else d

    return row


def _block(comp: list, row, x: list, t: list):
    """The equations of the states in `comp` from their `_exact` rows,
    each p = w / d correctly rounded: per state, its in-block entries as
    (position, p), b = sum p x[j] and c = 1 + sum p t[j] over the entries
    leaving it, and the exact diagonal 1 - p(s, s)."""
    pos = {s: r for r, s in enumerate(comp)}
    out = []
    for s in comp:
        js, weights, d = row(s)
        inner, b, c, stay = [], 0.0, 1.0, 0
        for j, w in zip(js, weights):
            p = w / d
            q = pos.get(j)
            if q is None:
                b += p * x[j]
                c += p * t[j]
            else:
                inner.append((q, p))
                if j == s:
                    stay = w
        out.append((inner, b, c, (d - stay) / d))
    return out


def _eliminate(comp: list, row, x: list, t: list) -> None:
    """Solve (I - A) [x t] = [b c] on one SCC by dense elimination with
    partial pivoting, writing x and t of its states.  The diagonal is
    1 - p(s, s) from the exact row, so a self-loop within a double's
    precision of 1 keeps its way out.  A zero pivot leaves t = 0, which
    the certificate refuses."""
    k = len(comp)
    a = []
    for r, (inner, b, c, diag) in enumerate(_block(comp, row, x, t)):
        line = [0.0] * k + [b, c]
        for q, p in inner:
            line[q] -= p
        line[r] = diag
        a.append(line)
    for col in range(k):
        column = [abs(a[r][col]) for r in range(col, k)]
        piv = col + column.index(max(column))
        if not column[piv - col]:
            return
        a[col], a[piv] = a[piv], a[col]
        top = a[col]
        tail = top[col + 1:]
        for r in range(col + 1, k):
            row = a[r]
            if row[col]:
                f = row[col] / top[col]
                row[col + 1:] = [u - f * v for u, v in zip(row[col + 1:], tail)]
    for r in range(k - 1, -1, -1):
        row = a[r]
        b, c = row[k], row[k + 1]
        for q in range(r + 1, k):
            if row[q]:
                b -= row[q] * x[comp[q]]
                c -= row[q] * t[comp[q]]
        x[comp[r]] = b / row[r]
        t[comp[r]] = c / row[r]


def _iterate(comp: list, row, x: list, t: list, budget: int) -> int:
    """Interval iteration on the states of `comp`, from 0 and from 1,
    with t iterated from 0 beside them, until the two are within `TOL`
    and each step of t adds at most half its right-hand side (so that
    (I - A) t > 0 holds); x gets the midpoint.  Returns the sweeps run;
    ConvergenceError after `budget` of them."""
    import numpy as np

    first, dst, prob, b, c = [], [], [], [], []
    for inner, bs, cs, _ in _block(comp, row, x, t):
        first.append(len(dst))
        # reduceat needs an entry per row; in the fallback's block a row
        # may have none inside
        for q, p in inner or [(len(first) - 1, 0.0)]:
            dst.append(q)
            prob.append(p)
        b.append(bs)
        c.append(cs)
    k = len(comp)
    m = _Choices(np.arange(k), *map(np.array, (first, b, dst, prob)))
    steps = m._replace(reward=np.array(c))
    lo, hi, tt = np.zeros(k), np.ones(k), np.zeros(k)
    half = steps.reward / 2
    it, done = 0, False
    for it in range(1, budget + 1):
        lo = _backup(m, lo, rewarded=True)
        hi = _backup(m, hi, rewarded=True)
        nt = _backup(steps, tt, rewarded=True)
        done = float(np.max(hi - lo)) < TOL and bool(np.all(nt - tt <= half))
        tt = nt
        if done:
            break
    for r, s in enumerate(comp):
        x[s] = float(lo[r] + hi[r]) / 2
        t[s] = float(tt[r])
    if not done:
        raise ConvergenceError(f"no convergence within {budget} iterations", x)
    return it


def _certify(undecided: list, row, x: list, t: list, one: bytearray):
    """Certified bounds (lower, upper) on the value of state 0, from one
    sweep of the exact rows in integers, with x and t scaled by 2^e (x = 1
    on the states in `one`, t = 0 off the undecided ones).  The bounds are
    x - d_L t and x + d_U t at state 0, for the least margins d_L, d_U >= 0
    with x - d_L t <= A (x - d_L t) + b and x + d_U t >= A (x + d_U t) + b
    on every undecided state.  None unless t > 0 and (I - A) t > 0 there,
    which makes those two a sub- and a super-solution."""
    e = 0
    for i in undecided:
        if not (math.isfinite(x[i]) and math.isfinite(t[i])):
            return None
        e = max(e, x[i].as_integer_ratio()[1].bit_length(),
                t[i].as_integer_ratio()[1].bit_length())
    big = 1 << e
    xs = [big if o else 0 for o in one]
    ts = [0] * len(one)
    for i in undecided:
        (xn, xd), (tn, td) = x[i].as_integer_ratio(), t[i].as_integer_ratio()
        xs[i] = xn * (big // xd)
        ts[i] = tn * (big // td)
    un, ud, dn, dd = 0, 1, 0, 1
    for i in undecided:
        js, weights, d = row(i)
        ax = at = 0
        for j, w in zip(js, weights):
            ax += w * xs[j]
            at += w * ts[j]
        rx = ax - d * xs[i]  # d 2^e (A x + b - x)_i
        rt = d * ts[i] - at  # d 2^e ((I - A) t)_i
        if rt <= 0 or ts[i] <= 0:
            return None
        if rx * ud > un * rt:
            un, ud = rx, rt
        if -rx * dd > dn * rt:
            dn, dd = -rx, rt
    return (_outward(xs[0] * dd - dn * ts[0], dd * big, upward=False),
            _outward(xs[0] * ud + un * ts[0], ud * big, upward=True))


def _outward(num: int, den: int, upward: bool) -> float:
    """num/den (den > 0) as the nearest float on the given side."""
    f = num / den
    p, q = f.as_integer_ratio()
    if upward and p * den < num * q:
        return math.nextafter(f, math.inf)
    if not upward and p * den > num * q:
        return math.nextafter(f, -math.inf)
    return f


def _unbounded(ts: TransitionSystem, goal_label: str) -> ReachValue:
    goals = _goal_states(ts, goal_label)
    reach, miss = _decided(ts.rows, goals)
    if not (reach[0] and miss[0]):
        v = float(reach[0])
        return ReachValue(v, 0, v, v)
    inside = bytearray(r and m for r, m in zip(reach, miss))
    one = bytearray(r and not m for r, m in zip(reach, miss))
    undecided = [i for i, u in enumerate(inside) if u]
    row = _exact(ts)
    x = [float(o) for o in one]
    t = [0.0] * ts.n_states
    sweeps = 0
    for comp in _sccs(undecided, ts.rows.successors, inside):
        if len(comp) <= DENSE_MAX:
            _eliminate(comp, row, x, t)
        else:
            sweeps += _iterate(comp, row, x, t, MAX_SWEEPS - sweeps)
    bounds = _certify(undecided, row, x, t, one)
    sweeps += 1
    if bounds is None:
        sweeps += _iterate(undecided, row, x, t, MAX_SWEEPS - sweeps)
        bounds = _certify(undecided, row, x, t, one)
        sweeps += 1
        if bounds is None:
            raise ConvergenceError("no certified bounds", x)
    lower, upper = max(bounds[0], 0.0), min(bounds[1], 1.0)
    return ReachValue(min(max(x[0], lower), upper), sweeps, lower, upper)


# ---------------------------------------------------------------------------
# DTMC / CTMC
# ---------------------------------------------------------------------------


def dtmc_bounded_reach(
    ts: TransitionSystem, goal_label: str, horizon: int
) -> float:
    """Probability of hitting the goal label within `horizon` steps, by the
    backward recursion x_{k+1}(s) = 1 on goal else sum P(s,.) x_k."""
    _check(ts, "pbrs", "bounded reachability", horizon)
    return _reach(ts, goal_label, "max", horizon)[0]


def dtmc_reach(ts: TransitionSystem, goal_label: str) -> ReachValue:
    """Probability of ever reaching the goal label from the initial
    state: Prob0/Prob1, then the undecided states' SCCs solved bottom-up
    (elimination up to `DENSE_MAX` states, interval iteration to width
    `TOL` above it), then one exact certificate sweep.  `lower` and
    `upper` are certified bounds; `iterations` counts the sweeps over the
    rows, the certificate's included, and ConvergenceError ends interval
    iteration after `MAX_SWEEPS` of them."""
    _check(ts, "pbrs", "unbounded reachability")
    return _unbounded(ts, goal_label)


def ctmc_reach(ts: TransitionSystem, goal_label: str) -> ReachValue:
    """`dtmc_reach` on the embedded (jump) chain, each row divided by its
    exit rate and an empty row absorbing; invariant under uniform scaling
    of all rates."""
    _check(ts, "sbrs", "unbounded reachability")
    return _unbounded(ts, goal_label)


# ---------------------------------------------------------------------------
# MDP
# ---------------------------------------------------------------------------


def mdp_bounded_reach(
    ts: TransitionSystem, goal_label: str, horizon: int, mode: str
) -> float:
    """Optimal probability of hitting the goal within `horizon` steps;
    states with an empty action row are absorbing."""
    _check(ts, "abrs", "MDP reachability", horizon, mode)
    return _reach(ts, goal_label, mode, horizon)[0]


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
