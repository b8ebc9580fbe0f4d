"""The analyses: unbounded reachability solved with certified bounds,
bounded and MDP value iteration, and the query fragment."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from genutil import random_chain, random_mdp
from oracles import (
    brute_mdp_bounded_reach,
    brute_mdp_expected_cost,
    embedded_chain,
    exact_bounded_reach,
    reference_reach,
)

from bigrs import analysis
from bigrs.analysis import (
    AnalysisError,
    ConvergenceError,
    ctmc_reach,
    dtmc_bounded_reach,
    dtmc_reach,
    mdp_bounded_reach,
    mdp_expected_cost,
    parse_query,
    run_query,
)
from bigrs.language import load_model
from bigrs.system import TransitionStore, TransitionSystem, build_transition_system


def dtmc(rows, labels, rewards=None):
    n = len(rows)
    return TransitionSystem(
        kind="pbrs",
        states=[(f"s{i}".encode(), None) for i in range(n)],
        rows=[[(None, {j: Fraction(p) for j, p in row.items()})] for row in rows],
        labels=[frozenset(ls) for ls in labels],
        label_names=tuple(sorted({l for ls in labels for l in ls})),
        state_reward=list(rewards or [Fraction(0)] * n),
    )


def ctmc(rows, labels):
    n = len(rows)
    return TransitionSystem(
        kind="sbrs",
        states=[(f"s{i}".encode(), None) for i in range(n)],
        rows=[
            [(None, {j: Fraction(r) for j, r in row.items()})] if row else []
            for row in rows
        ],
        labels=[frozenset(ls) for ls in labels],
        label_names=tuple(sorted({l for ls in labels for l in ls})),
        state_reward=[Fraction(0)] * n,
    )


def mdp(rows, labels, state_rewards=None, action_rewards=None):
    n = len(rows)
    return TransitionSystem(
        kind="abrs",
        states=[(f"s{i}".encode(), None) for i in range(n)],
        rows=[
            [(name, {j: Fraction(p) for j, p in d.items()}) for name, d in row]
            for row in rows
        ],
        labels=[frozenset(ls) for ls in labels],
        label_names=tuple(sorted({l for ls in labels for l in ls})),
        state_reward=list(state_rewards or [Fraction(0)] * n),
        action_reward=action_rewards or {},
    )


# the four-state failure chain with w_fail=2, w_con=1
WSN = dtmc(
    rows=[
        {1: 1},
        {0: Fraction(1, 5), 2: Fraction(4, 5)},
        {1: Fraction(1, 2), 3: Fraction(1, 2)},
        {2: 1},
    ],
    labels=[{"fresh"}, set(), set(), {"all_failed"}],
)

# the send/wait MDP with w_suc=5, w_fail=1 (terminal success state 2)
SEND = mdp(
    rows=[
        [
            ("a_send", {1: Fraction(1, 6), 2: Fraction(5, 6)}),
            ("a_wait", {0: 1}),
        ],
        [("a_reset", {0: 1})],
        [],
    ],
    labels=[set(), {"failed"}, {"sent"}],
)


def test_bounded_reach_goal_is_initial():
    assert dtmc_bounded_reach(WSN, "fresh", 0) == 1
    assert dtmc_bounded_reach(WSN, "fresh", 7) == 1


def test_bounded_reach_three_step_path():
    # the only length-3 route to all_failed multiplies 1 * 4/5 * 1/2
    assert abs(dtmc_bounded_reach(WSN, "all_failed", 3) - 0.4) <= 1e-12
    assert exact_bounded_reach(WSN, "all_failed", 3) == Fraction(2, 5)


def test_bounded_reach_horizon_zero():
    assert dtmc_bounded_reach(WSN, "all_failed", 0) == 0


def test_bounded_reach_monotone_in_horizon():
    values = [dtmc_bounded_reach(WSN, "all_failed", n) for n in range(0, 40, 4)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_reach_absorbing_goal():
    # Prob1 decides the initial state: exactly 1, and no sweep runs
    chain = dtmc([{1: 1}, {1: 1}], [set(), {"goal"}])
    assert dtmc_reach(chain, "goal") == (1, 0, 1, 1)


def test_reach_one_step_analytic():
    chain = dtmc(
        [{1: Fraction(1, 4), 2: Fraction(3, 4)}, {1: 1}, {2: 1}],
        [set(), {"goal"}, set()],
    )
    assert abs(dtmc_reach(chain, "goal").value - 0.25) <= 1e-9


def test_reach_unreachable_goal_and_unknown_label():
    chain = dtmc([{0: 1}], [set()])
    ts = dtmc(
        [{0: 1}, {1: 1}],
        [set(), {"goal"}],
    )
    # goal exists but nothing reaches it from state 0's self loop
    assert dtmc_reach(ts, "goal").value == 0
    with pytest.raises(AnalysisError, match="unknown label"):
        dtmc_reach(chain, "nope")


def test_bounded_converges_to_unbounded_on_absorbing_chain():
    exact = dtmc_reach(WSN, "all_failed")
    bounded = dtmc_bounded_reach(WSN, "all_failed", 4000)
    assert abs(bounded - exact.value) <= 1e-8


def test_nonconvergence_carries_last_vector(monkeypatch):
    # only an SCC above DENSE_MAX iterates; width 0 is never reached
    monkeypatch.setattr(analysis, "TOL", 0.0)
    monkeypatch.setattr(analysis, "MAX_SWEEPS", 5)
    with pytest.raises(ConvergenceError) as err:
        dtmc_reach(RING, "goal")
    assert len(err.value.last_vector) == RING.n_states


# ---------------------------------------------------------------------------
# unbounded reachability: Prob0/Prob1, SCCs bottom-up, certified bounds
# ---------------------------------------------------------------------------


def ring(n):
    """States 0..n-1 on a ring, one SCC: state i moves to i + 1 w.p. 1/2
    and to i - 1 w.p. 1/4, and leaves w.p. 1/4, to the goal n w.p.
    (1 + i % 3)/16 and to the trap n + 1 otherwise."""
    rows = []
    for i in range(n):
        w = Fraction(1 + i % 3, 16)
        rows.append({(i + 1) % n: Fraction(1, 2), (i - 1) % n: Fraction(1, 4),
                     n: w, n + 1: Fraction(1, 4) - w})
    return dtmc(rows + [{n: 1}, {n + 1: 1}], [set()] * n + [{"goal"}, set()])


RING = ring(analysis.DENSE_MAX + 8)


def _holds(res, ref):
    """lower <= ref <= upper: exactly for a rational reference, within
    the 1e-12 that a float solve of the reference may be off otherwise."""
    assert res.lower <= res.value <= res.upper
    if isinstance(ref, Fraction):
        assert Fraction(res.lower) <= ref <= Fraction(res.upper), (res, ref)
    else:
        assert res.lower - 1e-12 <= ref <= res.upper + 1e-12, (res, ref)


def test_epsilon_chain_is_exactly_one():
    # a tolerance stop gave 0.9999 here after 921,031 sweeps
    eps = Fraction(1, 10**5)
    chain = dtmc([{0: 1 - eps, 1: eps}, {1: 1}], [set(), {"goal"}])
    assert dtmc_reach(chain, "goal") == (1, 0, 1, 1)
    # with a trap beside the goal, 1/2; at eps = 2^-60 the float self-loop
    # is 1.0, and only the exact diagonal keeps the way out
    for eps in (Fraction(1, 10**5), Fraction(1, 2**60)):
        chain = dtmc([{0: 1 - eps, 1: eps / 2, 2: eps / 2}, {1: 1}, {2: 1}],
                     [set(), {"goal"}, set()])
        assert dtmc_reach(chain, "goal") == (0.5, 1, 0.5, 0.5)


def test_shipped_models_bracket_the_reference(wsn_ts, virus_ts, budding_ts):
    for ts, label in ((wsn_ts, "all_failed"), (virus_ts, "all_infected")):
        res = dtmc_reach(ts, label)
        assert res == (1, 0, 1, 1)  # every state is in Prob1
        _holds(res, reference_reach(ts, label))
    # pure-Python floats: the same ReachValue, bit for bit, on every run
    pinned = {
        0: (0.00245647378978942, 1, 0.002456473789788851, 0.002456473789789776),
        5: (0.020916915292072007, 1, 0.020916915292071438, 0.02091691529207275),
        20: (0.0022677029033675105, 1, 0.0022677029033661565, 0.0022677029033699257),
    }
    for n, want in pinned.items():
        res = ctmc_reach(budding_ts, f"particles({n})")
        assert res == want
        assert res.iterations == 1  # the certificate's sweep alone
        _holds(res, reference_reach(budding_ts, f"particles({n})"))
        assert res.upper - res.lower <= 1e-13
    # the exact value, 0.0209169152920720..., has a 1,192-digit denominator
    value = ctmc_reach(budding_ts, "particles(5)").value
    assert abs(value - 0.0209169152920720) <= 1e-12


def test_bounds_hold_the_exact_value_on_random_chains():
    rng = random.Random(30)
    solved = 0
    for kind, reach in (("pbrs", dtmc_reach), ("sbrs", ctmc_reach)):
        for _ in range(150):
            ts = random_chain(rng, kind)
            res = reach(ts, "goal")
            ref = reference_reach(ts, "goal")
            _holds(res, ref)
            assert abs(res.value - ref) <= 1e-12
            if ref in (0, 1):
                assert res == (ref, 0, ref, ref)
            solved += res.iterations > 0
    assert solved >= 40


def test_scc_above_dense_max_iterates_to_sound_bounds():
    res = dtmc_reach(RING, "goal")
    assert res.iterations > 1  # interval iteration, then the certificate
    assert res.upper - res.lower <= 1e-8
    _holds(res, reference_reach(RING, "goal"))


def test_failed_certificate_falls_back_to_interval_iteration(monkeypatch):
    def wrong(comp, rows, x, t):  # a solve whose t proves nothing
        for s in comp:
            x[s], t[s] = 0.5, 0.0

    monkeypatch.setattr(analysis, "_eliminate", wrong)
    rng = random.Random(31)
    fell_back = 0
    for _ in range(60):
        ts = random_chain(rng, "pbrs")
        res = dtmc_reach(ts, "goal")
        _holds(res, reference_reach(ts, "goal"))
        fell_back += res.iterations > 2
    assert fell_back >= 10


def _store(succ):
    """A brs store of the successor lists, a state with none terminal."""
    rows = TransitionStore("brs")
    for js in succ:
        rows.add([(None, dict.fromkeys(js, 1))] if js else [], len(succ))
    return rows


def test_sccs_match_networkx_and_come_bottom_up():
    nx = pytest.importorskip("networkx")
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randint(1, 30)
        succ = [rng.sample(range(n), rng.randint(0, min(3, n))) for _ in range(n)]
        goal = bytearray(rng.random() < 0.15 for _ in range(n))
        reach, miss, comps = analysis._sccs(_store(succ), goal)
        # the goals' out-edges are cut
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from((i, j) for i in range(n) if not goal[i] for j in succ[i])
        hits = {i for i in range(n) if goal[i]}
        hits |= set().union(*(nx.ancestors(g, i) for i in hits))
        misses = set(range(n)) - hits
        misses |= set().union(*(nx.ancestors(g, i) for i in misses))
        assert list(reach) == [i in hits for i in range(n)]
        assert list(miss) == [i in misses for i in range(n)]
        both = hits & misses
        assert sorted(map(sorted, comps)) == sorted(
            sorted(c) for c in nx.strongly_connected_components(g) if c <= both
        )
        where = {s: k for k, comp in enumerate(comps) for s in comp}
        assert all(where[j] <= where[i] for i in both for j in g[i] if j in both)
    # depth 5000, far past the recursion limit: a cycle, then a path, whose
    # state 0 or last state leaves for the goal n and the dead end n + 1
    n = 5000
    goal = bytearray(n + 2)
    goal[n] = 1
    cycle = [[(i + 1) % n] for i in range(n)] + [[], []]
    cycle[0] += [n, n + 1]
    assert list(map(len, analysis._sccs(_store(cycle), goal)[2])) == [n]
    path = [[i + 1] for i in range(n - 1)] + [[n, n + 1], [], []]
    assert analysis._sccs(_store(path), goal)[2] == [[i] for i in reversed(range(n))]


def test_huge_bounded_horizon_stops_at_the_fixed_point(wsn_ts, virus_ts):
    # the sweeps reach a vector that the next sweep gives back unchanged
    # after 146 (wsn) and 173 (virus) sweeps; every later one would too
    huge = 10**20
    for ts, label, fixed in ((wsn_ts, "all_failed", 146), (virus_ts, "all_infected", 173)):
        assert analysis._reach(ts, label, "max", huge)[1] == fixed
        value = dtmc_bounded_reach(ts, label, huge)
        assert value == dtmc_bounded_reach(ts, label, fixed + 1)
        assert value == run_query(ts, parse_query(f"P=? [ F<={huge} {label} ]"))
        assert value != dtmc_bounded_reach(ts, label, fixed - 10)
    for mode in ("min", "max"):
        fixed = analysis._reach(SEND, "sent", mode, huge)[1]
        assert fixed < 2000
        assert mdp_bounded_reach(SEND, "sent", huge, mode) == mdp_bounded_reach(
            SEND, "sent", fixed + 1, mode
        )


# ---------------------------------------------------------------------------
# CTMC
# ---------------------------------------------------------------------------


def test_ctmc_single_transition_any_rate():
    for rate in (Fraction(1, 100), 3, 500):
        c = ctmc([{1: rate}, {}], [set(), {"goal"}])
        assert abs(ctmc_reach(c, "goal").value - 1) <= 1e-9


def test_ctmc_race():
    c = ctmc([{1: 2, 2: 1}, {}, {}], [set(), {"goal"}, set()])
    assert abs(ctmc_reach(c, "goal").value - 2 / 3) <= 1e-9


def test_ctmc_goal_is_initial():
    c = ctmc([{1: 1}, {}], [{"goal"}, set()])
    assert ctmc_reach(c, "goal").value == 1


def test_ctmc_rate_scaling_invariance():
    a = ctmc([{1: 2, 2: 1}, {2: 5}, {}], [set(), set(), {"goal"}])
    b = ctmc([{1: 14, 2: 7}, {2: 35}, {}], [set(), set(), {"goal"}])
    assert embedded_chain(a) == embedded_chain(b)
    assert abs(ctmc_reach(a, "goal").value - ctmc_reach(b, "goal").value) <= 1e-9


# ---------------------------------------------------------------------------
# MDP
# ---------------------------------------------------------------------------


def test_mdp_bounded_reach_one_step():
    assert abs(mdp_bounded_reach(SEND, "sent", 1, "max") - 5 / 6) <= 1e-12
    assert mdp_bounded_reach(SEND, "sent", 1, "min") == 0
    assert mdp_bounded_reach(SEND, "sent", 0, "max") == 0
    assert mdp_bounded_reach(SEND, "failed", 0, "min") == 0


def test_mdp_absorbing_states_keep_value():
    # state 2 is terminal: once "sent" holds it stays reached
    assert abs(mdp_bounded_reach(SEND, "sent", 50, "max") - 1) <= 1e-9


def test_mdp_cost_zero_rewards():
    assert mdp_expected_cost(SEND, 4000, "min") == 0


def test_mdp_cost_single_absorbing_state():
    lone = mdp([[]], [set()], state_rewards=[Fraction(1)])
    assert mdp_expected_cost(lone, 4000, "min") == 4000
    assert mdp_expected_cost(lone, 4000, "max") == 4000


def test_mdp_cost_one_step_choice():
    two = mdp(
        rows=[
            [("cheap", {1: 1}), ("dear", {1: 1})],
            [],
        ],
        labels=[set(), set()],
        action_rewards={"cheap": Fraction(1), "dear": Fraction(3)},
    )
    assert mdp_expected_cost(two, 1, "min") == 1
    assert mdp_expected_cost(two, 1, "max") == 3


def test_mdp_min_cost_monotone_in_horizon():
    costs = [mdp_expected_cost(SEND, k, "min") for k in range(0, 200, 20)]
    assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))


def test_policy_sandwich():
    # every stationary deterministic policy's DTMC value sits between the
    # MDP's min and max
    horizon = 9
    lo = mdp_bounded_reach(SEND, "sent", horizon, "min")
    hi = mdp_bounded_reach(SEND, "sent", horizon, "max")
    choice_sets = [range(max(1, len(row))) for row in SEND.rows]
    for picks in itertools.product(*choice_sets):
        rows = []
        for i, pick in enumerate(picks):
            if not SEND.rows[i]:
                rows.append({i: 1})
            else:
                _, dist = SEND.rows[i][pick]
                rows.append(dict(dist.items()))
        fixed = dtmc(rows, [set(ls) for ls in SEND.labels])
        value = dtmc_bounded_reach(fixed, "sent", horizon)
        assert lo - 1e-12 <= value <= hi + 1e-12


def _kernel_agrees_with_oracle(ts, horizons):
    for mode, k in itertools.product(("min", "max"), horizons):
        for label in ts.label_names:
            got = mdp_bounded_reach(ts, label, k, mode)
            want = brute_mdp_bounded_reach(ts, label, k, mode)
            assert math.isclose(got, want, rel_tol=1e-12), (label, k, mode)
        got = mdp_expected_cost(ts, k, mode)
        want = brute_mdp_expected_cost(ts, k, mode)
        assert math.isclose(got, want, rel_tol=1e-12), (k, mode)


@pytest.mark.parametrize("model", ["send_mdp", "mobile_sink"])
def test_mdp_kernel_matches_oracle_on_models(models_dir, model):
    ts = build_transition_system(load_model(models_dir / f"{model}.big"))
    _kernel_agrees_with_oracle(ts, (0, 1, 2, 7, 60))


def test_mdp_kernel_matches_oracle_on_random_mdps():
    rng = random.Random(4)
    seen_terminal = 0
    for _ in range(20):
        ts = random_mdp(rng)
        seen_terminal += any(not row for row in ts.rows)
        _kernel_agrees_with_oracle(ts, (0, 1, 3, 25))
    assert seen_terminal >= 5


def test_kind_checks():
    with pytest.raises(AnalysisError):
        dtmc_bounded_reach(SEND, "sent", 3)
    with pytest.raises(AnalysisError):
        mdp_bounded_reach(WSN, "all_failed", 3, "max")
    with pytest.raises(AnalysisError):
        mdp_expected_cost(WSN, 3, "min")
    with pytest.raises(AnalysisError):
        ctmc_reach(WSN, "all_failed")


# ---------------------------------------------------------------------------
# query parsing and dispatch
# ---------------------------------------------------------------------------


def test_parse_query_forms():
    q = parse_query("P=? [ F<=3 all_failed ]")
    assert q.kind == "boundedReach" and q.horizon == 3 and q.label == "all_failed"
    q = parse_query("P=? [ F particles(7) ]")
    assert q.kind == "reach" and q.label == "particles(7)"
    q = parse_query("Pmin=? [ F<=10 goal ]")
    assert q.kind == "mdpReachMin"
    q = parse_query("Pmax=?[F<=10 goal]")
    assert q.kind == "mdpReachMax"
    q = parse_query("Rmin=? [ C<=4000 ]")
    assert q.kind == "mdpCostMin" and q.horizon == 4000
    q = parse_query("Rmax=? [ C<=5 ]")
    assert q.kind == "mdpCostMax"
    with pytest.raises(AnalysisError):
        parse_query("P=? [ G<=3 x ]")


def test_run_query_dispatch():
    assert abs(run_query(WSN, parse_query("P=? [ F<=3 all_failed ]")) - 0.4) <= 1e-12
    assert abs(run_query(SEND, parse_query("Pmax=? [ F<=1 sent ]")) - 5 / 6) <= 1e-12
    c = ctmc([{1: 2, 2: 1}, {}, {}], [set(), {"goal"}, set()])
    assert abs(run_query(c, parse_query("P=? [ F goal ]")) - 2 / 3) <= 1e-9
    with pytest.raises(AnalysisError):
        run_query(c, parse_query("P=? [ F<=3 goal ]"))  # no time-bounded CSL
