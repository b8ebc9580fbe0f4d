"""Independent semantics oracles for the shipped case-study models.

Each model's transition system is rebuilt here from scratch over plain
tuples (grid configurations, population counters, sensor state), with the
normalization semantics written out directly.  The engine's system —
produced by the full parse/match/rewrite/canonicalize pipeline — must
agree: same state and transition counts and equal analysis values.
"""

from fractions import Fraction

import pytest

from bigrs.analysis import ctmc_reach, mdp_expected_cost
from bigrs.language import load_model
from bigrs.system import TransitionSystem, build_transition_system

from oracles import exact_bounded_reach


def hand_ts(kind, rows, labels, state_rewards=None, action_rewards=None):
    """A system over hand-built rows: a dict per state for a DTMC or CTMC
    (empty for a CTMC terminal state), a list of choices for an MDP."""
    n = len(rows)
    if kind == "abrs":
        built = rows
    else:
        built = [[(None, r)] if r else [] for r in rows]
    return TransitionSystem(
        kind=kind,
        states=[(f"h{i}".encode(), None) for i in range(n)],
        rows=built,
        labels=[frozenset(ls) for ls in labels],
        label_names=tuple(sorted({l for ls in labels for l in ls})),
        state_reward=list(state_rewards or [Fraction(0)] * n),
        action_reward=action_rewards or {},
    )


# ---------------------------------------------------------------------------
# virus spread: configurations over the 3x3 grid, quotiented by the grid's
# symmetries, exactly the abstract states the bigraph engine should find
# ---------------------------------------------------------------------------

GRID_TRANSFORMS = []
for flip in (False, True):
    for rot in range(4):
        def transform(i, flip=flip, rot=rot):
            r, c = divmod(i, 3)
            if flip:
                r, c = c, r
            for _ in range(rot):
                r, c = c, 2 - r
            return 3 * r + c

        GRID_TRANSFORMS.append([transform(i) for i in range(9)])

ADJACENT = [
    (i, j)
    for i in range(9)
    for j in range(9)
    if abs(i // 3 - j // 3) + abs(i % 3 - j % 3) == 1
]


def orbit_rep(config: tuple) -> tuple:
    return min(
        tuple(config[t[i]] for i in range(9)) for t in GRID_TRANSFORMS
    )


def virus_hand_chain(w_attack, w_infect, w_detect):
    """DTMC over orbit representatives with weight-normalized rows."""

    def row_of(config: tuple) -> dict:
        masses: dict = {}
        for a, b in ADJACENT:
            if config[a] == "I" and config[b] == "S":
                succ = list(config)
                succ[b] = "A"
                rep = orbit_rep(tuple(succ))
                masses[rep] = masses.get(rep, Fraction(0)) + w_attack
        for c in range(9):
            if config[c] == "A":
                for status, w in (("I", w_infect), ("S", w_detect)):
                    succ = list(config)
                    succ[c] = status
                    rep = orbit_rep(tuple(succ))
                    masses[rep] = masses.get(rep, Fraction(0)) + w
        total = sum(masses.values(), Fraction(0))
        if total == 0:
            return {config: Fraction(1)}
        return {s: m / total for s, m in masses.items()}

    initial = orbit_rep(("I",) + ("S",) * 8)
    states = [initial]
    index = {initial: 0}
    raw: dict = {}
    frontier = [0]
    while frontier:
        discovered = set()
        for i in frontier:
            raw[i] = row_of(states[i])
            discovered.update(r for r in raw[i] if r not in index)
        frontier = []
        for rep in sorted(discovered):
            index[rep] = len(states)
            states.append(rep)
            frontier.append(index[rep])
    rows = [
        {index[s]: p for s, p in raw[i].items()} for i in range(len(states))
    ]
    labels = [
        {"all_infected"} if all(x == "I" for x in cfg) else set()
        for cfg in states
    ]
    return hand_ts("pbrs", rows, labels), states


@pytest.mark.parametrize("w_detect", [5, 10, 15])
def test_virus_engine_matches_hand_chain(models_dir, w_detect):
    from bigrs.language import elaborate, parse

    src = (models_dir / "virus.big").read_text()
    src = src.replace("float w_detect = 5.0;", f"float w_detect = {w_detect}.0;")
    engine = build_transition_system(elaborate(parse(src)))
    hand, states = virus_hand_chain(Fraction(1), Fraction(5), Fraction(w_detect))
    assert engine.n_states == hand.n_states
    engine_transitions = sum(len(e) for r in engine.rows for _, e in r)
    hand_transitions = sum(len(e) for r in hand.rows for _, e in r)
    assert engine_transitions == hand_transitions
    for n in (1, 2, 3, 5, 8, 13, 21, 34):
        a = exact_bounded_reach(engine, "all_infected", n)
        b = exact_bounded_reach(hand, "all_infected", n)
        assert a == b, f"horizon {n}: engine {a} != hand {b}"


# ---------------------------------------------------------------------------
# membrane budding: the population counters (attached coats, bud particles)
# make an explicit CTMC
# ---------------------------------------------------------------------------


def budding_hand_chain(cmax=50, pmax=20, rc=1, rd=1, re=Fraction(1, 4),
                       rf=Fraction(1, 50)):
    pre = {}
    post = {}
    states = []

    def add(key):
        states.append(key)
        return len(states) - 1

    for c in range(cmax + 1):
        for n in range(pmax + 1):
            pre[(c, n)] = add(("pre", c, n))
    for n in range(pmax + 1):
        post[n] = add(("post", n))
    rows = []
    for key in states:
        kind = key[0]
        if kind == "post":
            rows.append({})
            continue
        _, c, n = key
        row = {}
        if c < cmax:
            row[pre[(c + 1, n)]] = rc * Fraction(cmax - c)
        m = pmax - n
        if m > 0:
            row[pre[(c, n + 1)]] = rd * Fraction(m)
        if n > 0:
            row[pre[(c, n - 1)]] = re * Fraction(n)
        if c >= 1:
            row[post[n]] = rf * Fraction(c)
        rows.append(row)
    labels = [
        {f"particles({key[1]})"} if key[0] == "post" else set() for key in states
    ]
    # states reachable from (0, 0) only; trim the rest like the engine does
    reachable = set()
    stack = [pre[(0, 0)]]
    while stack:
        i = stack.pop()
        if i in reachable:
            continue
        reachable.add(i)
        stack.extend(rows[i])
    keep = sorted(reachable)
    remap = {old: new for new, old in enumerate(keep)}
    rows = [
        {remap[j]: r for j, r in rows[i].items()} for i in keep
    ]
    labels = [labels[i] for i in keep]
    return hand_ts("sbrs", rows, labels)


def test_budding_engine_matches_hand_chain(budding_ts):
    engine = budding_ts
    hand = budding_hand_chain()
    assert engine.n_states == hand.n_states
    assert len(engine.rows.succ) == len(hand.rows.succ)

    def rates(ts):
        return sorted(
            tuple(sorted(m for _, e in r for m in e.values())) for r in ts.rows
        )

    # exit-rate multisets must agree exactly
    engine_rates, hand_rates = rates(engine), rates(hand)
    assert engine_rates == hand_rates
    for n in (0, 5, 12, 19, 20):
        a = ctmc_reach(engine, f"particles({n})").value
        b = ctmc_reach(hand, f"particles({n})").value
        assert abs(a - b) <= 1e-9, f"particles({n}): {a} vs {b}"


# ---------------------------------------------------------------------------
# mobile sink: (phase, position, buffer) with positions
# 0=close, 1=mid, 2=far, 3=out
# ---------------------------------------------------------------------------


def mobile_sink_hand_mdp(bmax=4, w_receive=6):
    states = []
    index = {}
    for phase in "MA":
        for pos in range(4):
            for buf in range(bmax + 1):
                index[(phase, pos, buf)] = len(states)
                states.append((phase, pos, buf))

    def d(entries):
        return {index[s]: Fraction(p) for s, p in entries.items()}

    moves = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    rows = []
    action_rewards = {"a_move": Fraction(0), "a_receive": Fraction(0),
                      "a_receive_full": Fraction(1), "a_send_close": Fraction(1),
                      "a_send_mid": Fraction(2), "a_send_far": Fraction(3)}
    for phase, pos, buf in states:
        row = []
        if phase == "M":
            targets = moves[pos]
            share = Fraction(1, len(targets))
            row.append(
                (
                    "a_move",
                    d({("A", p2, buf): share for p2 in targets}),
                )
            )
        else:
            if buf < bmax:
                row.append(
                    (
                        "a_receive",
                        d(
                            {
                                ("M", pos, buf + 1): Fraction(
                                    w_receive, w_receive + 1
                                ),
                                ("M", pos, buf): Fraction(1, w_receive + 1),
                            }
                        ),
                    )
                )
            else:
                row.append(("a_receive_full", d({("M", pos, buf): 1})))
            if buf >= 1 and pos <= 2:
                name = ("a_send_close", "a_send_mid", "a_send_far")[pos]
                row.append((name, d({("M", pos, 0): 1})))
        row.sort(key=lambda e: e[0])
        rows.append(row)
    labels = [
        {"buf_full"} if buf == bmax else set() for _, _, buf in states
    ]
    ts = hand_ts("abrs", rows, labels, action_rewards=action_rewards)
    return ts, index[("M", 2, 0)]


def test_mobile_sink_engine_matches_hand_mdp(models_dir):
    engine = build_transition_system(load_model(models_dir / "mobile_sink.big"))
    hand, start = mobile_sink_hand_mdp()
    assert engine.n_states == hand.n_states

    def shift_initial(ts, start):
        # the hand MDP enumerates all states; value iteration reads state 0,
        # so rotate the indexing to put the start state first
        order = [start] + [i for i in range(ts.n_states) if i != start]
        remap = {old: new for new, old in enumerate(order)}
        rows = []
        for old in order:
            rows.append(
                [
                    (name, {remap[j]: p for j, p in dist.items()})
                    for name, dist in ts.rows[old]
                ]
            )
        return TransitionSystem(
            kind="abrs",
            states=[ts.states[old] for old in order],
            rows=rows,
            labels=[ts.labels[old] for old in order],
            label_names=ts.label_names,
            state_reward=[ts.state_reward[old] for old in order],
            action_reward=ts.action_reward,
        )

    hand = shift_initial(hand, start)
    for k in (1, 7, 100, 4000):
        for mode in ("min", "max"):
            a = mdp_expected_cost(engine, k, mode)
            b = mdp_expected_cost(hand, k, mode)
            assert abs(a - b) <= 1e-9 * max(1, abs(b)), (k, mode, a, b)
