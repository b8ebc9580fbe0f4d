"""Transition-system construction: normalization, labelling, determinism."""

import gc
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import MappingProxyType

import pytest

from bigrs.bigraph import (
    Bigraph,
    ControlDecl,
    close_name,
    ion,
    lean,
    merge_parallel,
)
from bigrs.canon import canonical_key
from bigrs.language import load_model
from bigrs.export import (
    export_json,
    render_dot,
    render_lab,
    render_tra,
    render_trew,
)
from bigrs.system import (
    KINDS,
    ActionDecl,
    DoubleRangeError,
    PredicateDecl,
    StateCapError,
    SystemError_,
    StateStore,
    SystemSpec,
    TransitionStore,
    TransitionSystem,
    WeightedRule,
    build_transition_system,
)
from bigrs.walk import simulate

from oracles import (
    action_step,
    key_index,
    next_distribution,
    next_rates,
    reference_closure,
    system_to_json,
    to_json,
)

SIG = {
    "BS": ControlDecl("BS", 1, atomic=True),
    "S": ControlDecl("S", 1, atomic=True),
}


def sensors(n_ok, n_failed):
    b = ion(SIG, "BS", (), ["b"])
    for _ in range(n_ok):
        b = merge_parallel(b, ion(SIG, "S", (), ["b"]))
    b = close_name(b, "b")
    for _ in range(n_failed):
        b = merge_parallel(b, close_name(ion(SIG, "S", (), ["y"]), "y"))
    return b


def rules(w_fail=2, w_con=1):
    linked = merge_parallel(ion(SIG, "BS", (), ["x"]), ion(SIG, "S", (), ["x"]))
    broken = merge_parallel(
        ion(SIG, "BS", (), ["x"]), close_name(ion(SIG, "S", (), ["y"]), "y")
    )
    fail = WeightedRule("fail", linked, broken, Fraction(w_fail))
    recover = WeightedRule("recover", broken, linked, Fraction(w_con))
    return fail, recover


def test_rule_validation():
    linked = merge_parallel(ion(SIG, "BS", (), ["x"]), ion(SIG, "S", (), ["x"]))
    with pytest.raises(SystemError_, match="interface"):
        WeightedRule("bad", linked, ion(SIG, "S", (), ["y"]), Fraction(1))
    with pytest.raises(SystemError_, match="negative"):
        WeightedRule("bad", linked, linked, Fraction(-1))


def test_total_weight_fig_values():
    fail, recover = rules()
    g0, g1 = sensors(3, 0), sensors(2, 1)
    # three concrete failures, aggregated weight 3*w_fail
    from_g0 = next_rates(g0, [fail, recover])
    assert from_g0[canonical_key(g1)][1] == 3 * fail.weight
    assert canonical_key(g0) not in from_g0  # no weight back to g0 itself
    from_g1 = next_rates(g1, [fail, recover])
    assert sum(m for _, m in from_g1.values()) == 2 * fail.weight + recover.weight


def test_next_distribution_values():
    fail, recover = rules(2, 1)
    g0, g1, g2, g3 = sensors(3, 0), sensors(2, 1), sensors(1, 2), sensors(0, 3)
    d0 = next_distribution(g0, [fail, recover])
    assert list(d0.values())[0][1] == 1 and len(d0) == 1
    d1 = next_distribution(g1, [fail, recover])
    probs = sorted(p for _, p in d1.values())
    assert probs == [Fraction(1, 5), Fraction(4, 5)]
    d3 = next_distribution(g3, [fail, recover])
    (succ, p), = d3.values()
    assert p == 1 and canonical_key(succ) == canonical_key(g2)


def test_next_distribution_delta_when_nothing_applies():
    _, recover = rules()
    g0 = sensors(3, 0)
    d = next_distribution(g0, [recover])
    assert d == {canonical_key(g0): (g0, Fraction(1))}
    # weight-0 rules are never applied: also the delta
    fail0 = replace_weight(rules()[0], 0)
    d = next_distribution(g0, [fail0])
    assert list(d.values())[0][1] == 1


def replace_weight(rule, w):
    return WeightedRule(rule.name, rule.redex, rule.reactum, Fraction(w))


def test_next_rates():
    fail, recover = rules(3, 7)
    g0, g1 = sensors(3, 0), sensors(2, 1)
    r = next_rates(g0, [fail, recover])
    (succ, rate), = r.values()
    assert rate == 9  # 3 occurrences at rate 3
    assert next_rates(sensors(0, 0), [fail]) == {}  # CTMC terminal allowed


def test_action_step_per_action_normalization():
    fail, recover = rules(2, 1)
    g1 = sensors(2, 1)
    a_fail = ActionDecl("a_fail", (fail,))
    a_fix = ActionDecl("a_fix", (recover,))
    steps = action_step(g1, [a_fail, a_fix])
    assert [a.name for a, _ in steps] == ["a_fail", "a_fix"]
    for _, dist in steps:
        assert sum(p for _, p in dist.values()) == 1
    # actions that do not apply are absent
    assert action_step(sensors(3, 0), [a_fix]) == []


def hand_built(kind, rows, **fields):
    return TransitionSystem(
        kind=kind,
        states=[(f"s{i}".encode(), None) for i in range(len(rows))],
        rows=rows,
        **fields,
    )


_HUGE = Fraction(10**400)  # beyond the double range
_LARGE = Fraction(int(1e308))  # a double, but not twice over
_ONE = [(None, {0: Fraction(1)})]
_TINY = Fraction(1, 10**400)  # positive, but its double is 0

# (id, kind, rows, whether the TransitionSystem constructor accepts them)
ROW_CASES = [
    ("exact-mass-below-1", "pbrs", [[(None, {0: Fraction(1, 2)})]], False),
    ("exact-mass-above-1", "abrs",
     [[("a", {0: Fraction(1), 1: Fraction(1, 3)})], []], False),
    ("float-mass-beyond-1e-12", "pbrs",
     [[(None, {0: 0.5, 1: 0.5 + 1e-11})]] * 2, False),
    ("float-mass-within-1e-12", "pbrs",
     [[(None, {0: 0.5, 1: 0.5 + 1e-13})]] * 2, True),
    ("zero-entry", "pbrs", [[(None, {0: Fraction(0), 1: Fraction(1)})]], False),
    ("zero-rate", "sbrs", [[(None, {0: Fraction(0)})]], False),
    ("empty-choice", "abrs", [[("a", {})]], False),
    ("empty-rate-choice", "sbrs", [[(None, {})]], False),
    ("pbrs-row-of-0-choices", "pbrs", [[]], False),
    ("pbrs-row-of-2-choices", "pbrs",
     [[(None, {0: Fraction(1)}), (None, {0: Fraction(1)})]], False),
    ("sbrs-row-of-2-choices", "sbrs",
     [[(None, {0: Fraction(1)}), (None, {0: Fraction(2)})]], False),
    ("brs-row-of-2-choices", "brs", [[(None, {0: 1}), (None, {0: 1})]], False),
    ("unknown-kind", "qbrs", [[]], False),
    ("rates-summing-to-a-double", "sbrs",
     [[(None, {0: _LARGE, 1: Fraction(int(7e307))})], []], True),
    ("successor-beyond-the-states", "pbrs", [[(None, {5: Fraction(1)})]], False),
    ("negative-successor", "sbrs", [[(None, {-1: Fraction(1)})]], False),
    ("infinite-rate", "sbrs", [[(None, {0: float("inf")})]], False),
    ("nan-rate", "sbrs", [[(None, {0: float("nan")})]], False),
]


@pytest.mark.parametrize(
    "kind, rows, accepted", [c[1:] for c in ROW_CASES],
    ids=[c[0] for c in ROW_CASES],
)
def test_row_invariants(kind, rows, accepted):
    if accepted:
        assert hand_built(kind, rows).rows == rows
    else:
        with pytest.raises(SystemError_):
            hand_built(kind, rows)


@pytest.mark.parametrize("field, values", [
    ("rows", [_ONE, _ONE]),
    ("labels", [frozenset(), frozenset()]),
    ("state_reward", [Fraction(0)] * 2),
    ("action_reward", [{}, {}]),
])
def test_lists_longer_than_the_states_are_refused(field, values):
    # one state, so a second row would be exported as a state that is not
    fields = {"rows": [_ONE], field: values}
    with pytest.raises(SystemError_, match=f"^2 {field} for 1 states$"):
        TransitionSystem(kind="pbrs", states=[(b"s0", None)], **fields)


def test_constructor_copies_only_rows_out_of_order():
    # the rows are packed into the store: the caller's list and rows stay
    # as given, and rows given out of order read back in stored order
    ordered = [("a", {0: Fraction(1, 3), 1: Fraction(2, 3)}), ("b", {1: Fraction(1)})]
    by_name = [("b", {1: Fraction(1)}), ("a", {0: Fraction(1)})]
    by_index = [("a", {1: Fraction(2, 3), 0: Fraction(1, 3)})]
    rows = [ordered, by_name, by_index]
    given = [[(a, list(es.items())) for a, es in row] for row in rows]
    ts = hand_built("abrs", rows)
    assert isinstance(ts.rows, TransitionStore)
    assert ts.rows[0] == ordered and ts.rows == [ts.rows[i] for i in range(3)]
    assert ts.rows[1] == [("a", {0: Fraction(1)}), ("b", {1: Fraction(1)})]
    assert [list(es) for _, es in ts.rows[2]] == [[0, 1]]
    assert [[(a, list(es.items())) for a, es in row] for row in rows] == given
    assert rows[1] is by_name and rows[2][0][1] is by_index[0][1]
    # a row read back is made afresh, and the store cannot be written
    ts.rows[0][0][1][0] = Fraction(1)
    assert ts.rows[0] == ordered
    with pytest.raises(TypeError):
        ts.rows[0] = []
    # a brs keeps its successors in the order given
    brs_row = [(None, {1: 1, 0: 1})]
    assert [list(es) for _, es in hand_built("brs", [brs_row, []]).rows[0]] == [[1, 0]]


@pytest.mark.parametrize(
    "name", ["wsn_ts", "send_mdp_ts", "virus_ts", "budding_ts", "sink2_ts"]
)
def test_closure_rows_are_kept_as_built(request, name):
    # `replace` shares the closure's store and does not repack it; packing
    # the same rows given as lists writes the very same arrays
    ts = request.getfixturevalue(name)
    assert replace(ts).rows is ts.rows
    repacked = replace(ts, rows=list(ts.rows)).rows
    assert repacked is not ts.rows and repacked == ts.rows
    for part in ("choice_at", "action", "entry_at", "succ", "mass", "names",
                 "masses", "doubles"):
        assert getattr(repacked, part) == getattr(ts.rows, part)


# (closure, entries, distinct masses); the store's arrays take at most
# 16 bytes an entry, with every choice offset, state offset and double
STORE_FOOTPRINT = [
    ("budding_ts", 4_140, 113),
    ("virus_ts", 1_357, 55),
    ("sink2_ts", 2_800, 7),
]


@pytest.mark.parametrize("name, entries, masses", STORE_FOOTPRINT)
def test_store_footprint(request, name, entries, masses):
    rows = request.getfixturevalue(name).rows
    assert (len(rows.succ), len(rows.masses)) == (entries, masses)
    arrays = (rows.choice_at, rows.action, rows.entry_at, rows.succ, rows.mass,
              rows.doubles)
    assert sum(map(sys.getsizeof, arrays)) <= 16 * entries


@pytest.mark.parametrize("name", ["virus_ts", "sink2_ts"])
def test_equal_marks_are_one_object(request, name):
    # equal label sets, state rewards and action-reward maps of one closure
    ts = request.getfixturevalue(name)
    for values in (ts.labels, ts.state_reward, ts.action_reward):
        first: dict = {}
        for v in values:
            key = tuple(sorted(v.items())) if isinstance(v, dict) else v
            assert first.setdefault(key, v) is v
        assert len(first) < ts.n_states


def test_build_peak_is_near_its_retained_memory(models_dir):
    # rows are made once, so the build holds no copy of them at its end
    spec = load_model(models_dir.parent / "bench/models/mobile_sink2.big")
    gc.collect()
    tracemalloc.start()
    try:
        ts = build_transition_system(spec)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ts.n_states == 820
    assert peak - retained <= 2**20


# (id, kind, rows, other fields, the error's text); one state but for "sum"
DOUBLE_CASES = [
    ("rate", "sbrs", [[(None, {0: _HUGE})]], {}, "state 0: rate beyond"),
    ("sum", "sbrs", [_ONE, [(None, {0: _LARGE, 1: _LARGE})]], {},
     "state 1: rate beyond"),
    ("state-reward", "pbrs", [_ONE], {"state_reward": [_HUGE]},
     "state 0: state reward beyond"),
    ("action-reward", "abrs", [[("go", {0: Fraction(1)})]],
     {"action_reward": [{"go": _HUGE}]}, "state 0: reward of action go beyond"),
    ("tiny-rate", "sbrs", [[(None, {0: _TINY})]], {}, "state 0: rate below"),
    ("tiny-probability", "pbrs", [[(None, {0: 1 - _TINY, 1: _TINY})], _ONE], {},
     "state 0: probability below"),
    ("tiny-abrs-probability", "abrs", [[("go", {0: 1 - _TINY, 1: _TINY})], []],
     {}, "state 0: probability below"),
    ("tiny-state-reward", "pbrs", [_ONE], {"state_reward": [_TINY]},
     "state 0: state reward below"),
]


@pytest.mark.parametrize(
    "kind, rows, fields, text", [c[1:] for c in DOUBLE_CASES],
    ids=[c[0] for c in DOUBLE_CASES],
)
def test_rates_and_rewards_beyond_the_double_range_are_refused(
    kind, rows, fields, text
):
    with pytest.raises(DoubleRangeError, match=f"^{text} the double range$"):
        hand_built(kind, rows, **fields)


def test_mdp_choices_stored_in_name_order():
    # hand-built choices out of name order, entries out of index order:
    # stored sorted, so every export equals that of the sorted rows
    rewards = [{"go": Fraction(3, 2), "back": Fraction(0)}, {}]
    shuffled = hand_built(
        "abrs",
        [[("go", {1: Fraction(1, 3), 0: Fraction(2, 3)}),
          ("back", {0: Fraction(1)})], []],
        action_reward=rewards,
    )
    ordered = hand_built(
        "abrs",
        [[("back", {0: Fraction(1)}),
          ("go", {0: Fraction(2, 3), 1: Fraction(1, 3)})], []],
        action_reward=rewards,
    )
    assert [list(d.items()) for _, d in shuffled.rows[0]] == [
        list(d.items()) for _, d in ordered.rows[0]
    ]
    for render in (render_tra, render_lab, render_trew, render_dot):
        assert render(shuffled) == render(ordered)
    assert system_to_json(shuffled) == system_to_json(ordered)


def build_wsn(w_fail=2, w_con=1, **kw):
    fail, recover = rules(w_fail, w_con)
    spec = SystemSpec("pbrs", SIG, sensors(3, 0), (fail, recover))
    return build_transition_system(spec, **kw)


def test_build_wsn_dtmc_exact():
    ts = build_wsn()
    assert ts.kind == "pbrs" and ts.n_states == 4
    rows = [dist for (_, dist), in ts.rows]
    assert rows[0] == {1: Fraction(1)}
    assert rows[1] == {0: Fraction(1, 5), 2: Fraction(4, 5)}
    assert rows[2] == {1: Fraction(1, 2), 3: Fraction(1, 2)}
    assert rows[3] == {2: Fraction(1)}


def test_pbrs_rows_equal_per_state_distributions():
    # the built DTMC row at every state equals next_distribution recomputed
    fail, recover = rules(2, 1)
    ts = build_wsn()
    index = key_index(ts)
    for i, (key, s) in enumerate(ts.states):
        g = s.bigraph()
        recomputed = {
            index[k]: p for k, (_, p) in next_distribution(g, [fail, recover]).items()
        }
        assert ts.rows[i] == [(None, recomputed)]


def test_weight_scaling_invariance():
    base = build_wsn(2, 1)
    scaled = build_wsn(14, 7)
    assert base.rows == scaled.rows


def test_initial_delta_when_no_rule_applies():
    _, recover = rules()
    spec = SystemSpec("pbrs", SIG, sensors(3, 0), (recover,))
    ts = build_transition_system(spec)
    assert ts.n_states == 1
    assert ts.rows[0] == [(None, {0: Fraction(1)})]


def test_sbrs_build():
    fail, recover = rules(3, 1)
    spec = SystemSpec("sbrs", SIG, sensors(3, 0), (fail, recover))
    ts = build_transition_system(spec)
    assert ts.kind == "sbrs" and ts.n_states == 4
    assert ts.rows[0] == [(None, {1: Fraction(9)})]
    assert ts.rows[1] == [(None, {0: Fraction(1), 2: Fraction(6)})]


def test_brs_build_successor_sets():
    fail, recover = rules()
    spec = SystemSpec("brs", SIG, sensors(3, 0), (fail, recover))
    ts = build_transition_system(spec)
    assert ts.kind == "brs" and ts.n_states == 4
    assert ts.rows[0] == [(None, {1: 1})]
    ((_, succs),) = ts.rows[1]
    assert set(succs) == {0, 2}


def test_abrs_build_and_lemma2_fixed_policy():
    # fixing one applicable action per state turns the MDP into the DTMC
    # built from just that action's rules
    fail, recover = rules(2, 1)
    a_fail = ActionDecl("a_fail", (fail,))
    a_fix = ActionDecl("a_fix", (recover,))
    spec = SystemSpec(
        "abrs", SIG, sensors(3, 0), (fail, recover), actions=(a_fail, a_fix)
    )
    ts = build_transition_system(spec)
    for i, row in enumerate(ts.rows):
        g = ts.states[i][1].bigraph()
        per_action = dict(row)
        for action in (a_fail, a_fix):
            if action.name in per_action:
                index = key_index(ts)
                want = {
                    index[k]: p
                    for k, (_, p) in next_distribution(g, action.rules).items()
                    if k in index
                }
                assert per_action[action.name] == want


def test_abrs_zero_weight_action_is_delta():
    # an applicable action whose rules all weigh zero keeps the system in
    # place rather than erroring
    fail, recover = rules()
    fail0 = replace_weight(fail, 0)
    spec = SystemSpec(
        "abrs",
        SIG,
        sensors(2, 0),
        (fail0, recover),
        actions=(
            ActionDecl("a_fail", (fail0,)),
            ActionDecl("a_fix", (recover,)),
        ),
    )
    ts = build_transition_system(spec)
    assert ts.n_states == 1
    (row,) = ts.rows
    assert row == [("a_fail", {0: Fraction(1)})]


def test_abrs_terminal_state_empty_row():
    fail, _ = rules()
    spec = SystemSpec(
        "abrs",
        SIG,
        sensors(1, 0),
        (fail,),
        actions=(ActionDecl("a_fail", (fail,)),),
    )
    ts = build_transition_system(spec)
    terminal = [i for i, row in enumerate(ts.rows) if not row]
    assert len(terminal) == 1  # the failed state has no applicable action


@pytest.mark.parametrize("kind", KINDS)
def test_state_cap_carries_partial(kind):
    fail, recover = rules()
    actions = (
        (ActionDecl("a_fail", (fail,)), ActionDecl("a_fix", (recover,)))
        if kind == "abrs" else ()
    )
    spec = SystemSpec(kind, SIG, sensors(3, 0), (fail, recover), actions=actions)
    with pytest.raises(StateCapError) as err:
        build_transition_system(spec, max_states=2)
    partial = err.value.partial
    assert isinstance(partial, TransitionSystem)
    assert not partial.complete
    assert partial.n_states == 2
    # state 0 leads only to state 1 and keeps its row; state 1 leads to a
    # state beyond the cap, so its row is the filler: the delta on itself
    # for a DTMC, terminal otherwise
    assert [j for _, d in partial.rows[0] for j in d] == [1]
    assert partial.rows[1] == ([(None, {1: 1})] if kind == "pbrs" else [])
    if kind == "pbrs":
        for row in partial.rows:  # filler rows keep the DTMC shape
            assert abs(float(sum(p for _, d in row for p in d.values())) - 1) < 1e-12


def test_label_and_reward():
    fail, recover = rules()
    all_failed = PredicateDecl(
        "all_failed",
        merge_parallel(
            merge_parallel(
                close_name(ion(SIG, "S", (), ["y"]), "y"),
                close_name(ion(SIG, "S", (), ["y"]), "y"),
            ),
            close_name(ion(SIG, "S", (), ["y"]), "y"),
        ),
        reward=Fraction(7),
    )
    some_ok = PredicateDecl(
        "some_ok",
        merge_parallel(ion(SIG, "BS", (), ["x"]), ion(SIG, "S", (), ["x"])),
        reward=Fraction(2),
    )
    spec = SystemSpec(
        "pbrs", SIG, sensors(3, 0), (fail, recover), predicates=(all_failed, some_ok)
    )
    ts = build_transition_system(spec)
    assert ts.labels[0] == {"some_ok"}
    assert ts.labels[3] == {"all_failed"}
    assert ts.state_reward[0] == 2
    assert ts.state_reward[3] == 7
    assert ts.label_names == ("all_failed", "some_ok")


def test_kind_validation():
    fail, recover = rules()
    with pytest.raises(SystemError_):
        SystemSpec("qbrs", SIG, sensors(1, 0), (fail,))
    from bigrs.bigraph import hole

    with pytest.raises(SystemError_, match="ground"):
        SystemSpec("pbrs", SIG, hole(SIG), (fail,))
    with pytest.raises(SystemError_, match="action"):
        SystemSpec("abrs", SIG, sensors(1, 0), (fail,))
    with pytest.raises(SystemError_, match="outside"):
        SystemSpec(
            "abrs",
            SIG,
            sensors(1, 0),
            (fail, recover),
            actions=(ActionDecl("a", (fail,)),),
        )


def test_build_determinism_same_indexing():
    a = build_wsn()
    b = build_wsn()
    assert [k for k, _ in a.states] == [k for k, _ in b.states]
    assert a.rows == b.rows


# ---------------------------------------------------------------------------
# the closure against a plain key-indexed search, at every cap
# ---------------------------------------------------------------------------


def _closure(spec, cap):
    try:
        return build_transition_system(spec, max_states=cap)
    except StateCapError as err:
        return err.partial


def _sensor_spec(kind):
    fail, recover = rules()
    actions = (
        (ActionDecl("a_fail", (fail,), Fraction(3)), ActionDecl("a_fix", (recover,)))
        if kind == "abrs" else ()
    )
    some_ok = PredicateDecl("some_ok", recover.reactum, Fraction(2))
    return SystemSpec(
        kind, SIG, sensors(3, 0), (fail, recover), actions, (some_ok,)
    )


@pytest.mark.parametrize(
    "name", ["wsn", "send_mdp", "mobile_sink", "virus", *KINDS]
)
def test_closure_matches_reference_at_every_cap(models_dir, name):
    # every cap up to the whole system; on virus, whose first six BFS
    # levels hold 1, 1, 2, 3, 6 and 9 states, every cap within the first
    # five levels, one inside the sixth and the one at its end
    if name in KINDS:
        spec = _sensor_spec(name)
    else:
        spec = load_model(models_dir / f"{name}.big")
    if name == "virus":
        caps = [*range(1, 14), 17, 22]
    else:
        caps = range(1, reference_closure(spec).n_states + 1)
    for cap in caps:
        ts, ref = _closure(spec, cap), reference_closure(spec, cap)
        assert [k for k, _ in ts.states] == [k for k, _ in ref.states], cap
        assert [to_json(s.bigraph()) for _, s in ts.states] == [
            to_json(s.bigraph()) for _, s in ref.states
        ], cap
        # entry order too, which a brs row keeps
        assert [[(a, list(es.items())) for a, es in row] for row in ts.rows] == [
            [(a, list(es.items())) for a, es in row] for row in ref.rows
        ], cap
        assert (ts.labels, ts.label_names) == (ref.labels, ref.label_names), cap
        assert ts.state_reward == ref.state_reward, cap
        assert ts.action_reward == ref.action_reward, cap
        assert ts.complete == ref.complete, cap
    assert ts.complete == (name != "virus")


def _count_constructions(monkeypatch) -> list:
    """Record every `Bigraph.__init__` call from here on."""
    calls: list = []
    init = Bigraph.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Bigraph, "__init__", counted)
    return calls


@pytest.mark.parametrize("name", ["virus", "budding"])
def test_closure_and_json_export_build_no_bigraph(
    models_dir, name, monkeypatch, tmp_path
):
    # every state is kept as its form's arrays, and the export writes
    # each state's document from them
    spec = load_model(models_dir / f"{name}.big")
    calls = _count_constructions(monkeypatch)
    lean(spec.initial)
    by_lean = len(calls)
    calls.clear()
    ts = build_transition_system(spec)
    assert len(calls) == by_lean
    export_json(ts, tmp_path, name)
    assert len(calls) == by_lean


def test_walk_builds_no_bigraph_beyond_the_initial_state(models_dir, monkeypatch):
    # every state is expanded and keyed as a form
    spec = load_model(models_dir.parent / "bench/models/mobile_sink2.big")
    expanded: list = []
    expand = StateStore.expand

    def recorded(self, i):
        expanded.append(i)
        return expand(self, i)

    monkeypatch.setattr(StateStore, "expand", recorded)
    calls = _count_constructions(monkeypatch)
    lean(spec.initial)
    by_lean = len(calls)
    calls.clear()
    trace = simulate(spec, 400, seed=5)
    assert len(trace) == 400 and len(set(expanded)) == len(expanded) > 50
    assert len(calls) == by_lean


def test_closure_states_share_one_signature(budding_ts):
    # a splice whose reactum adds no control keeps its host's read-only
    # signature, so one model's states hold one between them
    sigs = {id(g.signature): g.signature for _, g in budding_ts.states}
    assert len(sigs) == 1
    assert all(isinstance(sig, MappingProxyType) for sig in sigs.values())
