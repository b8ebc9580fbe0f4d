"""PRISM bundles, DOT, JSON, re-import, and trace simulation."""

import hashlib
import json
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bigrs.analysis import dtmc_bounded_reach, dtmc_reach
from bigrs.canon import canonical_key
from bigrs import export
from bigrs.export import (
    ExportError,
    export_json,
    export_prism,
    render_dot,
    render_lab,
    render_srew,
    render_tra,
    render_trew,
    rewards_to_states,
)
from bigrs.language import elaborate, load_model, parse
from bigrs import system
from bigrs.walk import simulate
from bigrs.system import StateCapError, TransitionSystem, build_transition_system

from oracles import load_prism_dtmc, reference_simulate, system_to_json

WSN_TRA = """4 6
0 1 1
1 0 0.20000000000000001
1 2 0.80000000000000004
2 1 0.5
2 3 0.5
3 2 1
"""

WSN_LAB = """0="init" 1="all_failed"
0: 0
3: 1
"""

MDP_TRA = """3 4 5
0 0 1 0.16666666666666666 a_send
0 0 2 0.83333333333333337 a_send
0 1 0 1 a_wait
1 0 0 1 a_reset
2 0 2 1 tau
"""


def test_wsn_tra_and_lab_exact(wsn_ts):
    assert render_tra(wsn_ts) == WSN_TRA
    assert render_lab(wsn_ts) == WSN_LAB


def test_mdp_tra_exact(send_mdp_ts):
    assert render_tra(send_mdp_ts) == MDP_TRA


def test_tra_rows_sum_to_one_after_printing(wsn_ts, send_mdp_ts):
    sums = {}
    for line in render_tra(wsn_ts).splitlines()[1:]:
        src, _, p = line.split()
        sums[src] = sums.get(src, 0.0) + float(p)
    assert all(abs(s - 1) <= 1e-9 for s in sums.values())
    sums = {}
    for line in render_tra(send_mdp_ts).splitlines()[1:]:
        src, choice, _, p, _ = line.split()
        sums[(src, choice)] = sums.get((src, choice), 0.0) + float(p)
    assert all(abs(s - 1) <= 1e-9 for s in sums.values())


def test_lab_contains_only_init_when_unlabelled():
    ts = TransitionSystem(
        kind="pbrs",
        states=[(b"s0", None)],
        rows=[[(None, {0: Fraction(1)})]],
        labels=[frozenset()],
        state_reward=[Fraction(0)],
        action_reward=[{}],
    )
    assert render_lab(ts) == '0="init"\n0: 0\n'


def test_srew_nonzero_rows(wsn_ts, models_dir):
    # wsn has no rewards: header only
    assert render_srew(wsn_ts) == "4 0\n"


def test_brs_has_no_prism_format():
    ts = TransitionSystem(kind="brs", states=[(b"s", None)], rows=[[]])
    with pytest.raises(ExportError):
        render_tra(ts)


def test_bundle_writing_and_reimport(tmp_path, wsn_ts):
    bundle = export_prism(wsn_ts, tmp_path, "wsn")
    assert bundle.manifest.keys() == {"tra", "lab"}
    back = load_prism_dtmc(bundle.tra_file, bundle.lab_file)
    for n in (0, 3, 17):
        a = dtmc_bounded_reach(wsn_ts, "all_failed", n)
        b = dtmc_bounded_reach(back, "all_failed", n)
        assert abs(a - b) <= 1e-9
    assert (
        abs(
            dtmc_reach(wsn_ts, "all_failed").value
            - dtmc_reach(back, "all_failed").value
        )
        <= 1e-9
    )


def test_exports_byte_identical_across_builds(models_dir, tmp_path):
    model = models_dir / "wsn.big"
    outs = []
    for run in ("a", "b"):
        ts = build_transition_system(load_model(model))
        bundle = export_prism(ts, tmp_path / run, "wsn")
        outs.append(
            {role: path.read_bytes() for role, path in bundle.manifest.items()}
        )
    assert outs[0] == outs[1]


def test_trew_rows(send_mdp_ts, models_dir):
    spec = load_model(models_dir / "mobile_sink.big")
    ts = build_transition_system(spec)
    text = render_trew(ts)
    header = text.splitlines()[0].split()
    assert int(header[0]) == ts.n_states
    assert int(header[1]) == len(text.splitlines()) - 1
    assert len(text.splitlines()) > 1  # rewarded actions exist


def test_rewards_to_states_folding():
    # two actions from s0 to an absorbing s1; costs 0 and 2
    ts = TransitionSystem(
        kind="abrs",
        states=[(b"s0", None), (b"s1", None)],
        rows=[
            [
                ("free", {1: Fraction(1)}),
                ("paid", {1: Fraction(1)}),
            ],
            [],
        ],
        labels=[frozenset(), frozenset({"done"})],
        state_reward=[Fraction(0), Fraction(0)],
        action_reward=[{"free": Fraction(0), "paid": Fraction(2)}, {}],
    )
    folded = rewards_to_states(ts)
    assert folded.n_states == 3  # s1 split into charged and uncharged copies
    for row in folded.rows:  # stored in name and then index order
        assert [a for a, _ in row] == sorted(a for a, _ in row)
        assert all(list(es) == sorted(es) for _, es in row)
    assert all(all(r == 0 for r in per.values()) for per in folded.action_reward)
    charged = [i for i, ls in enumerate(folded.labels) if "charged(2)" in ls]
    assert len(charged) == 1
    assert folded.state_reward[charged[0]] == 2
    assert {"done"} <= set(folded.labels[charged[0]])


def test_dot_output(wsn_ts, send_mdp_ts):
    single = TransitionSystem(
        kind="pbrs",
        states=[(b"s0", None)],
        rows=[[(None, {0: Fraction(1)})]],
        labels=[frozenset()],
    )
    dot = render_dot(single)
    assert dot.count("->") == 1 and 's0 -> s0 [label="1"]' in dot
    dot = render_dot(wsn_ts)
    assert dot.count("->") == 6
    assert len([l for l in dot.splitlines() if "[label=" in l and "->" not in l]) == 4
    dot = render_dot(send_mdp_ts)
    assert "a_send:0.833333" in dot


def test_system_json(wsn_ts):
    doc = system_to_json(wsn_ts)
    assert doc["states"] == 4
    assert len(doc["transitions"]) == 6
    assert doc["labels"]["3"] == ["all_failed"]
    assert len(doc["state_bigraphs"]) == 4
    json.dumps(doc)  # serializable


def _hand_built(kind, rows, labels, state_reward=None, action_reward=None):
    n = len(rows)
    return TransitionSystem(
        kind=kind,
        states=[(f"s{i}".encode(), None) for i in range(n)],
        rows=rows,
        labels=[frozenset(ls) for ls in labels],
        state_reward=state_reward or [Fraction(0)] * n,
        action_reward=action_reward or [{} for _ in range(n)],
    )


# successors stored out of index order (a built brs stores key order)
BRS = _hand_built(
    "brs",
    [[(None, {2: 1, 0: 1, 1: 1})], [(None, {0: 1})], []],
    [{"start"}, set(), {"end", "b"}],
)
# rates out of index order and a state with no exit rate
SBRS = _hand_built(
    "sbrs",
    [
        [(None, {2: Fraction(3), 0: Fraction(1, 3), 1: Fraction(1, 2)})],
        [(None, {2: Fraction(5, 2)})],
        [],
    ],
    [set(), {"mid"}, {"done"}],
    state_reward=[Fraction(0), Fraction(1, 4), Fraction(0)],
)
# actions out of name order and a terminal state
ABRS = _hand_built(
    "abrs",
    [
        [
            ("go", {2: Fraction(2, 3), 1: Fraction(1, 3)}),
            ("back", {0: Fraction(1)}),
        ],
        [("retry", {0: Fraction(1, 7), 2: Fraction(6, 7)})],
        [],
    ],
    [set(), {"failed"}, {"sent"}],
    state_reward=[Fraction(1), Fraction(0), Fraction(0)],
    action_reward=[
        {"go": Fraction(3, 2), "back": Fraction(0)},
        {"retry": Fraction(1)},
        {},
    ],
)

DOT_HEAD = "digraph ts {\n  node [shape=circle];\n"

PINNED_DOT = {
    "brs": DOT_HEAD + """  s0 [label="0: start"];
  s1 [label="1"];
  s2 [label="2: b,end"];
  s0 -> s2;
  s0 -> s0;
  s0 -> s1;
  s1 -> s0;
}
""",
    "sbrs": DOT_HEAD + """  s0 [label="0"];
  s1 [label="1: mid"];
  s2 [label="2: done"];
  s0 -> s0 [label="0.333333"];
  s0 -> s1 [label="0.5"];
  s0 -> s2 [label="3"];
  s1 -> s2 [label="2.5"];
}
""",
    "abrs": DOT_HEAD + """  s0 [label="0"];
  s1 [label="1: failed"];
  s2 [label="2: sent"];
  s0 -> s0 [label="back:1"];
  s0 -> s1 [label="go:0.333333"];
  s0 -> s2 [label="go:0.666667"];
  s1 -> s0 [label="retry:0.142857"];
  s1 -> s2 [label="retry:0.857143"];
}
""",
}

PINNED_JSON = {
    "brs": {
        "kind": "brs",
        "states": 3,
        "complete": True,
        "transitions": [
            {"src": 0, "dst": 2},
            {"src": 0, "dst": 0},
            {"src": 0, "dst": 1},
            {"src": 1, "dst": 0},
        ],
        "labels": {"0": ["start"], "2": ["b", "end"]},
        "state_bigraphs": [None, None, None],
    },
    "sbrs": {
        "kind": "sbrs",
        "states": 3,
        "complete": True,
        "transitions": [
            {"src": 0, "dst": 0, "rate": 0.3333333333333333},
            {"src": 0, "dst": 1, "rate": 0.5},
            {"src": 0, "dst": 2, "rate": 3.0},
            {"src": 1, "dst": 2, "rate": 2.5},
        ],
        "labels": {"1": ["mid"], "2": ["done"]},
        "state_rewards": {"1": 0.25},
        "state_bigraphs": [None, None, None],
    },
    "abrs": {
        "kind": "abrs",
        "states": 3,
        "complete": True,
        "transitions": [
            {"src": 0, "action": "back", "dst": 0, "prob": 1.0},
            {"src": 0, "action": "go", "dst": 1, "prob": 0.3333333333333333},
            {"src": 0, "action": "go", "dst": 2, "prob": 0.6666666666666666},
            {"src": 1, "action": "retry", "dst": 0, "prob": 0.14285714285714285},
            {"src": 1, "action": "retry", "dst": 2, "prob": 0.8571428571428571},
        ],
        "labels": {"1": ["failed"], "2": ["sent"]},
        "state_rewards": {"0": 1.0},
        "action_rewards": {"0": {"go": 1.5}, "1": {"retry": 1.0}},
        "state_bigraphs": [None, None, None],
    },
}


@pytest.mark.parametrize("ts", [BRS, SBRS, ABRS], ids=lambda ts: ts.kind)
def test_dot_and_json_exact(ts):
    assert render_dot(ts) == PINNED_DOT[ts.kind]
    assert system_to_json(ts) == PINNED_JSON[ts.kind]


def test_ctmc_tra_exact():
    assert render_tra(SBRS) == "3 4\n0 0 0.33333333333333331\n0 1 0.5\n0 2 3\n1 2 2.5\n"


def test_transitions_order():
    assert list(BRS.transitions()) == [
        (0, None, 2, None), (0, None, 0, None), (0, None, 1, None), (1, None, 0, None)
    ]
    assert [(i, a, j) for i, a, j, _ in ABRS.transitions()] == [
        (0, "back", 0), (0, "go", 1), (0, "go", 2), (1, "retry", 0), (1, "retry", 2)
    ]


# ---------------------------------------------------------------------------
# the streamed JSON export and atomic writes
# ---------------------------------------------------------------------------

# one state and no transitions, and a label with a newline, a quote and a
# non-ASCII character
LONE = _hand_built("brs", [[]], [set()])
ODD_LABEL = _hand_built(
    "pbrs",
    [[(None, {1: Fraction(1)})], [(None, {1: Fraction(1)})]],
    [{'line\nbreak "quoted" caf\u00e9'}, set()],
)


def _capped_virus(models_dir):
    with pytest.raises(StateCapError) as exc:
        build_transition_system(load_model(models_dir / "virus.big"), max_states=10)
    return exc.value.partial


# states with a rational and a negative parameter: N.Buf(1/2), N.Buf(-3)
# and N.(Buf(1/3) | Buf(-3))
PARAMS_MODEL = """
ctrl N = 0;
fun ctrl Buf(b) = 0;
big start = N.Buf(0.5);
react drop = N.Buf(0.5) -[1.0]-> N.Buf(-3);
react split = N.Buf(-3) -[2.0]-> N.(Buf(1/3) | Buf(-3));
begin pbrs init = start; rules = [drop, split]; end
"""

# states holding outer names beside a closed edge
OPEN_NAMES_MODEL = """
ctrl A = 1;
ctrl D = 1;
ctrl B = 2;
big start = /e (A{e} | B{e, x}) | A{y};
react flip = A{y} -[1.0]-> D{y};
react back = D{y} -[2.0]-> A{y};
begin pbrs init = start; rules = [flip, back]; end
"""

SYSTEMS = {
    "wsn": lambda r: r.getfixturevalue("wsn_ts"),
    "send_mdp": lambda r: r.getfixturevalue("send_mdp_ts"),
    "virus": lambda r: r.getfixturevalue("virus_ts"),
    "budding": lambda r: r.getfixturevalue("budding_ts"),
    "mobile_sink2": lambda r: r.getfixturevalue("sink2_ts"),
    "mobile_sink": lambda r: build_transition_system(
        load_model(r.getfixturevalue("models_dir") / "mobile_sink.big")
    ),
    "brs": lambda r: BRS,
    "sbrs": lambda r: SBRS,
    "abrs": lambda r: ABRS,
    "lone": lambda r: LONE,
    "odd-label": lambda r: ODD_LABEL,
    "capped-virus": lambda r: _capped_virus(r.getfixturevalue("models_dir")),
    "params": lambda r: build_transition_system(elaborate(parse(PARAMS_MODEL))),
    "open-names": lambda r: build_transition_system(
        elaborate(parse(OPEN_NAMES_MODEL))
    ),
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_json_export_bytes_equal_the_whole_document(name, request, tmp_path):
    # the file written one item at a time is the dump of the whole document
    ts = SYSTEMS[name](request)
    path = export_json(ts, tmp_path, "m")
    text = json.dumps(system_to_json(ts), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == text.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**64) - 1, 10**40]),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf")]),
    st.text(st.characters(exclude_categories=[]), max_size=6),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t\r", "caf\u00e9", "\ud800"]),
)
_KEYS = st.text(st.characters(exclude_categories=[]), max_size=4) | st.sampled_from(
    ['"', "\\", "\n", "\u00e9", "\ud800"]
)
_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=16,
)


@settings(max_examples=120, deadline=None)
@given(_VALUES, st.integers(0, 3))
@example([[], {}, [[]], {"a": {}, "b": [[], [{}]]}], 2)
def test_dump_writes_what_json_dumps_writes(value, depth):
    pad = "  " * depth
    text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    assert "".join(export._dump(value, pad, [])) == text


@pytest.mark.parametrize("value", [Fraction(1, 2), {1: 2}, {"a": {3}}, [b"x"]])
def test_dump_refuses_what_the_export_never_holds(value):
    with pytest.raises(TypeError):
        export._dump(value, "", [])


def test_json_export_holds_one_state_at_a_time(virus_ts, tmp_path):
    # the whole document of the 286 virus states takes about 23 MB to
    # build; the streamed export never holds more than one state's
    tracemalloc.start()
    try:
        export_json(virus_ts, tmp_path, "virus")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_failed_json_export_keeps_the_earlier_file(
    wsn_ts, send_mdp_ts, tmp_path, monkeypatch
):
    earlier = export_json(send_mdp_ts, tmp_path, "m").read_bytes()
    seen = []

    def failing_state_json(s, _state_json=export._state_json):
        seen.append(s)
        if len(seen) == 3:
            raise RuntimeError("third state")
        return _state_json(s)

    monkeypatch.setattr(export, "_state_json", failing_state_json)
    with pytest.raises(RuntimeError, match="third state"):
        export_json(wsn_ts, tmp_path, "m")
    assert len(seen) == 3
    assert (tmp_path / "m.json").read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_failed_prism_write_keeps_the_earlier_bundle(send_mdp_ts, tmp_path):
    # an action name with a lone surrogate renders, but cannot be written
    # as UTF-8, so writing the .tra file fails part-way
    bundle = export_prism(send_mdp_ts, tmp_path, "m")
    earlier = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    unwritable = _hand_built("abrs", [[("\ud800", {0: Fraction(1)})]], [set()])
    with pytest.raises(UnicodeEncodeError):
        export_prism(unwritable, tmp_path, "m")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier
    assert earlier.keys() == {p.name for p in bundle.manifest.values()}

    # the .tra file is written, and the .lab file fails: neither is moved
    # into place, so the earlier bundle is not mixed with the new one
    out = tmp_path / "pbrs"
    export_prism(_hand_built("pbrs", [[(None, {0: Fraction(1)})]], [set()]), out, "m")
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    unwritable = _hand_built(
        "pbrs", [[(None, {1: Fraction(1)})], [(None, {1: Fraction(1)})]],
        [{"\ud800"}, set()],
    )
    with pytest.raises(UnicodeEncodeError):
        export_prism(unwritable, out, "m")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
    assert earlier.keys() == {"m.tra", "m.lab"}


def test_lab_refuses_a_label_it_cannot_quote(tmp_path):
    # a .lab header has no escape for a quote or a line break
    label = 'line\nbreak "quoted" caf\u00e9'
    with pytest.raises(ExportError, match=re.escape(repr(label))):
        render_lab(ODD_LABEL)
    with pytest.raises(ExportError):
        export_prism(ODD_LABEL, tmp_path, "m")
    assert list(tmp_path.iterdir()) == []
    for odd in ('a"b', "a\nb", "a\rb"):
        with pytest.raises(ExportError):
            render_lab(_hand_built("pbrs", [[(None, {0: Fraction(1)})]], [{odd}]))


def test_lab_refuses_a_label_named_init(tmp_path):
    # PRISM's `init` is id 0: a label of that name would mark state 1 initial
    ts = _hand_built("pbrs", [[(None, {1: Fraction(1)})]] * 2, [set(), {"init"}])
    with pytest.raises(ExportError, match="'init'"):
        render_lab(ts)
    with pytest.raises(ExportError):
        export_prism(ts, tmp_path, "m")
    assert list(tmp_path.iterdir()) == []


def test_reward_marker_refuses_a_predicate_of_its_name():
    # the predicate `charged(2)` holds on s0, the marker would on s1's copy
    ts = _hand_built(
        "abrs", [[("paid", {1: Fraction(1)})], []], [{"charged(2)"}, set()],
        action_reward=[{"paid": Fraction(2)}, {}],
    )
    with pytest.raises(ExportError, match=re.escape("'charged(2)'")):
        rewards_to_states(ts)
    # declared but holding on no state, it is still the predicate's name
    declared = replace(ts, labels=[], label_names=("charged(2)",))
    with pytest.raises(ExportError, match=re.escape("'charged(2)'")):
        rewards_to_states(declared)
    assert rewards_to_states(replace(ts, labels=[{"charged(1)"}, set()])).n_states == 2


def test_tra_refuses_an_action_it_cannot_write(tmp_path):
    # a .tra row is split at whitespace, and has no escape
    broken = _hand_built("abrs", [[("go on\nnow", {0: Fraction(1)})]], [set()])
    with pytest.raises(ExportError, match=re.escape(repr("go on\nnow"))):
        render_tra(broken)
    with pytest.raises(ExportError):
        export_prism(broken, tmp_path, "m")
    assert list(tmp_path.iterdir()) == []
    for odd in ("", "a b", "a\tb", "a\u00a0b", "a\r"):
        with pytest.raises(ExportError):
            render_tra(_hand_built("abrs", [[(odd, {0: Fraction(1)})]], [set()]))


def test_dot_escapes_label_text():
    dot = render_dot(ODD_LABEL)
    assert '  s0 [label="0: line\\nbreak \\"quoted\\" caf\u00e9"];' in dot.splitlines()
    assert all(line.endswith(("{", ";", "}")) for line in dot.splitlines())
    crlf = _hand_built("pbrs", [[(None, {0: Fraction(1)})]], [{"a\\b\r\nc"}])
    assert '  s0 [label="0: a\\\\b\\r\\nc"];' in render_dot(crlf).splitlines()


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_sim_deterministic_under_seed(models_dir):
    spec = load_model(models_dir / "wsn.big")
    a = simulate(spec, 40, seed=7)
    b = simulate(spec, 40, seed=7)
    assert len(a) == 40
    assert [(s.step, s.state_digest, s.rule) for s in a] == [
        (s.step, s.state_digest, s.rule) for s in b
    ]
    c = simulate(spec, 40, seed=8)
    assert [s.state_digest for s in a] != [s.state_digest for s in c]


# a pbrs whose initial state nothing applies to
STUCK_PBRS = """
ctrl A = 0;
ctrl B = 0;
big b = A;
react r = B -[1.0]-> A;
begin pbrs init = b; rules = [r]; end
"""


def test_sim_zero_steps_and_delta(models_dir):
    spec = load_model(models_dir / "wsn.big")
    assert simulate(spec, 0, seed=1) == []  # zero budget: empty trace
    # a pbrs state nothing applies to loops in place forever
    stuck = elaborate(parse(STUCK_PBRS))
    trace = simulate(stuck, 5, seed=2)
    assert len(trace) == 5
    assert len({s.state_digest for s in trace}) == 1
    assert all(s.rule is None for s in trace)


def test_sim_ctmc_times_increase(models_dir):
    spec = load_model(models_dir / "budding.big")
    trace = simulate(spec, 25, seed=3)
    times = [s.time for s in trace]
    assert len(times) == 25 and times[0] > 0.0
    assert all(a < b for a, b in zip(times, times[1:]))


def test_sim_mdp_records_actions(models_dir):
    spec = load_model(models_dir / "mobile_sink.big")
    trace = simulate(spec, 30, seed=5)
    assert any(s.action == "a_move" for s in trace)


# an MDP with an action whose only rule weighs 0: the action applies at
# the initial state, so the closure gives it a delta row there
ZERO_WEIGHT_MDP = """
ctrl A = 0;
ctrl B = 0;
big s = A;
react wait = A -[0.0]-> B;
react go = A -[1.0]-> B;
begin abrs
  init = s;
  rules = [wait, go];
  actions = [a_wait = {wait}, a_go = {go}];
end
"""


def _digest(key):
    return hashlib.sha256(key).hexdigest()[:16]


def test_sim_zero_weight_action_stays():
    spec = elaborate(parse(ZERO_WEIGHT_MDP))
    start = _digest(build_transition_system(spec).states[0][0])
    traces = [simulate(spec, 50, seed=s) for s in range(10)]
    for trace in traces:
        # stays under a_wait until a_go moves to the terminal state B
        *stays, last = trace
        assert all(
            (s.action, s.rule, s.state_digest) == ("a_wait", None, start)
            for s in stays
        )
        assert (last.action, last.rule) == ("a_go", "go")
        assert last.state_digest != start
    assert any(len(t) > 1 for t in traces)


# a brs where r1 and r2 give the same successor: A | A moves to A | B or
# to A | C, and `back` makes the walk revisit states until C | C
BRS_MODEL = """
ctrl A = 0;
ctrl B = 0;
ctrl C = 0;
big s = A | A;
react r1 = A --> B;
react r2 = A --> B;
react r3 = A --> C;
react back = B --> A;
begin brs
  init = s;
  rules = [r1, r2, r3, back];
end
"""

# weights whose total is beyond the double range: only their ratios
# count, so the closure builds and the walk scales them down
HUGE_WEIGHTS = """
ctrl A = 0;
ctrl B = 0;
ctrl C = 0;
react r = A -[ 1e400 ]-> B;
react s = A -[ 1e400 ]-> C;
big start = A;
begin {kind} init = start; rules = [r, s];{actions} end
"""

# weights whose total is below the double range: the walk scales them up
TINY_WEIGHTS = HUGE_WEIGHTS.replace("1e400", "1e-400")

INLINE = {
    "zero-weight": ZERO_WEIGHT_MDP,
    "brs": BRS_MODEL,
    "stuck": STUCK_PBRS,
    "huge-pbrs": HUGE_WEIGHTS.format(kind="pbrs", actions=""),
    "huge-abrs": HUGE_WEIGHTS.format(kind="abrs", actions=" actions = [go = {r, s}];"),
}


def _spec(models_dir, model):
    if model in INLINE:
        return elaborate(parse(INLINE[model]))
    return load_model(models_dir / model)


@pytest.mark.parametrize(
    "model",
    [
        "wsn.big", "send_mdp.big", "mobile_sink.big", "zero-weight", "brs",
        "huge-pbrs", "huge-abrs",
    ],
)
def test_sim_agrees_with_closure(models_dir, model):
    # every simulated step is a positive-probability transition of the
    # built row (under the recorded action for an MDP), and a trace that
    # stops short of its budget stops at a terminal row
    spec = _spec(models_dir, model)
    ts = build_transition_system(spec)
    index = {_digest(key): i for i, (key, _) in enumerate(ts.states)}
    budget = 200
    for seed in (1, 2, 3):
        trace = simulate(spec, budget, seed=seed)
        here = 0
        for step in trace:
            there = index[step.state_digest]
            (dist,) = [d for name, d in ts.rows[here] if name == step.action]
            assert dist.get(there, 0) > 0
            if step.rule is None:
                assert there == here
            here = there
        if len(trace) < budget:
            assert not ts.rows[here]


@pytest.mark.parametrize(
    "kind, actions",
    [("pbrs", ""), ("abrs", " actions = [go = {r, s}];")],
    ids=["pbrs", "abrs"],
)
def test_sim_draws_between_masses_below_the_double_range(kind, actions):
    # each of the two rules has probability 1/2: one-step walks take both
    spec = elaborate(parse(TINY_WEIGHTS.format(kind=kind, actions=actions)))
    assert {simulate(spec, 1, seed=s)[0].rule for s in range(200)} == {"r", "s"}


def test_sim_brs_uniform_over_distinct_successors():
    # from A | A, r1 and r2 both give A | B and r3 gives A | C: each of
    # the two successors is taken half the time, A | B recorded as r1
    spec = elaborate(parse(BRS_MODEL))
    firsts = [simulate(spec, 1, seed=s)[0] for s in range(2000)]
    rules = {}
    for step in firsts:
        rules.setdefault(step.state_digest, set()).add(step.rule)
    assert sorted(rules.values(), key=sorted) == [{"r1"}, {"r3"}]
    to_b = sum(step.rule == "r1" for step in firsts) / len(firsts)
    assert abs(to_b - 0.5) < 0.04


@pytest.mark.parametrize(
    "model, budget",
    [
        ("wsn.big", 300),
        ("budding.big", 40),
        ("send_mdp.big", 300),
        ("mobile_sink.big", 300),
        ("zero-weight", 50),
        ("stuck", 20),
        ("brs", 200),
    ],
)
def test_sim_matches_reference_walker(models_dir, model, budget):
    # the memoised walk and the walk that expands the concrete state at
    # every step give equal traces, times compared exactly
    spec = _spec(models_dir, model)
    for seed in range(1, 6):
        assert simulate(spec, budget, seed=seed) == reference_simulate(
            spec, budget, seed=seed
        )


@pytest.mark.parametrize(
    "model", ["wsn.big", "send_mdp.big", "mobile_sink.big", "zero-weight", "brs"]
)
def test_sim_expands_each_state_once(models_dir, model, monkeypatch):
    spec = _spec(models_dir, model)
    start = _digest(build_transition_system(spec).states[0][0])
    calls = []

    def counting_step(kind, g, *args, _step=system._step):
        calls.append(_digest(canonical_key(g)))
        return _step(kind, g, *args)

    monkeypatch.setattr(system, "_step", counting_step)
    budget = 200
    expansions = steps_from = 0
    for seed in range(1, 6):
        calls.clear()
        trace = simulate(spec, budget, seed=seed)
        # the walk steps from the start and from every state it reaches,
        # except the last one when the budget runs out
        visited = [start] + [s.state_digest for s in trace]
        stepped_from = visited[:-1] if len(trace) == budget else visited
        assert sorted(calls) == sorted(set(stepped_from))
        expansions += len(calls)
        steps_from += len(stepped_from)
    assert expansions < steps_from  # some state was stepped from twice


def test_sim_occupancy_tracks_stationary_distribution(models_dir, tmp_path):
    # w_con >> w_fail keeps the chain near the healthy state; compare the
    # empirical occupancy of a long run against the exact stationary
    # distribution of the four-state chain
    src = (models_dir / "wsn.big").read_text()
    src = src.replace("float w_fail = 2.0;", "float w_fail = 1.0;").replace(
        "float w_con = 1.0;", "float w_con = 10.0;"
    )
    from bigrs.language import elaborate, parse

    spec = elaborate(parse(src))
    ts = build_transition_system(spec)
    P = np.zeros((4, 4))
    for i, row in enumerate(ts.rows):
        for _, dist in row:
            for j, p in dist.items():
                P[i, j] = float(p)
    # stationary distribution: left eigenvector for eigenvalue 1
    A = np.vstack([P.T - np.eye(4), np.ones(4)])
    b = np.array([0.0, 0, 0, 0, 1])
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)

    trace = simulate(spec, 4000, seed=11)
    digests = [s.state_digest for s in trace]
    import hashlib

    key_digest = [
        hashlib.sha256(key).hexdigest()[:16] for key, _ in ts.states
    ]
    counts = {d: digests.count(d) for d in set(digests)}
    emp = np.array([counts.get(d, 0) / len(digests) for d in key_digest])
    assert emp[0] > emp[3]
    assert pi[0] > pi[3]
    assert np.max(np.abs(emp - pi)) < 0.05
