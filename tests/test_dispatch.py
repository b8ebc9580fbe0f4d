"""The control-indexed dispatch of the step kernel and the labeller, and
the compiled search plans, against the index-free kernel and the
from-scratch search order of `oracles`."""

import random
from fractions import Fraction

import pytest

from bigrs import system
from bigrs.bigraph import (
    Bigraph,
    Edge,
    Interface,
    Link,
    REGION,
    SolidityError,
    hole,
    lean,
)
from bigrs.canon import Form, KeptState, canonical_key, form_of
from bigrs.language import elaborate, load_model, parse
from bigrs.matching import MatchError, _Embedder, has_occurrence, occurrences
from bigrs.system import (
    KINDS,
    ActionDecl,
    PredicateDecl,
    StateCapError,
    WeightedRule,
    _step,
    build_transition_system,
    labeller,
    rule_dispatch,
)

from genutil import (
    SIG,
    gadget_state,
    plant,
    random_ground,
    random_reactum,
    random_solid,
    twin_rules,
    twin_state,
)
from oracles import reference_labels, reference_order, reference_step, to_json


def _view(choices):
    """Choices with every successor written out in full, whether given as
    a `Form` (`_step`) or a `Bigraph` (`reference_step`)."""
    return [
        (a and a.name, [
            (r, k, m, to_json(KeptState(b).bigraph() if isinstance(b, Form) else b))
            for r, k, b, m in es
        ])
        for a, es in choices
    ]


def _labels(states, predicates):
    """The labels and state reward `labeller` gives each state."""
    label = labeller(predicates)
    return [label(form_of(g)) for g in states]


# ---------------------------------------------------------------------------
# the dispatch against the kernel that offers every rule
# ---------------------------------------------------------------------------


_MODELS = ["wsn", "send_mdp", "mobile_sink", "virus", "budding", "mobile_sink2"]


@pytest.mark.parametrize("name", _MODELS)
def test_dispatch_matches_every_rule_kernel_on_model_states(models_dir, name):
    # a breadth-first closure through `_step`, checked at every state
    path = models_dir / f"{name}.big"
    if not path.exists():
        path = models_dir.parent / "bench" / "models" / f"{name}.big"
    spec = load_model(path)
    rules = rule_dispatch(spec.rules, spec.actions)
    g = lean(spec.initial)
    seen = {canonical_key(g)}
    states = [g]
    for g in states:
        choices = _step(spec.kind, form_of(g), rules, spec.actions)
        assert _view(choices) == _view(
            reference_step(spec.kind, g, spec.rules, spec.actions)
        ), (name, len(states))
        for _, es in choices:
            for _, key, succ, _ in es:
                if key not in seen:
                    seen.add(key)
                    states.append(KeptState(succ).bigraph())
    assert _labels(states, spec.predicates) == [
        reference_labels(g, spec.predicates) for g in states
    ]


def _rule_pool(rng):
    """Weighted rules over SIG: the twin rules and random solid redexes
    with random reactums, some of weight 0."""
    pairs = [(r.redex, r.reactum) for r in twin_rules()]
    while len(pairs) < 30:
        redex = random_solid(rng, max_nodes=3)
        pairs.append((redex, random_reactum(rng, redex)))
    weights = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3)]
    return [
        WeightedRule(f"r{i}", redex, reactum, rng.choice(weights))
        for i, (redex, reactum) in enumerate(pairs)
    ]


def test_dispatch_matches_every_rule_kernel_on_random_states():
    rng = random.Random(97)
    pool = _rule_pool(rng)
    preds = [
        PredicateDecl(f"p{i}", r.redex, Fraction(i % 3)) for i, r in enumerate(pool)
    ]
    offered = filtered = 0
    for i in range(120):
        if i % 3 == 0:
            g = twin_state(rng)
        elif i % 3 == 1:
            g = gadget_state(rng)
        else:
            g = lean(plant(rng, rng.choice(pool).redex))
        rules = rng.sample(pool, rng.randint(1, 12))
        kind = KINDS[i % 4]
        actions = ()
        if kind == "abrs":
            cut = sorted(rng.sample(range(1, len(rules) + 1), min(2, len(rules))))
            parts = [rules[a:b] for a, b in zip([0, *cut], cut)]
            actions = tuple(
                ActionDecl(f"a{j}", tuple(part)) for j, part in enumerate(parts)
            )
        dispatch = rule_dispatch(rules, actions)
        assert _view(_step(kind, form_of(g), dispatch, actions)) == _view(
            reference_step(kind, g, rules, actions)
        ), i
        some = rng.sample(preds, rng.randint(1, 10))
        assert _labels([g], some) == [reference_labels(g, some)], i
        live = len(dispatch.candidates(form_of(g)))
        offered += live
        filtered += len(dispatch.items) - live
    # both sides of the filter are exercised
    assert offered > 200 and filtered > 200, (offered, filtered)


# ---------------------------------------------------------------------------
# hand-built edge cases
# ---------------------------------------------------------------------------


EDGE_MODEL = """
ctrl A = 0;
atomic ctrl K = 0;
fun ctrl Buf(b) = 0;
big s = A.(K | Buf(0));
react two_k = K | K -[1.0]-> K;
react buf1 = Buf(1) -[1.0]-> Buf(0);
react one_k = K -[2.0]-> A;
react zero = A.id -[0.0]-> A.id;
big has_two_k = K | K;
big has_buf1 = Buf(1);
big has_k = K;
begin abrs
  init = s;
  rules = [two_k, buf1, one_k, zero];
  preds = [has_two_k, has_buf1, has_k];
  actions = [a_short = {two_k, buf1}, a_zero = {zero}, a_one = {one_k}];
end
"""


def _edge_spec():
    spec = elaborate(parse(EDGE_MODEL))
    return spec, lean(spec.initial)


def test_dispatch_edge_cases(monkeypatch):
    spec, g = _edge_spec()
    rules = rule_dispatch(spec.rules, spec.actions)
    named = {r.name: i for i, r in enumerate(rules.items)}
    # two_k needs two nodes of its anchor K and the state has one: it is
    # looked up under K and dropped by its count
    assert named["two_k"] in rules.by_anchor[("K", ())]
    # buf1's control Buf(1) is absent: Buf(0) does not stand in for it
    assert ("Buf", (1,)) in rules.by_anchor
    # the actions' rules in action order, filtered
    assert [r.name for r in rules.candidates(form_of(g))] == ["zero", "one_k"]

    offered = []
    real = system.apply_rule_all

    def counted(state, rule):
        offered.append(rule.name)
        return real(state, rule)

    monkeypatch.setattr(system, "apply_rule_all", counted)
    choices = _step("abrs", form_of(g), rules, spec.actions)
    assert sorted(offered) == ["one_k", "zero"]
    # a_short, whose rules are all filtered out, is not applicable; a_zero,
    # whose one rule occurs with weight 0, is, and stays in place
    assert [(a.name, len(es)) for a, es in choices] == [("a_zero", 0), ("a_one", 1)]
    monkeypatch.undo()
    assert _view(choices) == _view(reference_step("abrs", g, (), spec.actions))

    ts = build_transition_system(spec)
    assert ts.labels[0] == frozenset({"has_k"})
    assert [name for name, _ in ts.rows[0]] == ["a_one", "a_zero"]


def test_pattern_without_nodes_is_always_a_candidate():
    # the language has no solid pattern without nodes (every region of a
    # solid bigraph holds one), but the engine accepts one with no regions
    nothing = Bigraph(SIG, {}, {}, {}, {}, Interface(0), Interface(0))
    k = Bigraph(SIG, {0: ("K", ())}, {0: (REGION, 0)}, {}, {},
                Interface(0), Interface(1))
    preds = [PredicateDecl("k", k), PredicateDecl("nothing", nothing, Fraction(1))]
    rng = random.Random(3)
    for _ in range(20):
        g = random_ground(rng, max_nodes=5)
        (labels, reward), = _labels([g], preds)
        assert "nothing" in labels and reward == 1
        assert (labels, reward) == reference_labels(g, preds)
    spec, g = _edge_spec()
    rule = WeightedRule("noop", nothing, nothing, Fraction(1))
    dispatch = rule_dispatch([rule])
    assert dispatch.candidates(form_of(g)) == [rule]
    assert _view(_step("pbrs", form_of(g), dispatch)) == _view(
        reference_step("pbrs", g, [rule])
    )


# ---------------------------------------------------------------------------
# the compiled plans
# ---------------------------------------------------------------------------


def _oracle_pairs():
    """The 500 (redex, target) pairs of acceptance criterion 3."""
    rng = random.Random(1009)
    for i in range(500):
        redex = random_solid(rng, max_nodes=6)
        if i % 2 == 0:
            yield redex, lean(plant(rng, redex))
        else:
            yield redex, random_ground(rng, max_nodes=8)


def test_search_order_equals_order_planned_from_scratch():
    rng = random.Random(7)
    reused = 0
    for redex, target in _oracle_pairs():
        # each redex against its own target and against fresh ones, so
        # later searches reuse orders planned for earlier targets
        for g in [target, *(random_ground(rng, max_nodes=8) for _ in range(3))]:
            planned = set(redex._plan.orders) if redex._plan else set()
            search = _Embedder(redex, form_of(g))
            ids = form_of(redex).ids
            assert [ids[v] for v in search.order] == reference_order(redex, g)
            reused += search.counts in planned
    assert reused > 200, reused


def test_order_planned_once_per_pattern_and_counts(models_dir, monkeypatch):
    planned = []
    real = _Embedder._order

    def counted(self):
        planned.append((id(self.r), self.counts))
        return real(self)

    monkeypatch.setattr(_Embedder, "_order", counted)
    with pytest.raises(StateCapError):
        build_transition_system(load_model(models_dir / "budding.big"), 300)
    assert len(planned) > 50 and len(planned) == len(set(planned))


def _inner_name_redex() -> Bigraph:
    """L{e} on a closed edge e that also carries the inner name y: solid,
    with an inner name."""
    return Bigraph(
        SIG,
        {0: ("L", ())},
        {0: (REGION, 0)},
        {},
        {Edge(0): Link(frozenset({(0, 0)}), frozenset({"y"}))},
        Interface(0, frozenset({"y"})),
        Interface(1),
    )


def test_failed_compile_raises_every_time_and_memoises_nothing():
    g = random_ground(random.Random(0))
    bad = hole(SIG)
    for _ in range(3):
        with pytest.raises(SolidityError, match="^redex is not solid"):
            occurrences(bad, g)
        with pytest.raises(SolidityError, match="^predicate pattern is not solid"):
            has_occurrence(bad, g)
        assert bad._plan is None
    inner = _inner_name_redex()
    for _ in range(3):
        with pytest.raises(MatchError, match="inner names"):
            occurrences(inner, g)
        assert inner._plan is None


def test_pattern_edge_with_an_inner_name_may_match_a_larger_edge():
    # the edge of L{e} carries the inner name y, so the rest of a larger
    # target edge lies outside the pattern; without y it may not
    with_y = _inner_name_redex()
    closed = Bigraph(
        SIG, {0: ("L", ())}, {0: (REGION, 0)}, {},
        {Edge(0): Link(frozenset({(0, 0)}))}, Interface(0), Interface(1),
    )
    shared = Bigraph(
        SIG, {0: ("L", ()), 1: ("B", ())}, {0: (REGION, 0), 1: (REGION, 0)}, {},
        {Edge(0): Link(frozenset({(0, 0), (1, 0)}))}, Interface(0), Interface(1),
    )
    alone = Bigraph(
        SIG, {0: ("L", ()), 1: ("B", ())}, {0: (REGION, 0), 1: (REGION, 0)}, {},
        {Edge(0): Link(frozenset({(0, 0)})), Edge(1): Link(frozenset({(1, 0)}))},
        Interface(0), Interface(1),
    )
    assert has_occurrence(with_y, shared)
    assert not has_occurrence(closed, shared)
    assert has_occurrence(with_y, alone)
    assert has_occurrence(closed, alone)
