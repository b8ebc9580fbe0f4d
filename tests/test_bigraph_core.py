"""Core bigraph structure: algebra, solidity, equivalence, canonical keys."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigrs.bigraph import (
    Bigraph,
    CompositionError,
    ControlDecl,
    Edge,
    Interface,
    Link,
    NODE,
    REGION,
    NameError_,
    NotGroundError,
    ShapeError,
    TensorError,
    close_name,
    compose,
    empty,
    hole,
    identity,
    ion,
    is_solid,
    lean,
    merge_parallel,
    parallel,
    solidity_violations,
    tensor,
    unit,
)
from bigrs import canon, matching, system
from bigrs.canon import KeptState, canonical_key
from bigrs.language import load_model
from bigrs.system import StateCapError, build_transition_system

from genutil import (
    SIG,
    bare_cycles,
    gadget_state,
    leafy_cycles,
    mutant,
    random_ground,
    random_solid,
    shuffled_copy,
)
from oracles import (
    brute_support_equivalent,
    check_isomorphism,
    from_json,
    full_refine,
    nx_support_equivalent,
    partition,
    reference_encoding,
    reference_key,
    to_json,
    twin_cell,
    unpruned_key,
)


def key_eq(a, b):
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# composition / tensor / merge
# ---------------------------------------------------------------------------


def test_compose_identity_is_unit():
    g = merge_parallel(ion(SIG, "B", (), ["x"]), ion(SIG, "A", (), []))
    ident = identity(["x"], width=1, signature=SIG)
    assert key_eq(compose(ident, g), g)


def test_compose_width_mismatch_names_both_interfaces():
    inner = tensor(unit(SIG), unit(SIG))  # <0,{}> -> <2,{}>
    outer = ion(SIG, "A", (), [], child=hole(SIG))  # <1,{}> -> <1,{}>
    with pytest.raises(CompositionError) as err:
        compose(outer, inner)
    assert "<1,{}>" in str(err.value) and "<2,{}>" in str(err.value)


def test_ion_nests_its_child_with_pinned_ids():
    # K{x,y}.(/e A{e} | A{x} | M{z}.L | id): the child has a closed edge, a
    # name it shares with the ion, a name of its own, a site and a nested ion
    sig = {
        "K": ControlDecl("K", 2),
        "A": ControlDecl("A", 1),
        "M": ControlDecl("M", 1),
        "L": ControlDecl("L", 0, atomic=True),
    }
    child = merge_parallel(
        merge_parallel(close_name(ion(sig, "A", (), ["e"]), "e"),
                       ion(sig, "A", (), ["x"])),
        merge_parallel(ion(sig, "M", (), ["z"], child=ion(sig, "L")), hole(sig)),
    )
    b = ion(sig, "K", (), ["x", "y"], child)
    # the ion's node is 0; the child's nodes 0..3 become 1..4 and its
    # edge 0 stays edge 0, since the ion's node has no edges
    assert b.nodes == {
        0: ("K", ()), 1: ("A", ()), 2: ("A", ()), 3: ("M", ()), 4: ("L", ()),
    }
    assert b.parent == {
        0: (REGION, 0), 1: (NODE, 0), 2: (NODE, 0), 3: (NODE, 0), 4: (NODE, 3),
    }
    assert b.site_parent == {0: (NODE, 0)}
    assert b.links == {
        Edge(0): Link(frozenset([(1, 0)])),
        "x": Link(frozenset([(0, 0), (2, 0)])),
        "y": Link(frozenset([(0, 1)])),
        "z": Link(frozenset([(3, 0)])),
    }
    assert b.inner == Interface(1)
    assert b.outer == Interface(1, frozenset(["x", "y", "z"]))


def test_compose_fuses_like_names():
    # context with inner name x on a closed edge; plugging B{x} closes it
    ctx = Bigraph(
        SIG,
        {},
        {},
        {0: (REGION, 0)},
        {Edge(0): Link(frozenset(), frozenset(["x"]))},
        Interface(1, frozenset(["x"])),
        Interface(1),
    )
    inner = ion(SIG, "B", (), ["x"])
    direct = close_name(inner, "x")
    assert key_eq(compose(ctx, inner), direct)


def test_tensor_interface_law():
    f0 = Bigraph(
        SIG,
        {0: ("B", ())},
        {0: (REGION, 0)},
        {0: (NODE, 0)},
        {"x": Link(frozenset([(0, 0)])), Edge(0): Link(frozenset(), frozenset(["a"]))},
        Interface(1, frozenset(["a"])),
        Interface(1, frozenset(["x"])),
    )
    f1 = ion(SIG, "B", (), ["y"])
    t = tensor(f0, f1)
    assert t.inner == Interface(1, frozenset(["a"]))
    assert t.outer == Interface(2, frozenset(["x", "y"]))


def test_tensor_unit_and_name_clash():
    g = random_ground(random.Random(7))
    assert key_eq(tensor(empty(SIG), g), g)
    assert key_eq(tensor(g, empty(SIG)), g)
    with pytest.raises(TensorError, match="x"):
        tensor(ion(SIG, "B", (), ["x"]), ion(SIG, "B", (), ["x"]))


def test_tensor_associative():
    rng = random.Random(3)
    for _ in range(20):
        a = random_ground(rng, name_pool=())
        b = random_ground(rng, name_pool=())
        c = random_ground(rng, name_pool=())
        assert key_eq(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def test_compose_associative_where_defined():
    rng = random.Random(11)
    for _ in range(10):
        d = random_ground(rng, max_regions=1, name_pool=())
        mid = ion(SIG, "B", (), ["x"], child=hole(SIG))
        top = Bigraph(
            SIG,
            {0: ("A", ())},
            {0: (REGION, 0)},
            {0: (NODE, 0)},
            {Edge(0): Link(frozenset(), frozenset(["x"]))},
            Interface(1, frozenset(["x"])),
            Interface(1),
        )
        lhs = compose(compose(top, mid), d)
        rhs = compose(top, compose(mid, d))
        assert key_eq(lhs, rhs)


def test_merge_parallel_scaled_par():
    i = ion(SIG, "A", (), [])
    par3 = merge_parallel(merge_parallel(i, i), i)
    assert par3.outer.width == 1
    assert len(par3.nodes) == 3
    assert key_eq(merge_parallel(unit(SIG), par3), par3)


def test_merge_parallel_fuses_shared_names():
    merged = merge_parallel(ion(SIG, "B", (), ["x"]), ion(SIG, "L", (), ["x"]))
    by_hand = Bigraph(
        SIG,
        {0: ("B", ()), 1: ("L", ())},
        {0: (REGION, 0), 1: (REGION, 0)},
        {},
        {"x": Link(frozenset([(0, 0), (1, 0)]))},
        Interface(0),
        Interface(1, frozenset(["x"])),
    )
    assert key_eq(merged, by_hand)
    assert len(merged.links) == 1


def test_merge_parallel_keeps_ids_and_site_order():
    # C{x,e0}.id | (id | C{x,e1}.id): the right operand's nodes, edges and
    # sites follow the left's, and the shared name x is one link
    left = close_name(ion(SIG, "C", (), ["x", "y"], child=hole(SIG)), "y")
    right = close_name(
        merge_parallel(hole(SIG), ion(SIG, "C", (), ["x", "z"], child=hole(SIG))),
        "z",
    )
    by_hand = Bigraph(
        SIG,
        {0: ("C", ()), 1: ("C", ())},
        {0: (REGION, 0), 1: (REGION, 0)},
        {0: (NODE, 0), 1: (REGION, 0), 2: (NODE, 1)},
        {
            "x": Link(frozenset([(0, 0), (1, 0)])),
            Edge(0): Link(frozenset([(0, 1)])),
            Edge(1): Link(frozenset([(1, 1)])),
        },
        Interface(3),
        Interface(1, frozenset(["x"])),
    )
    assert to_json(merge_parallel(left, right)) == to_json(by_hand)


def test_merge_parallel_needs_width_one():
    with pytest.raises(ShapeError):
        merge_parallel(tensor(unit(SIG), unit(SIG)), unit(SIG))


# ---------------------------------------------------------------------------
# closure and leanness
# ---------------------------------------------------------------------------


def test_close_name_moves_name_to_edge():
    coat = ion(SIG, "B", (), ["y"])
    closed = close_name(coat, "y")
    assert closed.outer == Interface(1)
    assert len(closed.edges()) == 1
    assert closed.links[closed.edges()[0]].ports == frozenset([(0, 0)])


def test_close_idle_name_then_lean_discards_edge():
    b = Bigraph(
        SIG,
        {0: ("A", ())},
        {0: (REGION, 0)},
        {},
        {"x": Link()},
        Interface(0),
        Interface(1, frozenset(["x"])),
    )
    closed = close_name(b, "x")
    assert len(closed.edges()) == 1
    assert len(lean(closed).edges()) == 0
    assert key_eq(closed, lean(closed))  # canonical keys are lean already


def test_close_unknown_name():
    with pytest.raises(NameError_):
        close_name(ion(SIG, "B", (), ["x"]), "z")


def test_lean_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        g = random_ground(rng, allow_idle_edge=True)
        once = lean(g)
        assert lean(once).links == once.links


# ---------------------------------------------------------------------------
# solidity
# ---------------------------------------------------------------------------


def test_solid_examples():
    # a redex-shaped bigraph: BS{x} | S{x} (the failing-sensor pattern)
    redex = merge_parallel(ion(SIG, "B", (), ["x"]), ion(SIG, "L", (), ["x"]))
    assert is_solid(redex)

    bare_site = hole(SIG)  # site directly under a region
    violations = solidity_violations(bare_site)
    assert any("region as parent" in v for v in violations)
    assert any("region" in v and "none" in v for v in violations)

    two_sites = Bigraph(
        SIG,
        {0: ("A", ())},
        {0: (REGION, 0)},
        {0: (NODE, 0), 1: (NODE, 0)},
        {},
        Interface(2),
        Interface(1),
    )
    assert any("share a parent" in v for v in solidity_violations(two_sites))

    idle_name = Bigraph(
        SIG,
        {0: ("A", ())},
        {0: (REGION, 0)},
        {},
        {"x": Link()},
        Interface(0),
        Interface(1, frozenset(["x"])),
    )
    assert any("idle" in v for v in solidity_violations(idle_name))

    inner_to_outer = Bigraph(
        SIG,
        {0: ("A", ())},
        {0: (REGION, 0)},
        {},
        {"x": Link(frozenset(), frozenset(["z"]))},
        Interface(0, frozenset(["z"])),
        Interface(1, frozenset(["x"])),
    )
    assert any("inner name" in v for v in solidity_violations(inner_to_outer))


def test_random_solids_are_solid():
    rng = random.Random(2)
    for _ in range(50):
        assert is_solid(random_solid(rng))


def test_is_solid_agrees_with_independent_checker():
    from oracles import brute_is_solid

    rng = random.Random(6)
    candidates = []
    for _ in range(60):
        candidates.append(random_solid(rng))
        g = random_ground(rng)  # ground: often violates inhabited-regions
        candidates.append(g)
        candidates.append(hole(SIG))
    for b in candidates:
        assert is_solid(b) == brute_is_solid(b)


# ---------------------------------------------------------------------------
# support equivalence and canonical keys
# ---------------------------------------------------------------------------


def test_support_equivalence_requires_ground():
    with pytest.raises(NotGroundError):
        canonical_key(hole(SIG))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_key_invariant_under_renaming(seed):
    rng = random.Random(seed)
    g = random_ground(rng, allow_idle_edge=True)
    h = shuffled_copy(rng, g)
    assert canonical_key(g) == canonical_key(h)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_equivalence_relation(seed):
    rng = random.Random(seed)
    f = random_ground(rng)
    g = shuffled_copy(rng, f)
    h = shuffled_copy(rng, g)
    kf = canonical_key(f)
    assert kf == canonical_key(f)
    assert kf == canonical_key(g) == canonical_key(h)  # along the chain


def test_key_iff_brute_force_iso():
    rng = random.Random(13)
    corpus = [random_ground(rng, max_nodes=6) for _ in range(28)]
    for i, f in enumerate(corpus):
        for g in corpus[i:]:
            expected = brute_support_equivalent(f, g)
            assert (canonical_key(f) == canonical_key(g)) == expected


def test_key_distinguishes_parameters():
    a = ion(SIG, "P", (1,), ["x"])
    b = ion(SIG, "P", (2,), ["x"])
    assert canonical_key(close_name(a, "x")) != canonical_key(close_name(b, "x"))
    # equal-valued parameters of different numeric type collapse
    c = ion(SIG, "P", (1.0,), ["x"])
    assert canonical_key(close_name(a, "x")) == canonical_key(close_name(c, "x"))


def test_key_deterministic_across_calls():
    g = random_ground(random.Random(99))
    assert canonical_key(g) == canonical_key(g)


def test_interchangeable_population_is_fast():
    # 60 identical atomic siblings plus 40 privately-closed leaves: a
    # factorial search would never finish
    b = unit(SIG)
    for _ in range(60):
        b = merge_parallel(b, ion(SIG, "K", (), []))
    for _ in range(40):
        b = merge_parallel(b, close_name(ion(SIG, "L", (), ["y"]), "y"))
    assert canonical_key(b) == canonical_key(shuffled_copy(random.Random(1), b))


@pytest.mark.parametrize("rings", [[3], [6], [6, 3, 3]])
def test_key_invariant_under_renaming_of_leafy_rings(rings):
    # like leaves under different parents are not interchangeable: ordering
    # them without branching made the key depend on node ids
    g = leafy_cycles(rings)
    rng = random.Random(7)
    keys = {canonical_key(shuffled_copy(rng, g)) for _ in range(10)}
    assert keys == {canonical_key(g)}


def test_key_separates_one_ring_from_two():
    assert canonical_key(leafy_cycles([6])) != canonical_key(leafy_cycles([3, 3]))


def test_key_iff_networkx_iso_on_gadget_states():
    # 20-40 nodes: beyond the brute-force oracle, with repeated rings and
    # hubs whose like leaves sit under many parents of one colour
    pytest.importorskip("networkx")
    rng = random.Random(5)
    outcomes = set()
    for _ in range(30):
        g = gadget_state(rng)
        key = canonical_key(g)
        assert canonical_key(shuffled_copy(rng, g)) == key
        for _ in range(2):
            h = shuffled_copy(rng, mutant(rng, g))
            iso = nx_support_equivalent(g, h)
            assert (canonical_key(h) == key) == iso
            outcomes.add(iso)
    assert outcomes == {True, False}  # both directions were exercised


# ---------------------------------------------------------------------------
# the worklist refinement and the pruned search against their oracles
# ---------------------------------------------------------------------------


def _model_states(path, cap=10**6):
    try:
        ts = build_transition_system(load_model(path), max_states=cap)
    except StateCapError as exc:
        ts = exc.partial
    return [s.bigraph() for _, s in ts.states]


def _refine_both(g, sk, col, dense, moved):
    """Refine `col` (node and edge colours and cells, as `canon._search`
    holds them) with `canon._refine`, and `dense` with `full_refine`.
    Check that both give the same ordered partitions and that the cells
    are keyed by their members' colour.  Returns the refined `dense`."""
    canon._refine(sk, *col, moved)
    dense = full_refine(g, sk, *dense)
    assert [partition(col[0]), partition(col[1])] == [partition(c) for c in dense]
    for colours, cells in ((col[0], col[2]), (col[1], col[3])):
        assert sum(map(len, cells.values())) == len(colours)
        assert all(colours[v] == c for c, members in cells.items() for v in members)
    return dense


def _individualise(col, dense, top, nodes):
    """Copies of `col` and `dense` with each of `nodes` moved into a new
    singleton cell above all others: colour top, top + 1, ... in `col`, as
    `canon._search` does, and above every dense rank in `dense`.  Returns
    the copies and the next `top`."""
    ncol, ncells = list(col[0]), dict(col[2])
    dn = list(dense[0])
    for j, i in enumerate(nodes):
        rest = [v for v in ncells[ncol[i]] if v != i]
        if rest:
            ncells[ncol[i]] = rest
        else:
            del ncells[ncol[i]]
        ncol[i] = top + j
        ncells[top + j] = [i]
        dn[i] = len(dn) + j
    col = (ncol, list(col[1]), ncells, dict(col[3]))
    return col, (dn, list(dense[1])), top + len(nodes)


def _first_target(dense):
    return next((cell for cell in partition(dense[0]) if len(cell) > 1), None)


def _refine_cases(g):
    """Refine the control colouring of `g`; then, from its stable colouring,
    chains of one, two and three individualisations starting at each node
    of each cell, and each whole cell followed by one branch.  Compare
    every result with the full refinement.  Returns the number of cells
    that are twins by the oracle's rule."""
    g = lean(g)
    sk = canon.form_of(g)
    ncol, ncells = canon._starts(sk.ctrl)
    col = (ncol, [0] * sk.ne, ncells, {0: list(range(sk.ne))} if sk.ne else {})
    init = {c: r for r, c in enumerate(sorted(set(sk.ctrl)))}
    dense = _refine_both(g, sk, col, ([init[c] for c in sk.ctrl], [0] * sk.ne), None)
    twins = 0
    for cell in partition(dense[0]):
        if len(cell) == 1:
            continue
        for i in cell:
            c, d, top = col, dense, sk.n
            for _ in range(3):
                c, d, top = _individualise(c, d, top, [i])
                d = _refine_both(g, sk, c, d, [i])
                nxt = _first_target(d)
                if nxt is None:
                    break
                i = nxt[0]
        c, d, top = _individualise(col, dense, sk.n, cell)
        d = _refine_both(g, sk, c, d, cell)
        nxt = _first_target(d)
        if nxt is not None:
            c, d, _ = _individualise(c, d, top, [nxt[-1]])
            _refine_both(g, sk, c, d, [nxt[-1]])
        twins += twin_cell(g, sk, cell)
    return twins


def _state(nodes, parent, links, width=1, names=()):
    """A ground state over `SIG`: edge j has the ports `links[j]`, and
    each (name, ports) of `names` is an outer name."""
    return Bigraph(
        SIG, nodes, parent, {},
        {**{Edge(j): Link(frozenset(pts)) for j, pts in enumerate(links)},
         **{x: Link(frozenset(pts)) for x, pts in names}},
        Interface(0), Interface(width, frozenset(x for x, _ in names)),
    )


def _refine_edge_states():
    """Hand-built states whose signatures differ only in length or in
    the kind of link: in one cell of the non-atomic control B, with every
    port on one outer name, a leaf and nodes with child colours (a,),
    (a, k) and (k,), a < k the colours of A and K; an edge cell of 2-port
    and 3-port edges, one 2-port edge's port colours a prefix of a 3-port
    edge's; and ports on outer names next to ports on edges, at either
    position of C."""
    r0 = (REGION, 0)
    kids = _state(
        {**{i: ("B", ()) for i in range(5)}, 5: ("A", ()), 6: ("A", ()),
         7: ("K", ()), 8: ("K", ()), 9: ("A", ()), 10: ("L", ()), 11: ("L", ())},
        {0: r0, 1: r0, 2: r0, 3: r0, 4: r0, 5: (NODE, 1), 6: (NODE, 2),
         7: (NODE, 2), 8: (NODE, 3), 9: (NODE, 4), 10: r0, 11: r0},
        [{(10, 0), (11, 0)}],
        names=[("x", {(i, 0) for i in range(5)})],
    )
    arities = _state(
        {**{i: ("L", ()) for i in range(8)}, 8: ("B", ()), 9: ("B", ())},
        {i: r0 for i in range(10)},
        [{(0, 0), (1, 0)}, {(2, 0), (3, 0), (4, 0)}, {(8, 0), (5, 0)},
         {(9, 0), (6, 0), (7, 0)}],
    )
    names = _state(
        {**{i: ("C", ()) for i in range(6)}, 6: ("L", ()), 7: ("L", ())},
        {i: r0 for i in range(8)},
        [{(0, 1), (1, 0)}, {(2, 0), (2, 1)}, {(4, 0), (6, 0)}, {(5, 1), (7, 0)}],
        names=[("x", {(0, 0), (1, 1)}), ("y", {(3, 0), (3, 1), (4, 1), (5, 0)})],
    )
    return [kids, arities, names]


def test_refine_matches_full_refine(models_dir):
    rng = random.Random(17)
    states = [random_ground(rng, max_nodes=12, allow_idle_edge=True) for _ in range(150)]
    states += [gadget_state(rng) for _ in range(30)]
    states += [bare_cycles([3, 3, 7]), leafy_cycles([6, 3, 3])]
    states += _refine_edge_states()
    twins = sum(_refine_cases(g) for g in states)
    # the builds key their states with the refinement under test
    for name in ("budding", "virus", "wsn", "mobile_sink"):
        twins += sum(_refine_cases(g) for g in _model_states(models_dir / f"{name}.big", 200))
    assert twins >= 200


def test_key_matches_unpruned_search(models_dir, wsn_ts, send_mdp_ts, virus_ts):
    rng = random.Random(29)
    outcomes = set()
    for _ in range(200):
        g = gadget_state(rng)
        key = unpruned_key(g)
        assert canonical_key(g) == key
        assert canonical_key(shuffled_copy(rng, g)) == key
        h = shuffled_copy(rng, mutant(rng, g))
        assert canonical_key(h) == unpruned_key(h)
        outcomes.add(canonical_key(h) == key)
    assert outcomes == {True, False}
    # the builds key their states with the search under test
    states = [
        s.bigraph() for ts in (wsn_ts, send_mdp_ts, virus_ts) for _, s in ts.states
    ]
    states += _model_states(models_dir / "mobile_sink.big")
    states += _model_states(models_dir / "budding.big", 300)
    for g in states:
        assert canonical_key(g) == unpruned_key(g)


_SYMMETRIC = {
    "bare 3-cycles": lambda k: bare_cycles([3] * k),
    "bare 7-cycles": lambda k: bare_cycles([7] * k),
    "leafy 3-rings": lambda k: leafy_cycles([3] * k),
}


@pytest.mark.parametrize("family", sorted(_SYMMETRIC))
def test_search_leaves_grow_linearly(family, monkeypatch):
    # k like rings have k! * len^k automorphic leaves; pruning visits O(k)
    # (counted through `canon._flat`, which encodes each leaf of a search
    # that branches, as every one of these does)
    leaves = []
    flat = canon._flat

    def counted(sk, order, rank):
        leaves.append(1)
        return flat(sk, order, rank)

    monkeypatch.setattr(canon, "_flat", counted)
    for k in range(2, 11):
        leaves.clear()
        canonical_key(_SYMMETRIC[family](k))
        assert 1 <= len(leaves) <= 4 * k, (k, len(leaves))
    g = _SYMMETRIC[family](8)
    rng = random.Random(8)
    assert {canonical_key(shuffled_copy(rng, g)) for _ in range(10)} == {
        canonical_key(g)
    }


# ---------------------------------------------------------------------------
# the key writer, the flat leaf comparison and the recorded automorphisms
# against their oracles
# ---------------------------------------------------------------------------


def _orders(rng, sk, count):
    """`count` random node orders of sk, half of them leaf-like: nodes in
    control order, shuffled within each control, as every leaf of a search
    orders them."""
    orders = []
    for j in range(count):
        order = list(range(sk.n))
        rng.shuffle(order)
        if j % 2:
            order.sort(key=sk.ctrl.__getitem__)
        orders.append(order)
    return orders


def test_key_writer_matches_reference_on_closures(
    wsn_ts, send_mdp_ts, virus_ts, budding_ts, sink2_ts
):
    rng = random.Random(31)
    states = [s for ts in (wsn_ts, send_mdp_ts, virus_ts, budding_ts, sink2_ts)
              for s in ts.states]
    assert len(states) == 4 + 3 + 286 + 1092 + 820
    for key, kept in states:
        sk = canon.form_of(kept.bigraph())
        order = canon._minimal_order(sk)
        assert canon._key(sk, order) == reference_key(sk, order) == key
        for order in _orders(rng, sk, 5):
            assert canon._key(sk, order) == reference_key(sk, order)


def _edge_case_states():
    """Hand-built states for the key writer: no nodes, one node, rows of
    zero, one and two ports, region parents, control parameters, and
    outer names that need quotes, backslashes and non-ASCII text."""
    r0, r1, r2 = (REGION, 0), (REGION, 1), (REGION, 2)
    odd = ["it's", 'say "hi"', "both '\"", "back\\slash", "naïve", "名前", "tab\tnl\n"]
    return [
        _state({}, {}, []),
        _state({}, {}, [], width=0),
        _state({}, {}, [], width=2, names=[("x", ())]),
        _state({0: ("K", ())}, {0: r0}, []),
        _state({0: ("L", ())}, {0: r1}, [{(0, 0)}], width=2),
        _state({0: ("C", ())}, {0: r0}, [{(0, 0), (0, 1)}]),
        _state({0: ("C", ())}, {0: r0}, [{(0, 1)}], names=[("y", {(0, 0)})]),
        _state(
            {0: ("A", ()), 1: ("B", ()), 2: ("C", ()), 3: ("K", ()), 4: ("L", ()),
             5: ("B", ())},
            {0: r2, 1: (NODE, 0), 2: (NODE, 1), 3: r0, 4: (NODE, 0), 5: r1},
            [{(1, 0), (2, 0)}, {(4, 0)}],
            width=3, names=[("u", {(2, 1)}), ("w", {(5, 0)}), ("idle", ())],
        ),
        _state(
            {i: ("P", (p,)) for i, p in enumerate(
                [0, 1, -2, Fraction(1, 3), Fraction(-7, 2), 10**30, 0])},
            {i: r0 for i in range(7)},
            [{(0, 0), (1, 0)}, {(2, 0)}, {(3, 0), (4, 0), (5, 0)}],
            names=[("z", {(6, 0)})],
        ),
        _state(
            {i: ("L", ()) for i in range(len(odd) + 1)},
            {i: r0 for i in range(len(odd) + 1)},
            [{(len(odd), 0)}],
            names=[(x, {(i, 0)}) for i, x in enumerate(odd)],
        ),
    ]


def test_key_writer_matches_reference_on_edge_cases():
    rng = random.Random(37)
    for g in _edge_case_states():
        sk = canon.form_of(g)
        order = canon._minimal_order(sk)
        assert canonical_key(g) == reference_key(sk, order)
        assert canonical_key(shuffled_copy(rng, g)) == canonical_key(g)
        for order in _orders(rng, sk, 20):
            assert canon._key(sk, order) == reference_key(sk, order)


def test_flat_leaves_compare_like_reference_encodings(virus_ts, budding_ts, sink2_ts):
    rng = random.Random(41)
    signs = set()
    forms = [canon.form_of(s.bigraph())
             for ts in (virus_ts, budding_ts, sink2_ts) for _, s in ts.states]
    forms += [canon.form_of(g) for g in _edge_case_states()]
    forms += [canon.form_of(gadget_state(rng)) for _ in range(20)]
    for sk in forms:
        rank = canon._starts(sk.ctrl)[0]
        orders = _orders(rng, sk, 4)
        # a leaf-like order and a transposition of two of its nodes of
        # one control, which differ late in the encoding
        lead = orders[1]
        i, j = rng.randrange(sk.n or 1), rng.randrange(sk.n or 1)
        if sk.n and sk.ctrl[lead[i]] == sk.ctrl[lead[j]]:
            swapped = list(lead)
            swapped[i], swapped[j] = lead[j], lead[i]
            orders.append(swapped)
        for a, b in zip(orders, orders[1:] + orders[:1]):
            fa, fb = canon._flat(sk, a, rank), canon._flat(sk, b, rank)
            ta, tb = reference_encoding(sk, a), reference_encoding(sk, b)
            sign = (fa > fb) - (fa < fb)
            assert sign == (ta > tb) - (ta < tb)
            assert (fa == fb) == (ta == tb)
            signs.add(sign)
    assert signs == {-1, 0, 1}


def _check_autos(g) -> int:
    """Key g and certify every automorphism its search recorded with the
    independent check; returns how many there were."""
    canonical_key(g)
    sk = canon.form_of(g)
    ids = sk.ids
    for auto in sk.autos:
        assert check_isomorphism(g, g, {ids[i]: ids[w] for i, w in enumerate(auto)})
    return len(sk.autos)


def test_recorded_automorphisms_are_isomorphisms(
    wsn_ts, send_mdp_ts, virus_ts, budding_ts, sink2_ts
):
    states = [s.bigraph() for ts in (wsn_ts, send_mdp_ts, virus_ts, budding_ts,
                                     sink2_ts) for _, s in ts.states]
    # the states with a recorded map: 83 of virus and 40 of the sink
    assert sum(_check_autos(g) > 0 for g in states) == 83 + 40
    maps = 0
    for k in range(2, 7):
        for g in (bare_cycles([3] * k), bare_cycles([7] * k), leafy_cycles([3] * k),
                  leafy_cycles([5] * k)):
            maps += _check_autos(g)
    assert maps >= 100


def test_check_isomorphism_rejects_non_isomorphisms():
    # the check is not vacuous: each clause refuses a map that breaks it
    g = leafy_cycles([3, 3])
    sk = canon.form_of(g)
    canonical_key(g)
    ids = sk.ids
    auto = sk.autos[0]
    good = {ids[i]: ids[w] for i, w in enumerate(auto)}
    assert check_isomorphism(g, g, good)
    ident = {v: v for v in g.nodes}
    assert check_isomorphism(g, g, ident)
    c_nodes = [v for v in g.nodes if g.nodes[v][0] == "C"]
    a_nodes = [v for v in g.nodes if g.nodes[v][0] == "A"]
    # controls differ
    assert not check_isomorphism(g, g, {**ident, c_nodes[0]: a_nodes[0],
                                        a_nodes[0]: c_nodes[0]})
    # parents do not correspond: two leaves trade rings' nodes
    assert not check_isomorphism(g, g, {**ident, a_nodes[0]: a_nodes[1],
                                        a_nodes[1]: a_nodes[0]})
    # links break: two neighbours on a ring trade places, each with its
    # leaf, so the ports of the edge between them land on two edges
    c0, c1 = c_nodes[0], c_nodes[1]
    kids = {g.parent[a][1]: a for a in a_nodes}
    swap = {**ident, c0: c1, c1: c0, kids[c0]: kids[c1], kids[c1]: kids[c0]}
    assert not check_isomorphism(g, g, swap)
    # not a bijection
    assert not check_isomorphism(g, g, {**ident, c0: c1})
    # an outer name is fixed
    h = _edge_case_states()[-1]
    ls = sorted(v for v in h.nodes)
    assert not check_isomorphism(h, h, {**{v: v for v in ls}, ls[0]: ls[1], ls[1]: ls[0]})


def _leaf_ids(kept):
    """The state's `Bigraph`, built from its kept lists, and its node ids
    in the order of the minimal leaf of its search."""
    g = kept.bigraph()
    sk = canon.form_of(g)
    return g, [sk.ids[i] for i in canon._minimal_order(sk)]


def test_every_merge_is_certified(models_dir, monkeypatch):
    # a closure merges two states when their keys are equal: two results
    # of one step, grouped by `apply_rule_all`, or a result and a state in
    # the store.  Every form the engine keys is mapped onto the first form
    # keyed to its key, minimal leaf onto minimal leaf, and the
    # independent check must accept the map.  (`StateStore.add` alone sees
    # only the store's merges: 1,071 of virus's 1,258.)
    first: dict = {}  # key -> _leaf_ids of the first form keyed to it
    hits = []

    def certified(form):
        key = canonical_key(form)
        g, order = _leaf_ids(KeptState(form))
        known = first.setdefault(key, (g, order))
        if known[0] is not g:
            assert check_isomorphism(g, known[0], dict(zip(order, known[1])))
            hits.append(key)
        return key

    monkeypatch.setattr(matching, "canonical_key", certified)
    monkeypatch.setattr(system, "canonical_key", certified)
    counts = []
    for name in ("virus", "budding", "wsn", "send_mdp"):
        ts = build_transition_system(load_model(models_dir / f"{name}.big"))
        counts.append((len(ts.states), len(hits)))
        first.clear()
        hits.clear()
    # every key met again is a merge: keys minus states (traced key counts
    # 1,544 on virus and 4,141 on budding)
    assert counts == [(286, 1544 - 286), (1092, 4141 - 1092), (4, 3), (3, 2)]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_json_round_trip():
    rng = random.Random(21)
    for _ in range(15):
        g = random_ground(rng)
        h = from_json(to_json(g))
        assert canonical_key(g) == canonical_key(h)
        assert h.outer == g.outer and h.inner == g.inner


def test_parallel_vs_tensor():
    left = ion(SIG, "B", (), ["x"])
    right = ion(SIG, "L", (), ["x"])
    fused = parallel(left, right)
    assert fused.outer.width == 2
    assert len(fused.links) == 1  # shared name fused
    with pytest.raises(TensorError):
        tensor(left, right)
