"""Seeded random bigraph generators for the test corpus."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from bigrs.bigraph import (
    Bigraph,
    ControlDecl,
    Edge,
    Interface,
    Link,
    NODE,
    REGION,
    compose,
    hole,
    identity,
    ion,
    is_solid,
    merge_parallel,
    parallel,
    tensor,
    unit,
)
from bigrs.system import TransitionSystem, WeightedRule

SIG = {
    "A": ControlDecl("A", 0),
    "B": ControlDecl("B", 1),
    "C": ControlDecl("C", 2),
    "K": ControlDecl("K", 0, atomic=True),
    "L": ControlDecl("L", 1, atomic=True),
    "P": ControlDecl("P", 1, param_count=1),
}
_CTRLS = sorted(SIG)


def _random_control(rng: random.Random):
    name = rng.choice(_CTRLS)
    params = (rng.randrange(3),) if SIG[name].param_count else ()
    return name, params


def random_ground(
    rng: random.Random,
    max_nodes: int = 8,
    max_regions: int = 2,
    name_pool: tuple = ("u", "w"),
    allow_idle_edge: bool = False,
) -> Bigraph:
    """A random ground bigraph: forest over 1..max_nodes nodes, ports wired
    to closed edges or a small outer-name pool."""
    n = rng.randint(1, max_nodes)
    m = rng.randint(1, max_regions)
    names = [x for x in name_pool if rng.random() < 0.5]
    nodes = {}
    parent = {}
    non_atomic = []
    for v in range(n):
        ctrl, params = _random_control(rng)
        nodes[v] = (ctrl, params)
        if non_atomic and rng.random() < 0.6:
            parent[v] = (NODE, rng.choice(non_atomic))
        else:
            parent[v] = (REGION, rng.randrange(m))
        if not SIG[ctrl].atomic:
            non_atomic.append(v)
    links: dict = {x: set() for x in names}
    edges: list = []
    for v in range(n):
        for i in range(SIG[nodes[v][0]].arity):
            roll = rng.random()
            if names and roll < 0.3:
                links[rng.choice(names)].add((v, i))
            elif edges and roll < 0.65:
                links[rng.choice(edges)].add((v, i))
            else:
                e = Edge(len(edges))
                edges.append(e)
                links[e] = {(v, i)}
    if allow_idle_edge and rng.random() < 0.3:
        links[Edge(len(edges))] = set()
    return Bigraph(
        SIG,
        nodes,
        parent,
        {},
        {k: Link(frozenset(pts)) for k, pts in links.items()},
        Interface(0),
        Interface(m, frozenset(names)),
    )


def random_solid(
    rng: random.Random,
    max_nodes: int = 5,
    max_regions: int = 2,
    max_sites: int = 2,
    name_pool: tuple = ("x", "y", "z"),
) -> Bigraph:
    """A random solid bigraph (redex shaped): every region inhabited, at
    most one site per parent node, no idle names, no inner names."""
    while True:
        n = rng.randint(1, max_nodes)
        m = rng.randint(1, min(max_regions, n))
        nodes = {}
        parent = {}
        non_atomic = []
        for v in range(n):
            ctrl, params = _random_control(rng)
            nodes[v] = (ctrl, params)
            if v < m:
                parent[v] = (REGION, v)  # regions all inhabited
            elif non_atomic and rng.random() < 0.5:
                parent[v] = (NODE, rng.choice(non_atomic))
            else:
                parent[v] = (REGION, rng.randrange(m))
            if not SIG[ctrl].atomic:
                non_atomic.append(v)
        site_parent = {}
        hosts = [v for v in non_atomic]
        rng.shuffle(hosts)
        for s in range(min(rng.randrange(max_sites + 1), len(hosts))):
            site_parent[s] = (NODE, hosts[s])
        site_parent = {i: p for i, (_, p) in enumerate(sorted(site_parent.items()))}
        links: dict = {}
        edges: list = []
        used_names: list = []
        for v in range(n):
            for i in range(SIG[nodes[v][0]].arity):
                roll = rng.random()
                pool = [x for x in name_pool]
                if pool and roll < 0.4:
                    x = rng.choice(pool)
                    links.setdefault(x, set()).add((v, i))
                    if x not in used_names:
                        used_names.append(x)
                elif edges and roll < 0.6:
                    links[rng.choice(edges)].add((v, i))
                else:
                    e = Edge(len(edges))
                    edges.append(e)
                    links[e] = {(v, i)}
        b = Bigraph(
            SIG,
            nodes,
            parent,
            site_parent,
            {k: Link(frozenset(pts)) for k, pts in links.items()},
            Interface(len(site_parent)),
            Interface(m, frozenset(used_names)),
        )
        if is_solid(b):
            return b


def shuffled_copy(rng: random.Random, b: Bigraph) -> Bigraph:
    """The same bigraph under a random renaming of nodes and edges (a
    support-equivalent concrete variant)."""
    node_ids = sorted(b.nodes)
    perm = list(node_ids)
    rng.shuffle(perm)
    nmap = dict(zip(node_ids, perm))
    edge_ids = [k for k in b.links if isinstance(k, Edge)]
    eperm = list(range(len(edge_ids)))
    rng.shuffle(eperm)
    emap = {e: Edge(j) for e, j in zip(edge_ids, eperm)}

    def mp(p):
        return (NODE, nmap[p[1]]) if p[0] == NODE else p

    return Bigraph(
        b.signature,
        {nmap[v]: c for v, c in b.nodes.items()},
        {nmap[v]: mp(p) for v, p in b.parent.items()},
        {s: mp(p) for s, p in b.site_parent.items()},
        {
            emap.get(k, k): Link(
                frozenset((nmap[v], i) for v, i in l.ports), l.inner
            )
            for k, l in b.links.items()
        },
        b.inner,
        b.outer,
    )


def plant(rng: random.Random, redex: Bigraph) -> Bigraph:
    """A ground bigraph that contains the redex by construction:
    context . (redex x id_X) . parameters with random context and ground
    parameters."""
    k = redex.inner.width
    params = random_ground(rng, max_nodes=2, max_regions=1, name_pool=())
    prm = params
    for _ in range(k - 1):
        prm = tensor(prm, random_ground(rng, max_nodes=2, max_regions=1,
                                        name_pool=()))
    if k == 0:
        prm = Bigraph(SIG, {}, {}, {}, {}, Interface(0), Interface(0))
    # context: one region holding `m` sites (one per redex region) plus junk
    m = redex.outer.width
    junk = rng.randrange(3)
    nodes = {}
    parent = {}
    non_atomic = []
    for v in range(junk):
        ctrl, params_ = _random_control(rng)
        while SIG[ctrl].arity:  # keep context links simple: arity-0 junk
            ctrl, params_ = _random_control(rng)
        nodes[v] = (ctrl, params_)
        parent[v] = (REGION, 0) if not non_atomic else (NODE, rng.choice(non_atomic))
        if not SIG[ctrl].atomic:
            non_atomic.append(v)
    site_parent = {}
    for s in range(m):
        if non_atomic and rng.random() < 0.5:
            site_parent[s] = (NODE, rng.choice(non_atomic))
        else:
            site_parent[s] = (REGION, 0)
    # each redex outer name becomes a closed edge of the context
    links = {
        Edge(i): Link(frozenset(), frozenset([x]))
        for i, x in enumerate(sorted(redex.outer.names))
    }
    ctx = Bigraph(
        SIG,
        nodes,
        parent,
        site_parent,
        links,
        Interface(m, redex.outer.names),
        Interface(1),
    )
    return compose(ctx, compose(tensor(redex, identity(())), prm))


def random_reactum(rng: random.Random, redex: Bigraph, max_nodes: int = 4) -> Bigraph:
    """A random reactum for `redex`: its interface, 0..max_nodes nodes,
    sites under random nodes or regions, ports on the redex's outer names
    (some of which may stay idle) or on closed edges, and sometimes one
    idle closed edge."""
    m = redex.outer.width
    n = rng.randint(0, max_nodes)
    nodes, parent, non_atomic = {}, {}, []
    for v in range(n):
        nodes[v] = _random_control(rng)
        if non_atomic and rng.random() < 0.5:
            parent[v] = (NODE, rng.choice(non_atomic))
        else:
            parent[v] = (REGION, rng.randrange(m))
        if not SIG[nodes[v][0]].atomic:
            non_atomic.append(v)
    site_parent = {
        s: (NODE, rng.choice(non_atomic)) if non_atomic and rng.random() < 0.8
        else (REGION, rng.randrange(m))
        for s in range(redex.inner.width)
    }
    names = sorted(redex.outer.names)
    links: dict = {x: set() for x in names}
    edges: list = []
    for v in range(n):
        for i in range(SIG[nodes[v][0]].arity):
            roll = rng.random()
            if names and roll < 0.5:
                links[rng.choice(names)].add((v, i))
            elif edges and roll < 0.7:
                links[rng.choice(edges)].add((v, i))
            else:
                e = Edge(len(edges))
                edges.append(e)
                links[e] = {(v, i)}
    if rng.random() < 0.2:
        links[Edge(len(edges))] = set()
    return Bigraph(
        SIG,
        nodes,
        parent,
        site_parent,
        {k: Link(frozenset(pts)) for k, pts in links.items()},
        Interface(redex.inner.width),
        redex.outer,
    )


def _ground(nodes: dict, parent: dict, links: list) -> Bigraph:
    """One-region ground bigraph whose links are closed edges, one per set
    of ports in `links`."""
    return Bigraph(
        SIG,
        nodes,
        parent,
        {},
        {Edge(j): Link(frozenset(pts)) for j, pts in enumerate(links)},
        Interface(0),
        Interface(1),
    )


def _add_ring(nodes, parent, links, length, leaf, home):
    """A ring of `length` 2-port C nodes under `home`: port 1 of each is
    linked to port 0 of the next, and each holds one leaf of control `leaf`
    (none when `leaf` is None)."""
    ring = []
    for _ in range(length):
        v = len(nodes)
        nodes[v], parent[v] = ("C", ()), home
        if leaf is not None:
            nodes[v + 1], parent[v + 1] = (leaf, ()), (NODE, v)
        ring.append(v)
    for j, v in enumerate(ring):
        links.append({(v, 1), (ring[(j + 1) % length], 0)})


def _add_hub(nodes, parent, links, ks, ls, home):
    """A 1-port B node under `home` holding `ks` K leaves and `ls` L leaves,
    the L ports and the hub's port on one edge."""
    hub = len(nodes)
    nodes[hub], parent[hub] = ("B", ()), home
    edge = {(hub, 0)}
    for j in range(ks + ls):
        v = len(nodes)
        nodes[v], parent[v] = ("K" if j < ks else "L", ()), (NODE, hub)
        if j >= ks:
            edge.add((v, 0))
    links.append(edge)


def leafy_cycles(lengths) -> Bigraph:
    """Disjoint rings of C nodes, one per entry of `lengths`, each C node
    holding one A leaf: every leaf has the same colour, but no two share a
    parent."""
    nodes: dict = {}
    parent: dict = {}
    links: list = []
    for length in lengths:
        _add_ring(nodes, parent, links, length, "A", (REGION, 0))
    return _ground(nodes, parent, links)


def bare_cycles(lengths) -> Bigraph:
    """Disjoint rings of C nodes, one per entry of `lengths`, with no
    leaves: every node has the same colour until one is individualised."""
    nodes: dict = {}
    parent: dict = {}
    links: list = []
    for length in lengths:
        _add_ring(nodes, parent, links, length, None, (REGION, 0))
    return _ground(nodes, parent, links)


_GADGETS = [(_add_ring, n, leaf) for n in (2, 3, 4) for leaf in "AK"] + [
    (_add_hub, ks, ls) for ks in (0, 1, 2) for ls in (1, 2)
]


def gadget_state(rng: random.Random, lo: int = 20, hi: int = 40) -> Bigraph:
    """A ground bigraph of lo..hi nodes built from two or three distinct
    gadgets, each repeated one to three times: rings of C nodes holding
    one leaf each, and B hubs holding K leaves plus L leaves on the hub's
    edge.  Copies sit at the root or inside repeated A rooms, so leaves of
    one colour sit under many parents of one colour.  At most 12 ring nodes
    in all and 6 under one parent: the canonical-key search prunes by
    automorphisms, but its oracle `oracles.unpruned_key` and networkx's
    VF2++ do not, so both grow factorially with the number of like rings,
    and VF2++ with the number of like siblings."""
    while True:
        nodes: dict = {}
        parent: dict = {}
        links: list = []
        homes = [(REGION, 0)]
        for _ in range(rng.randint(1, 3)):
            v = len(nodes)
            nodes[v], parent[v] = ("A", ()), (REGION, 0)
            homes.append((NODE, v))
        for add, *shape in rng.sample(_GADGETS, rng.randint(2, 3)):
            for _ in range(rng.randint(1, 3)):
                add(nodes, parent, links, *shape, rng.choice(homes))
        rings = Counter(parent[v] for v, c in nodes.items() if c == ("C", ()))
        if (
            lo <= len(nodes) <= hi
            and sum(rings.values()) <= 12
            and max(rings.values(), default=0) <= 6
        ):
            return _ground(nodes, parent, links)


def mutant(rng: random.Random, b: Bigraph) -> Bigraph:
    """Gadget state `b` after one small random change that may or may not
    preserve its isomorphism class: a leaf moved to another node with its
    parent's control, an A/K leaf recoloured, or two edge ports swapped."""
    nodes = dict(b.nodes)
    parent = dict(b.parent)
    links = [set(link.ports) for link in b.links.values()]
    leaves = [
        v for v in sorted(nodes) if parent[v][0] == NODE and not b.children((NODE, v))
    ]
    recolourable = [v for v in leaves if nodes[v][0] in "AK"]
    roll = rng.random()
    if roll < 0.4 and leaves:
        v = rng.choice(leaves)
        old = parent[v][1]
        hosts = [u for u in sorted(nodes) if u != v and nodes[u] == nodes[old]]
        parent[v] = (NODE, rng.choice(hosts))
    elif roll < 0.6 and recolourable:
        v = rng.choice(recolourable)
        nodes[v] = ("K" if nodes[v][0] == "A" else "A", ())
    else:
        ports = sorted(pt for pts in links for pt in pts)
        a, c = rng.sample(ports, 2)
        la = next(pts for pts in links if a in pts)
        lc = next(pts for pts in links if c in pts)
        if la is not lc:
            la.symmetric_difference_update({a, c})
            lc.symmetric_difference_update({a, c})
    return _ground(nodes, parent, [pts for pts in links if pts])


# leaf kinds of `twin_state`: control, parameters, and where each port sits
# ("own" a private single-port edge, "u" the outer name, "hub0" and "hub1"
# an edge shared with a third node)
_LEAVES = [
    ("K", (), ()),
    ("A", (), ()),
    ("P", (0,), ("own",)),
    ("P", (1,), ("own",)),
    ("L", (), ("own",)),
    ("L", (), ("u",)),
    ("L", (), ("hub0",)),
    ("L", (), ("hub1",)),
    ("B", (), ("own",)),
    ("B", (), ("hub0",)),
    ("C", (), ("hub1", "own")),
    ("C", (), ("own", "own")),
]


def twin_state(rng: random.Random) -> Bigraph:
    """A ground bigraph full of twins and near-twins: two to four A or B
    rooms (B rooms on a private edge or a hub edge), some nested in
    others, and a random multiset of leaves in each room and at the root.
    Leaves sit on private edges, on the outer name u or on one of two hub
    edges, which also hold a port of a C or B node at the root.  So like
    leaves sit under parents whose other children differ, share a
    multi-port edge with a third node, or share an outer name, and rooms
    of one control hold different children."""
    nodes: dict = {0: ("C", ()), 1: ("B", ())}
    parent: dict = {0: (REGION, 0), 1: (REGION, 0)}
    ports: dict = {"u": set(), "hub0": {(0, 0)}, "hub1": {(1, 0)}}
    own: list = [{(0, 1)}]

    def wire(v, where):
        for i, at in enumerate(where):
            if at == "own":
                own.append({(v, i)})
            else:
                ports[at].add((v, i))

    homes = [(REGION, 0)]
    for _ in range(rng.randint(2, 4)):
        v = len(nodes)
        ctrl = rng.choice("AB")
        nodes[v], parent[v] = (ctrl, ()), rng.choice(homes)
        if ctrl == "B":
            wire(v, (rng.choice(["own", "hub0"]),))
        homes.append((NODE, v))
    for home in homes:
        for ctrl, params, where in rng.sample(_LEAVES, rng.randint(1, 3)):
            for _ in range(rng.randint(1, 3)):
                v = len(nodes)
                nodes[v], parent[v] = (ctrl, params), home
                wire(v, where)
    return Bigraph(
        SIG,
        nodes,
        parent,
        {},
        {
            "u": Link(frozenset(ports["u"])),
            **{Edge(j): Link(frozenset(pts)) for j, pts in
               enumerate([ports["hub0"], ports["hub1"], *own])},
        },
        Interface(0),
        Interface(1, frozenset({"u"})),
    )


def _idle(*names) -> Bigraph:
    """One empty region with idle outer names."""
    return Bigraph(
        SIG, {}, {}, {}, {x: Link(frozenset()) for x in names},
        Interface(0), Interface(1, frozenset(names)),
    )


def weighted_rule(redex: Bigraph, reactum: Bigraph, name: str = "r",
                  weight=1) -> WeightedRule:
    """The rule ``redex -> reactum`` as the engine takes it, of weight 1
    unless given."""
    return WeightedRule(name, redex, reactum, Fraction(weight))


def twin_rules() -> list:
    """Rules over SIG whose redexes match one or two twins, a room with
    or without a twin inside, or leaves in two regions.  Each reactum
    changes its images, so matches that are not related by an
    automorphism give different results."""
    k, a = ion(SIG, "K"), ion(SIG, "A")
    lx = ion(SIG, "L", (), ["x"])
    p0, p1 = ion(SIG, "P", (0,), ["x"]), ion(SIG, "P", (1,), ["x"])
    pairs = [
        (k, unit(SIG)),
        (lx, merge_parallel(a, _idle("x"))),
        (ion(SIG, "A", child=hole(SIG)),
         ion(SIG, "A", child=merge_parallel(k, hole(SIG)))),
        (ion(SIG, "B", (), ["x"], child=hole(SIG)),
         ion(SIG, "B", (), ["x"], child=merge_parallel(k, hole(SIG)))),
        (p0, p1),
        (ion(SIG, "A", child=merge_parallel(k, hole(SIG))),
         ion(SIG, "A", child=hole(SIG))),
        (merge_parallel(k, k), k),
        (merge_parallel(lx, lx), lx),
        (merge_parallel(k, ion(SIG, "B", (), ["x"])),
         merge_parallel(a, ion(SIG, "B", (), ["x"]))),
        (parallel(k, lx), parallel(a, ion(SIG, "B", (), ["x"]))),
        (ion(SIG, "C", (), ["x", "y"]), ion(SIG, "C", (), ["y", "x"])),
    ]
    return [weighted_rule(l, r, f"t{i}") for i, (l, r) in enumerate(pairs)]


def random_mdp(rng: random.Random, lo: int = 2, hi: int = 12) -> TransitionSystem:
    """An MDP of lo..hi states with rational probabilities: about a fifth
    of the states are terminal (empty rows), the others have one to three
    actions of one to four targets each.  Actions carry random rewards
    (some zero), states random state rewards, and some states the label
    "goal"."""
    n = rng.randint(lo, hi)
    rows, action_reward = [], []
    for _ in range(n):
        row, rewards = [], {}
        if rng.random() >= 0.2:
            for name in rng.sample("abcde", rng.randint(1, 3)):
                targets = rng.sample(range(n), rng.randint(1, min(4, n)))
                weights = [rng.randint(1, 9) for _ in targets]
                total = sum(weights)
                row.append((
                    name,
                    {j: Fraction(w, total) for j, w in zip(targets, weights)},
                ))
                rewards[name] = Fraction(rng.choice([0, 0, 1, 2, 5]), rng.randint(1, 4))
        rows.append(row)
        action_reward.append(rewards)
    return TransitionSystem(
        kind="abrs",
        states=[(f"m{i}".encode(), None) for i in range(n)],
        rows=rows,
        labels=[frozenset({"goal"} if rng.random() < 0.25 else ()) for _ in range(n)],
        label_names=("goal",),
        state_reward=[Fraction(rng.randint(0, 3), 2) for _ in range(n)],
        action_reward=action_reward,
    )


def random_chain(rng: random.Random, kind: str, lo: int = 2, hi: int = 12) -> TransitionSystem:
    """A DTMC ("pbrs") or CTMC ("sbrs") of lo..hi states with rational
    masses: about a fifth of the states absorb (a self-loop in a DTMC, an
    empty row in a CTMC), the others have one to four targets with
    weights 1..9, normalized in a DTMC and rates in a CTMC.  Some states
    carry the label "goal"."""
    n = rng.randint(lo, hi)
    rows = []
    for i in range(n):
        if rng.random() < 0.2:
            rows.append([(None, {i: Fraction(1)})] if kind == "pbrs" else [])
            continue
        targets = rng.sample(range(n), rng.randint(1, min(4, n)))
        weights = [rng.randint(1, 9) for _ in targets]
        total = sum(weights) if kind == "pbrs" else rng.randint(1, 4)
        rows.append([(None, {j: Fraction(w, total) for j, w in zip(targets, weights)})])
    return TransitionSystem(
        kind=kind,
        states=[(f"c{i}".encode(), None) for i in range(n)],
        rows=rows,
        labels=[frozenset({"goal"} if rng.random() < 0.25 else ()) for _ in range(n)],
        label_names=("goal",),
    )
