"""Independent brute-force oracles, written clause by clause and kept free
of the engine's search code: an exhaustive isomorphism check (for the
canonical-key cross-check), an exhaustive occurrence counter (for the
matcher), the decomposition witness of a match and rewriting by the
composition formula (for the splice) and per-state value iteration on
MDPs (for the analysis kernel).  Also the earlier canonical-form search,
with a refinement that recomputes every signature each round and no
automorphism pruning (for the worklist refinement and the pruned search);
it has its own twin rule, written from the definition on the bigraph, and
shares only the form's numbering with `bigrs.canon`.  Its leaf encoding,
a nested tuple, is the reference for the key `canon` writes and for the
order in which `canon` compares leaves.  A check that a node map is an
isomorphism of two states (for the automorphisms `canon` records).  And
`apply_rule_all` as it was before orbit grouping,
which rewrites and keys every occurrence with the engine's own
`occurrences`, `rewrite` and `canonical_key` (for the grouping), and
`occurrences` as it was before the cover key, which quotients the
engine's raw embeddings by enumerated automorphisms.  And the simulator
without its memo, which steps from the concrete state at every step (for
`bigrs.simulate`), and the step kernel and the labeller without the
control dispatch, which offer every rule and every predicate (for
`bigrs.matching.Dispatch`), and a search's node order planned from
scratch (for the memoised plans).  The per-state views over the step
kernel (successor distributions, rates and per-action steps, and the
jump chain of a CTMC), which only tests call, and the closure as a
plain key-indexed search through that index-free kernel (for the state
store of `bigrs.system`).  The JSON export
built as one document in memory from `to_json` of each state's `Bigraph`
(for the export, which writes it one state at a time from the kept
arrays).  Unbounded DTMC/CTMC reachability by one direct solve of the
reduced system (for the SCC-by-SCC solve and its certified bounds).
Last, the helpers that only round-trip checks need: bounded DTMC reachability
in exact rationals, readers of bigraph JSON and of exported PRISM DTMC
bundles, and a printer of `.big` source."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

from bigrs.bigraph import (
    Bigraph,
    ControlDecl,
    Edge,
    Interface,
    Link,
    NODE,
    REGION,
    NotGroundError,
    compose,
    identity,
    lean,
    tensor,
)
from bigrs.canon import Form, KeptState, canonical_key, form_of
from bigrs.language import (
    BAtom,
    BClose,
    BigDef,
    BinOp,
    BProduct,
    BRepl,
    BSite,
    BUnit,
    ConstDef,
    CtrlDef,
    Item,
    Model,
    Neg,
    Num,
    ReactDef,
    Ref,
)
from bigrs.matching import (
    _Embedder,
    apply_rule_all,
    has_occurrence,
    occurrences,
    rewrite,
)
from bigrs.walk import TraceStep
from bigrs.system import TransitionSystem, _step, rule_dispatch


def _classes(b: Bigraph) -> dict:
    by: dict = {}
    for v in sorted(b.nodes):
        by.setdefault(b.nodes[v], []).append(v)
    return by


def arity(b: Bigraph, v: int) -> int:
    """The port count of node v of b."""
    return b.signature[b.nodes[v][0]].arity


@lru_cache(maxsize=64)
def port_links(b: Bigraph) -> dict:
    """(node, port) -> the key of the link holding that port, for every
    port of b; memoised for the last bigraphs asked about (a `Bigraph`
    hashes by identity), since a search asks about one bigraph many
    times.  Callers only read the map."""
    return {pt: key for key, link in b.links.items() for pt in link.ports}


def brute_is_solid(b: Bigraph) -> bool:
    """The five solidity clauses, written out directly."""
    # every region holds at least one node
    for r in range(b.outer.width):
        if not any(p == (REGION, r) for p in b.parent.values()):
            return False
    # every outer name connects to something besides itself
    for name in b.outer.names:
        link = b.links[name]
        if not link.ports and not link.inner:
            return False
    # no two sites are siblings, and no two inner names share a link
    site_homes = list(b.site_parent.values())
    if len(site_homes) != len(set(site_homes)):
        return False
    for link in b.links.values():
        if len(link.inner) > 1:
            return False
    # no site directly under a region
    if any(p[0] == REGION for p in b.site_parent.values()):
        return False
    # no outer name linked to an inner name
    for name in b.outer.names:
        if b.links[name].inner:
            return False
    return True


def brute_support_equivalent(f: Bigraph, g: Bigraph) -> bool:
    """Try every control-preserving node bijection; regions and outer names
    stay fixed, closed edges must correspond with exact endpoint sets."""
    f, g = lean(f), lean(g)
    if f.outer.width != g.outer.width or f.outer.names != g.outer.names:
        return False
    cf, cg = _classes(f), _classes(g)
    if set(cf) != set(cg) or any(len(cf[c]) != len(cg[c]) for c in cf):
        return False
    keys = sorted(cf, key=repr)
    for choice in product(*(permutations(cg[c]) for c in keys)):
        m = {}
        for c, perm in zip(keys, choice):
            m.update(zip(cf[c], perm))
        if _is_iso(f, g, m):
            return True
    return False


def _is_iso(f: Bigraph, g: Bigraph, m: dict) -> bool:
    for v, p in f.parent.items():
        q = g.parent[m[v]]
        if p[0] == REGION:
            if q != p:
                return False
        elif q != (NODE, m[p[1]]):
            return False
    emap = {}
    lf, lg = port_links(f), port_links(g)
    for v in f.nodes:
        for i in range(arity(f, v)):
            kf = lf[v, i]
            kg = lg[m[v], i]
            if isinstance(kf, str):
                if kf != kg:
                    return False
            else:
                if not isinstance(kg, Edge):
                    return False
                if kf in emap and emap[kf] != kg:
                    return False
                emap[kf] = kg
    if len(set(emap.values())) != len(emap):
        return False
    if len(emap) != len([k for k in g.links if isinstance(k, Edge)]):
        return False
    for kf, kg in emap.items():
        image = {(m[v], i) for v, i in f.links[kf].ports}
        if image != g.links[kg].ports:
            return False
    return True


# ---------------------------------------------------------------------------
# occurrence counting
# ---------------------------------------------------------------------------


def _embeddings(redex: Bigraph, target: Bigraph) -> list[dict]:
    """Every injective control-preserving node map that satisfies the
    occurrence clauses, by filtering the full enumeration."""
    cr, ct = _classes(redex), _classes(target)
    if any(len(ct.get(c, ())) < len(vs) for c, vs in cr.items()):
        return []
    keys = sorted(cr, key=repr)
    pools = [
        [dict(zip(cr[c], chosen)) for chosen in permutations(ct[c], len(cr[c]))]
        for c in keys
    ]
    out = []
    for parts in product(*pools):
        m: dict = {}
        for part in parts:
            m.update(part)
        if _valid_embedding(redex, target, m):
            out.append(m)
    return out


def _valid_embedding(r: Bigraph, g: Bigraph, m: dict) -> bool:
    images = set(m.values())
    # place: node parents preserved
    for v, p in r.parent.items():
        if p[0] == NODE and g.parent[m[v]] != (NODE, m[p[1]]):
            return False
    # place: each region's top nodes share one place, distinct between
    # regions, never inside or below the image
    places = []
    for reg in range(r.outer.width):
        tops = [v for v, p in r.parent.items() if p == (REGION, reg)]
        gp = {g.parent[m[v]] for v in tops}
        if len(gp) != 1:
            return False
        place = gp.pop()
        walk = place
        while walk[0] == NODE:
            if walk[1] in images:
                return False
            walk = g.parent[walk[1]]
        places.append(place)
    if len(set(places)) != len(places):
        return False
    # place: exact children unless a site absorbs the spares
    with_site = {p[1] for p in r.site_parent.values() if p[0] == NODE}
    for v in r.nodes:
        mine = {m[c] for c in r.children((NODE, v))}
        theirs = set(g.children((NODE, m[v])))
        if not mine <= theirs:
            return False
        if v not in with_site and mine != theirs:
            return False
    # links: ports land consistently; edges exact; names injective
    lmap: dict = {}
    lr, lg = port_links(r), port_links(g)
    for v in r.nodes:
        for i in range(arity(r, v)):
            kf = lr[v, i]
            kg = lg[m[v], i]
            if kf in lmap:
                if lmap[kf] != kg:
                    return False
            else:
                lmap[kf] = kg
    name_targets = [kg for kf, kg in lmap.items() if isinstance(kf, str)]
    if len(set(name_targets)) != len(name_targets):
        return False
    for kf, kg in lmap.items():
        if isinstance(kf, Edge):
            if not isinstance(kg, Edge):
                return False
            image = {(m[v], i) for v, i in r.links[kf].ports}
            if r.links[kf].inner:
                if not image <= g.links[kg].ports:
                    return False
            elif image != g.links[kg].ports:
                return False
    return True


def _brute_automorphisms(r: Bigraph) -> list[dict]:
    """Self-bijections preserving structure with regions permuted, outer
    names mapped bijectively onto outer names, and sites following their
    parents."""
    cr = _classes(r)
    keys = sorted(cr, key=repr)
    with_site = {p[1] for p in r.site_parent.values() if p[0] == NODE}
    out = []
    for choice in product(*(permutations(cr[c]) for c in keys)):
        m: dict = {}
        for c, perm in zip(keys, choice):
            m.update(zip(cr[c], perm))
        if _is_automorphism(r, m, with_site):
            out.append(m)
    return out


def _is_automorphism(r: Bigraph, m: dict, with_site: set) -> bool:
    region_map: dict = {}
    for v, p in r.parent.items():
        q = r.parent[m[v]]
        if p[0] == NODE:
            if q != (NODE, m[p[1]]):
                return False
        else:
            if q[0] != REGION:
                return False
            if region_map.setdefault(p[1], q[1]) != q[1]:
                return False
    if len(set(region_map.values())) != len(region_map):
        return False
    for v in r.nodes:
        if (v in with_site) != (m[v] in with_site):
            return False
        if len(r.children((NODE, v))) != len(r.children((NODE, m[v]))):
            return False
    emap: dict = {}
    nmap: dict = {}
    links = port_links(r)
    for v in r.nodes:
        for i in range(arity(r, v)):
            kf = links[v, i]
            kg = links[m[v], i]
            if isinstance(kf, str):
                if not isinstance(kg, str):
                    return False
                if nmap.setdefault(kf, kg) != kg:
                    return False
            else:
                if not isinstance(kg, Edge):
                    return False
                if emap.setdefault(kf, kg) != kg:
                    return False
    if len(set(nmap.values())) != len(nmap):
        return False
    if len(set(emap.values())) != len(emap):
        return False
    for kf, kg in emap.items():
        image = {(m[v], i) for v, i in r.links[kf].ports}
        if image != r.links[kg].ports:
            return False
    return True


def brute_occurrence_count(redex: Bigraph, target: Bigraph) -> int:
    """Embeddings quotiented by redex automorphisms."""
    embeddings = _embeddings(redex, target)
    if not embeddings:
        return 0
    auts = _brute_automorphisms(redex)
    fixed = sorted(redex.nodes)
    reps = set()
    for m in embeddings:
        reps.add(min(tuple(m[a[v]] for v in fixed) for a in auts))
    return len(reps)


def quotient_occurrences(redex: Bigraph, target: Bigraph) -> list:
    """`occurrences` as it was before it kept one embedding per cover: the
    engine's raw embeddings, sorted by image, with the first of each class
    modulo redex automorphisms kept (a min over `_brute_automorphisms`)."""
    raw = _Embedder(redex, form_of(target)).run()
    fixed = sorted(redex.nodes)
    raw.sort(key=lambda m: m.node_map)
    auts = _brute_automorphisms(redex)
    seen = set()
    out = []
    for m in raw:
        image = dict(zip(fixed, m.node_map))
        rep = min(tuple(image[a[v]] for v in fixed) for a in auts)
        if rep not in seen:
            seen.add(rep)
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# isomorphism through networkx (for states beyond the brute-force reach)
# ---------------------------------------------------------------------------


def _labelled_graph(b: Bigraph):
    """Place and link graphs of a lean ground bigraph as one labelled
    digraph: parent to child, node to port, port to link.  Regions and outer
    names are labelled with their identity, nodes with their control, ports
    with their position.  Each node and link label also carries the node
    count of its link component (linked nodes, transitively), and a final
    Weisfeiler-Lehman hash folds each vertex's neighbourhood into its
    label.  Both are isomorphism invariants; without them VF2++ cannot tell
    a ring of six from two rings of three until deep in its search."""
    import networkx as nx

    b = lean(b)
    linked = nx.Graph()
    linked.add_nodes_from(b.nodes)
    for link in b.links.values():
        vs = sorted({v for v, _ in link.ports})
        linked.add_edges_from(zip(vs, vs[1:]))
    size = {v: len(comp) for comp in nx.connected_components(linked) for v in comp}
    gr = nx.DiGraph()
    for r in range(b.outer.width):
        gr.add_node((REGION, r), label=("region", r))
    for key, link in b.links.items():
        reach = max((size[v] for v, _ in link.ports), default=0)
        gr.add_node(key, label=("edge" if isinstance(key, Edge) else key, reach))
    for v, (control, params) in b.nodes.items():
        params = tuple(Fraction(p) for p in params)
        gr.add_node((NODE, v), label=(control, params, size[v]))
    links = port_links(b)
    for v in b.nodes:
        gr.add_edge(b.parent[v], (NODE, v))
        for i in range(arity(b, v)):
            gr.add_node(("port", v, i), label=("port", i))
            gr.add_edge((NODE, v), ("port", v, i))
            gr.add_edge(("port", v, i), links[v, i])
    hashes = nx.weisfeiler_lehman_subgraph_hashes(
        gr.to_undirected(), node_attr="label", iterations=6
    )
    for u in gr:
        gr.nodes[u]["label"] = hashes[u][-1]
    return gr


def nx_support_equivalent(f: Bigraph, g: Bigraph) -> bool:
    """Lean-support equivalence of two ground bigraphs, decided by networkx
    VF2++ on their labelled place-and-link digraphs."""
    import networkx as nx

    if f.outer != g.outer:
        return False
    return nx.vf2pp_is_isomorphic(
        _labelled_graph(f), _labelled_graph(g), node_label="label"
    )


# ---------------------------------------------------------------------------
# canonical keys without the worklist or automorphism pruning
# ---------------------------------------------------------------------------


def check_isomorphism(a: Bigraph, b: Bigraph, node_map: dict) -> bool:
    """`node_map` (a's node ids -> b's) is an isomorphism of the ground
    states a and b up to renaming edges, in O(n + ports): a bijection of
    the nodes that keeps controls; parents correspond, with regions
    fixed; and the ports go to links bijectively, the ports of each link
    of a onto all the ports of one link of b, edges onto edges and each
    outer name onto itself.  Idle edges are ignored."""
    if a.outer != b.outer or len(a.nodes) != len(b.nodes):
        return False
    if node_map.keys() != a.nodes.keys() or set(node_map.values()) != b.nodes.keys():
        return False
    for v, w in node_map.items():
        kind, at = a.parent[v]
        if a.nodes[v] != b.nodes[w] or b.parent[w] != (
            (NODE, node_map[at]) if kind == NODE else (kind, at)
        ):
            return False
    link_of = {port: key for key, link in b.links.items() for port in link.ports}
    hit = set()
    for key, link in a.links.items():
        if not link.ports:
            continue
        images = {link_of.get((node_map[v], pos)) for v, pos in link.ports}
        if len(images) != 1:
            return False
        image = images.pop()
        if image is None or image in hit:
            return False
        if len(b.links[image].ports) != len(link.ports):
            return False
        if isinstance(key, Edge) != isinstance(image, Edge):
            return False
        if not isinstance(key, Edge) and key != image:
            return False
        hit.add(image)
    return len(hit) == sum(1 for link in b.links.values() if link.ports)


def twins(g: Bigraph, a: int, b: int) -> bool:
    """Nodes a and b of g are twins: leaves of one concrete control and one
    parent whose ports, position by position, share a link or each sit on
    a one-port edge.  Written from the definition, independently of
    `canon.twin_classes`."""
    if g.nodes[a] != g.nodes[b] or g.parent[a] != g.parent[b]:
        return False
    if g.children((NODE, a)) or g.children((NODE, b)):
        return False
    links = port_links(g)
    for pos in range(arity(g, a)):
        ka, kb = links[a, pos], links[b, pos]
        if ka != kb and not (
            isinstance(ka, Edge)
            and isinstance(kb, Edge)
            and len(g.links[ka].ports) == 1
            and len(g.links[kb].ports) == 1
        ):
            return False
    return True


def twin_cell(g: Bigraph, sk: Form, cell: list[int]) -> bool:
    """Every member of a cell of form indices is a twin of its first."""
    lead = sk.ids[cell[0]]
    return all(twins(g, lead, sk.ids[i]) for i in cell[1:])


def _refine_tokens(g: Bigraph, sk: Form) -> tuple[list, list]:
    """Per node of `sk`, read from `g`: ('r', region) or the parent's
    index, and per port ('y', name) or the edge's index."""
    idx = {v: i for i, v in enumerate(sk.ids)}
    links = port_links(g)
    eidx = {
        links[sk.ids[v], pos]: e
        for e, eps in enumerate(sk.edge_ports)
        for v, pos in eps
    }
    parents = []
    ports = []
    for v in sk.ids:
        kind, at = g.parent[v]
        parents.append(("r", at) if kind == REGION else idx[at])
        keys = [links[v, pos] for pos in range(arity(g, v))]
        ports.append([eidx[k] if isinstance(k, Edge) else ("y", k) for k in keys])
    return parents, ports


def full_refine(g: Bigraph, sk: Form, ncol: list[int], ecol: list[int],
                tokens=None):
    """Stable mutual refinement of node and edge colours of the lean ground
    bigraph `g`, viewed through `sk`, that recomputes every signature on
    every round: the reference for `canon._refine`.  Parent and port
    tokens are read from `g`, or passed as `_refine_tokens(g, sk)`."""
    parents, ports = tokens or _refine_tokens(g, sk)
    while True:
        if sk.ne:
            esigs = [
                (ecol[e], tuple(sorted((ncol[v], pos) for v, pos in sk.edge_ports[e])))
                for e in range(sk.ne)
            ]
            ranking = {s: r for r, s in enumerate(sorted(set(esigs)))}
            new_ecol = [ranking[s] for s in esigs]
        else:
            new_ecol = ecol
        nsigs = []
        for i in range(sk.n):
            par = parents[i]
            par_tok = par if isinstance(par, tuple) else ("n", ncol[par])
            port_tok = tuple(
                t if isinstance(t, tuple) else ("e", new_ecol[t]) for t in ports[i]
            )
            nsigs.append(
                (ncol[i], par_tok, tuple(sorted(ncol[c] for c in sk.children[i])),
                 port_tok)
            )
        ranking = {s: r for r, s in enumerate(sorted(set(nsigs)))}
        new_ncol = [ranking[s] for s in nsigs]
        if len(set(new_ncol)) == len(set(ncol)) and len(set(new_ecol)) == len(set(ecol)):
            return new_ncol, new_ecol
        ncol, ecol = new_ncol, new_ecol


def partition(col: list) -> list[list[int]]:
    """A colouring's ordered partition: its cells, in colour order."""
    by: dict = {}
    for i, c in enumerate(col):
        by.setdefault(c, []).append(i)
    return [by[c] for c in sorted(by)]


def reference_encoding(sk: Form, order: list[int]) -> tuple:
    """The encoding of the leaf `order` of the search over `sk` as a nested
    tuple: (width, outer names, rows), where row i is (control token,
    ('n', parent rank) or ('r', region), ports), a port ('e', edge rank)
    or ('y', outer name), and edges are ranked by their sorted (node rank,
    position) ports.  `canon` writes the key `reference_key` gives from
    it, and compares leaves in the order these tuples sort in."""
    ci = [0] * sk.n
    for rank, i in enumerate(order):
        ci[i] = rank
    ekeys = [
        tuple(sorted((ci[v], pos) for v, pos in sk.edge_ports[e]))
        for e in range(sk.ne)
    ]
    ei = [0] * sk.ne
    for rank, e in enumerate(sorted(range(sk.ne), key=lambda e: ekeys[e])):
        ei[e] = rank
    ne, names = sk.ne, sk.outer_names
    rows = []
    for i in order:
        p = sk.up[i]
        ports = tuple(
            ("e", ei[c]) if c < ne else ("y", names[c - ne]) for c in sk.port_codes[i]
        )
        rows.append((sk.ctrl[i], ("r", -1 - p) if p < 0 else ("n", ci[p]), ports))
    return (sk.width, sk.outer_names, tuple(rows))


def reference_key(sk: Form, order: list[int]) -> bytes:
    """The key of the leaf `order`: its `reference_encoding` by `repr`."""
    return repr(reference_encoding(sk, order)).encode()


def unpruned_search(g: Bigraph, sk: Form, ncol: list[int], ecol: list[int],
                    tokens=None) -> tuple:
    """The minimal encoding over every leaf of the search tree of the lean
    ground bigraph `g`, viewed through `sk`, with the twin rule but
    without automorphism pruning.  `tokens` is as for `full_refine`."""
    tokens = tokens or _refine_tokens(g, sk)
    ncol, ecol = full_refine(g, sk, ncol, ecol, tokens)
    while True:
        target = next((c for c in partition(ncol) if len(c) > 1), None)
        if target is None:
            return reference_encoding(sk, sorted(range(sk.n), key=ncol.__getitem__))
        if twin_cell(g, sk, target):
            fresh = sk.n + sk.ne
            ncol = list(ncol)
            for j, i in enumerate(target):
                ncol[i] = fresh + j
            ncol, ecol = full_refine(g, sk, ncol, ecol, tokens)
            continue
        best = None
        for i in target:
            branch = list(ncol)
            branch[i] = sk.n + sk.ne
            enc = unpruned_search(g, sk, branch, list(ecol), tokens)
            if best is None or enc < best:
                best = enc
        return best


def unpruned_key(g: Bigraph) -> bytes:
    """`canon.canonical_key` computed by `unpruned_search`."""
    if not g.is_ground():
        raise NotGroundError("canonical keys are defined on ground states")
    g = lean(g)
    sk = form_of(g)
    init = {c: r for r, c in enumerate(sorted(set(sk.ctrl)))}
    ncol = [init[c] for c in sk.ctrl]
    return repr(unpruned_search(g, sk, ncol, [0] * sk.ne)).encode()


# ---------------------------------------------------------------------------
# rewriting by the algebra, and rewriting every occurrence
# ---------------------------------------------------------------------------


def _fresh_names(count: int, taken) -> list[str]:
    prefix = "~x"
    while any(n.startswith(prefix) for n in taken):
        prefix = "~" + prefix
    return [f"{prefix}{i}" for i in range(count)]


def decompose(g: Bigraph, m):
    """The witness ``(context, parameter, identity names)`` of match `m`
    in g, with ``g = context . (redex x id_names) . parameter``.  The
    match's node indices and link codes are read back as ids and keys
    through the forms of g and of the redex."""
    form, r = m.target, m.redex
    assert form is form_of(g)
    rf = form_of(r)
    node_map = {rf.ids[v]: form.ids[i] for v, i in enumerate(m.node_map)}
    keys = [*form.edges, *form.outer_names]
    rkeys = [*rf.edges, *rf.outer_names]
    link_map = {rkeys[c]: keys[t] for c, t in enumerate(m.link_map)}
    region_place = [
        (NODE, form.ids[p]) if p >= 0 else (REGION, -1 - p) for p in m.region_place
    ]
    images = set(node_map.values())

    # parameter: one region per redex site, carrying the absorbed subtrees
    site_owner = {
        s: p[1] for s, p in r.site_parent.items()
    }  # solid: every site sits under a node
    absorbed_top: dict = {}
    for s in range(r.inner.width):
        holder = node_map[site_owner[s]]
        mapped = {node_map[c] for c in r.children((NODE, site_owner[s]))}
        absorbed_top[s] = [
            c for c in g.children((NODE, holder)) if c not in mapped
        ]
    prm_nodes: set = set()
    prm_parent: dict = {}
    stack = []
    for s, tops in sorted(absorbed_top.items()):
        for c in tops:
            prm_parent[c] = (REGION, s)
            stack.append(c)
    while stack:
        c = stack.pop()
        prm_nodes.add(c)
        for k in g.children((NODE, c)):
            prm_parent[k] = (NODE, c)
            stack.append(k)

    # links reaching out of the parameter get one identity name each
    port_groups: dict = {}
    links = port_links(g)
    for c in sorted(prm_nodes):
        for i in range(arity(g, c)):
            key = links[c, i]
            port_groups.setdefault(key, set()).add((c, i))
    group_keys = sorted(
        port_groups, key=lambda k: (1, k.ident) if isinstance(k, Edge) else (0, k)
    )
    taken = g.outer.names | r.outer.names
    xnames = _fresh_names(len(group_keys), taken)
    prm_links = {
        x: Link(frozenset(port_groups[k])) for x, k in zip(xnames, group_keys)
    }
    prm = Bigraph(
        g.signature,
        {c: g.nodes[c] for c in prm_nodes},
        {c: prm_parent[c] for c in prm_nodes},
        {},
        prm_links,
        Interface(0),
        Interface(r.inner.width, frozenset(xnames)),
    )

    # context: everything else, with one site per redex region
    consumed = {
        link_map[k] for k in link_map if isinstance(k, Edge)
    }
    ctx_nodes = {
        v: g.nodes[v] for v in g.nodes if v not in images and v not in prm_nodes
    }
    ctx_links: dict = {}
    for key, link in g.links.items():
        if key in consumed:
            continue
        ctx_links[key] = Link(
            frozenset(p for p in link.ports if p[0] in ctx_nodes), link.inner
        )
    inner_on: dict = {}
    for y in sorted(r.outer.names):
        inner_on.setdefault(link_map[y], set()).add(y)
    for x, k in zip(xnames, group_keys):
        inner_on.setdefault(k, set()).add(x)
    for key, names in inner_on.items():
        link = ctx_links[key]
        ctx_links[key] = Link(link.ports, link.inner | frozenset(names))
    ctx = Bigraph(
        g.signature,
        ctx_nodes,
        {v: g.parent[v] for v in ctx_nodes},
        {i: region_place[i] for i in range(r.outer.width)},
        ctx_links,
        Interface(r.outer.width, r.outer.names | frozenset(xnames)),
        g.outer,
    )
    return ctx, prm, tuple(xnames)



def algebraic_rewrite(g: Bigraph, rule, m) -> Bigraph:
    """``lean(C . (R x id_X) . d)`` for the witness ``(C, d, X)`` of the
    match, built with the bigraph operations: the reference that
    `bigrs.matching.rewrite` must reproduce id for id."""
    ctx, prm, xnames = decompose(g, m)
    mid = rule.reactum
    if xnames:
        mid = tensor(mid, identity(xnames, signature=g.signature))
    if prm.nodes or prm.links or mid.inner.width or mid.inner.names:
        mid = compose(mid, prm)
    return lean(compose(ctx, mid))


class Outcome(NamedTuple):
    """An outcome of `ungrouped_apply_rule_all`, read like a
    `bigrs.matching.RewriteOutcome`."""

    form: Form
    count: int
    key: bytes


def ungrouped_apply_rule_all(g: Bigraph, rule) -> list:
    """`bigrs.matching.apply_rule_all` without orbit grouping: rewrite and
    key every occurrence, then merge the results by key."""
    groups: dict = {}
    for m in occurrences(rule.redex, g):
        res = rewrite(g, rule, m)
        key = canonical_key(res)
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [form_of(res), 1]
    return [
        Outcome(groups[k][0], groups[k][1], k) for k in sorted(groups)
    ]


# ---------------------------------------------------------------------------
# the step kernel and the labeller without the control dispatch
# ---------------------------------------------------------------------------


def reference_step(kind: str, g: Bigraph, rules=(), actions=()) -> list:
    """`bigrs.system._step` offering every rule to `apply_rule_all`: the
    choices at g as (action or None, entries), an entry being (rule name,
    successor key, successor, weight * count).  An abrs action is
    applicable when one of its rules occurs, whatever its weight."""
    outcomes: dict = {}

    def entries(rule_list) -> list:
        out = []
        for rule in rule_list:
            if rule.name not in outcomes:
                outcomes[rule.name] = apply_rule_all(g, rule)
            w = 1 if kind == "brs" else rule.weight
            if w:
                out.extend(
                    (rule.name, o.key, KeptState(o.form).bigraph(), w * o.count)
                    for o in outcomes[rule.name]
                )
        return out

    if kind == "abrs":
        choices = [(a, entries(a.rules)) for a in actions]
        return [(a, es) for a, es in choices
                if any(outcomes[r.name] for r in a.rules)]
    es = entries(rules)
    return [(None, es)] if es or kind == "pbrs" else []


def reference_order(pattern: Bigraph, target: Bigraph) -> list:
    """The node order of a search for `pattern` in `target`, planned from
    scratch: most constrained first, by the number of target nodes of the
    node's control and then by id, among the nodes next to those already
    ordered (parent, children or a shared link)."""
    neigh: dict = {v: set() for v in pattern.nodes}
    for v, p in pattern.parent.items():
        if p[0] == NODE:
            neigh[v].add(p[1])
            neigh[p[1]].add(v)
    for link in pattern.links.values():
        on_link = {v for v, _ in link.ports}
        for v in on_link:
            neigh[v] |= on_link
    have = form_of(target).nodes_by_control()
    n_cands = {v: len(have.get(c, ())) for v, c in pattern.nodes.items()}
    order: list = []
    remaining = set(pattern.nodes)
    while remaining:
        pool = {v for v in remaining if neigh[v] & set(order)} or remaining
        v = min(pool, key=lambda v: (n_cands[v], v))
        order.append(v)
        remaining.remove(v)
    return order


def reference_labels(g: Bigraph, predicates) -> tuple:
    """The labels and state reward of g, asking `has_occurrence` about
    every predicate."""
    sat = [p for p in predicates if has_occurrence(p.pattern, g)]
    return frozenset(p.name for p in sat), sum((p.reward for p in sat), Fraction(0))


# ---------------------------------------------------------------------------
# per-state views over the step kernel, and the closure without the store
# ---------------------------------------------------------------------------


def _masses(entries) -> dict:
    """Successor key -> (successor, summed mass), in first-seen order."""
    out: dict = {}
    for _, key, succ, mass in entries:
        prev = out.get(key)
        out[key] = (succ, mass) if prev is None else (prev[0], prev[1] + mass)
    return out


def _distribution(g: Bigraph, entries) -> dict:
    """Key -> (state, probability): the entries' masses normalized by their
    total, or the delta on g when there are none."""
    masses = _masses(entries)
    total = sum(m for _, m in masses.values())
    if not total:
        return {canonical_key(g): (g, Fraction(1))}
    return {k: (b, m / total) for k, (b, m) in masses.items()}


def next_distribution(g: Bigraph, rules) -> dict:
    """The reaction probability distribution from g as key -> (state, prob);
    the delta on g itself when nothing (with positive weight) applies."""
    (_, entries), = _step("pbrs", form_of(g), rule_dispatch(rules))
    return _distribution(g, entries)


def next_rates(g: Bigraph, rules) -> dict:
    """Aggregate exit rates from g as key -> (state, rate); zero-rate
    targets are omitted and the map may be empty (CTMC terminal state)."""
    return _masses(
        e for _, es in _step("sbrs", form_of(g), rule_dispatch(rules)) for e in es
    )


def action_step(g: Bigraph, actions) -> list:
    """One (action, distribution) entry per applicable action, in name
    order, normalized within the action; empty when no action applies."""
    choices = _step("abrs", form_of(g), rule_dispatch(actions=actions), actions)
    return [(a, _distribution(g, es))
            for a, es in sorted(choices, key=lambda c: c[0].name)]


def key_index(ts) -> dict:
    """Canonical key -> state number of a built system."""
    return {key: i for i, (key, _) in enumerate(ts.states)}


def embedded_chain(ts) -> list[dict]:
    """Jump-chain rows of a CTMC: each row divided by its exit rate;
    rate-0 states become absorbing self-loops."""
    assert ts.kind == "sbrs"
    out = []
    for i, row in enumerate(ts.rows):
        for _, rates in row or [(None, {i: Fraction(1)})]:
            total = sum(rates.values(), Fraction(0))
            out.append({j: r / total for j, r in rates.items()})
    return out


def reference_closure(spec, max_states: int = 1_000_000) -> TransitionSystem:
    """`bigrs.build_transition_system` as a plain breadth-first search over
    canonical keys through `reference_step` and `reference_labels`.  Each
    level is numbered in key order.  At the cap the first states of the
    last level are kept unexpanded.  A row that is unexpanded or leads past
    the cap becomes terminal (the delta for a pbrs).  A cut system comes
    back with `complete` False instead of being raised.  Its states are
    kept as the engine keeps them, as a `KeptState` of their forms."""
    init = lean(spec.initial)
    states = [(canonical_key(init), init)]
    index = {states[0][0]: 0}
    key_rows: list = []  # per expanded state: (action name, {key: mass})
    complete = True
    level = [0]
    while level and complete:
        found: dict = {}
        for i in level:
            key, g = states[i]
            row = []
            for action, es in reference_step(spec.kind, g, spec.rules, spec.actions):
                for _, k, b, _ in es:
                    if k not in index:
                        found.setdefault(k, b)
                if spec.kind == "brs":
                    entries = dict.fromkeys(sorted({e[1] for e in es}), 1)
                elif spec.kind == "sbrs":
                    entries = {k: m for k, (_, m) in _masses(es).items()}
                else:
                    masses = {k: m for k, (_, m) in _masses(es).items()}
                    total = sum(masses.values())
                    entries = ({k: m / total for k, m in masses.items()}
                               if total else {key: Fraction(1)})
                row.append((action and action.name, entries))
            key_rows.append(row)
        level = []
        for k in sorted(found):
            if len(states) == max_states:
                complete = False
                break
            index[k] = len(states)
            states.append((k, found[k]))
            level.append(index[k])
    rows = []
    for i, (key, _) in enumerate(states):
        row = key_rows[i] if i < len(key_rows) else None
        if row is None or any(k not in index for _, es in row for k in es):
            row = [(None, {key: Fraction(1)})] if spec.kind == "pbrs" else []
        rows.append([(a, {index[k]: m for k, m in es.items()}) for a, es in row])
    marks = [reference_labels(g, spec.predicates) for _, g in states]
    return TransitionSystem(
        spec.kind, [(k, KeptState(form_of(g))) for k, g in states], rows,
        labels=[ls for ls, _ in marks],
        label_names=tuple(p.name for p in spec.predicates),
        state_reward=[r for _, r in marks],
        action_reward={a.name: a.reward for a in spec.actions},
        complete=complete,
    )


# ---------------------------------------------------------------------------
# simulation without a memo
# ---------------------------------------------------------------------------


def _pick(rng: random.Random, entries, total):
    x = rng.random() * float(total)
    acc = 0.0
    for entry in entries:
        acc += float(entry[3])
        if x < acc:
            return entry
    return entries[-1]


def reference_simulate(spec, steps: int, seed: int | None = None) -> list:
    """`bigrs.simulate` calling `reference_step` on the concrete state
    reached at every step.  A brs step is uniform over the distinct
    successor keys, in first-seen order, and records the first rule that
    yields the chosen one."""
    rng = random.Random(seed)
    g = lean(spec.initial)
    key = canonical_key(g)
    now = 0.0 if spec.kind == "sbrs" else None
    trace: list = []

    def digest(k: bytes) -> str:
        return hashlib.sha256(k).hexdigest()[:16]

    for k in range(1, steps + 1):
        choices = reference_step(spec.kind, g, spec.rules, spec.actions)
        if not choices:
            break
        if spec.kind == "abrs":
            action, entries = choices[rng.randrange(len(choices))]
        else:
            action, entries = choices[0]
        name = action.name if action else None
        if not entries:
            trace.append(TraceStep(k, digest(key), None, name))
            continue
        if spec.kind == "brs":
            first: dict = {}
            for e in entries:
                first.setdefault(e[1], e)
            rule, key, g, _ = list(first.values())[rng.randrange(len(first))]
        else:
            total = sum(e[3] for e in entries)
            if spec.kind == "sbrs":
                now += rng.expovariate(float(total))
            rule, key, g, _ = _pick(rng, entries, total)
        trace.append(TraceStep(k, digest(key), rule, name, now))
    return trace


# ---------------------------------------------------------------------------
# value iteration, one state and one choice at a time
# ---------------------------------------------------------------------------


def brute_mdp_bounded_reach(ts, goal_label: str, horizon: int, mode: str) -> float:
    """Optimal probability of hitting the goal within `horizon` steps;
    states with an empty action row are absorbing."""
    goals = set(ts.states_with_label(goal_label))
    opt = min if mode == "min" else max
    n = ts.n_states
    rows = [
        [[(j, float(p)) for j, p in dist.items()] for _, dist in row]
        for row in ts.rows
    ]
    x = [1.0 if i in goals else 0.0 for i in range(n)]
    for _ in range(horizon):
        nxt = [0.0] * n
        for i in range(n):
            if i in goals:
                nxt[i] = 1.0
            elif not rows[i]:
                nxt[i] = x[i]
            else:
                nxt[i] = opt(
                    sum(p * x[j] for j, p in choice) for choice in rows[i]
                )
        x = nxt
    return x[0]


def brute_mdp_expected_cost(ts, horizon: int, mode: str) -> float:
    """Optimal expected cumulative reward over `horizon` steps:
    v_{j+1}(s) = r(s) + opt_a [ r(s,a) + sum mu_a(s') v_j(s') ], with
    absorbing states accumulating their state reward each step."""
    opt = min if mode == "min" else max
    n = ts.n_states
    srew = [float(r) for r in ts.state_reward] if ts.state_reward else [0.0] * n
    rows = []
    for row in ts.rows:
        rows.append(
            [
                (float(ts.action_reward.get(name, 0)),
                 [(j, float(p)) for j, p in dist.items()])
                for name, dist in row
            ]
        )
    v = [0.0] * n
    for _ in range(horizon):
        nxt = [0.0] * n
        for i in range(n):
            if not rows[i]:
                nxt[i] = srew[i] + v[i]
            else:
                nxt[i] = srew[i] + opt(
                    ar + sum(p * v[j] for j, p in choice)
                    for ar, choice in rows[i]
                )
        v = nxt
    return v[0]


def exact_bounded_reach(ts, goal_label: str, horizon: int) -> Fraction:
    """Probability of hitting the goal within `horizon` steps of a DTMC,
    in exact rationals: x_{k+1}(s) = 1 on goal else sum P(s,.) x_k."""
    goals = set(ts.states_with_label(goal_label))
    n = ts.n_states
    x = [Fraction(int(i in goals)) for i in range(n)]
    for _ in range(horizon):
        x = [
            Fraction(1)
            if i in goals
            else sum(
                (p * x[j] for _, dist in ts.rows[i] for j, p in dist.items()),
                Fraction(0),
            )
            for i in range(n)
        ]
    return x[0]


def reference_reach(ts, goal_label: str, exact_max: int = 40):
    """Probability of ever reaching the goal from state 0 of a DTMC, or of
    a CTMC's jump chain, by one direct solve of the whole reduced system,
    with no SCC split: goal states have 1, states from which no goal is
    reachable 0, and the others solve x = A x + b together.  In exact
    rationals (a Fraction) by Gauss-Jordan elimination when at most
    `exact_max` states remain, else a float from numpy.linalg.solve."""
    goals = set(ts.states_with_label(goal_label))
    if ts.kind == "sbrs":
        rows = embedded_chain(ts)
    else:
        rows = [{j: Fraction(p) for j, p in ts.rows[i][0][1].items()}
                for i in range(ts.n_states)]
    hits = set(goals)  # grown to the states that can reach a goal
    while True:
        more = {i for i, row in enumerate(rows) if i not in hits and hits & row.keys()}
        if not more:
            break
        hits |= more
    if 0 in goals or 0 not in hits:
        return Fraction(int(0 in goals))
    unknown = sorted(hits - goals)
    pos = {s: r for r, s in enumerate(unknown)}
    k = len(unknown)
    eqs = []  # per unknown state: its entries among the unknowns, and b
    for s in unknown:
        inner, b = {}, Fraction(0)
        for j, p in rows[s].items():
            if j in goals:
                b += p
            elif j in pos:
                inner[pos[j]] = inner.get(pos[j], 0) + p
        eqs.append((inner, b))
    if k > exact_max:
        import numpy as np

        m, rhs = np.eye(k), np.zeros(k)
        for r, (inner, b) in enumerate(eqs):
            rhs[r] = float(b)
            for q, p in inner.items():
                m[r, q] -= float(p)
        return float(np.linalg.solve(m, rhs)[pos[0]])
    a = [[Fraction(int(r == q)) for q in range(k)] + [b] for r, (_, b) in enumerate(eqs)]
    for line, (inner, _) in zip(a, eqs):
        for q, p in inner.items():
            line[q] -= p
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return a[pos[0]][k]


# ---------------------------------------------------------------------------
# the JSON export as one document of `Bigraph` dumps (for the streamed
# `export_json`, which writes each state from its kept arrays)
# ---------------------------------------------------------------------------


def _num_to_json(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    return x


def to_json(b: Bigraph) -> dict:
    """Structure dump; schema documented in docs/formats.md."""

    def key_out(k):
        return {"name": k} if isinstance(k, str) else {"edge": k.ident}

    return {
        "signature": [
            {
                "name": d.name,
                "arity": d.arity,
                "atomic": d.atomic,
                "params": d.param_count,
            }
            for d in sorted(b.signature.values(), key=lambda d: d.name)
        ],
        "nodes": [
            {
                "id": v,
                "control": b.nodes[v][0],
                "params": [_num_to_json(p) for p in b.nodes[v][1]],
            }
            for v in sorted(b.nodes)
        ],
        "place": {
            "regions": b.outer.width,
            "sites": b.inner.width,
            "node_parent": {str(v): list(b.parent[v]) for v in sorted(b.parent)},
            "site_parent": {
                str(s): list(b.site_parent[s]) for s in sorted(b.site_parent)
            },
        },
        "links": [
            {
                **key_out(k),
                "ports": sorted(map(list, b.links[k].ports)),
                "inner": sorted(b.links[k].inner),
            }
            for k in sorted(b.links, key=lambda k: (isinstance(k, Edge),
                                                    k.ident if isinstance(k, Edge) else k))
        ],
        "inner_names": sorted(b.inner.names),
        "outer_names": sorted(b.outer.names),
    }


def system_to_json(ts: TransitionSystem) -> dict:
    """The whole JSON document of a system, built in memory: the file
    `bigrs.export.export_json` writes holds
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of it."""
    doc: dict = {"kind": ts.kind, "states": ts.n_states, "complete": ts.complete}
    weight = "rate" if ts.kind == "sbrs" else "prob"
    doc["transitions"] = []
    for i, name, j, k in ts.rows.entries():
        edge = {"src": i, "dst": j}
        if name is not None:
            edge["action"] = name
        if ts.kind != "brs":
            edge[weight] = float(ts.rows.masses[k])
        doc["transitions"].append(edge)
    doc["labels"] = {str(i): sorted(ls) for i, ls in enumerate(ts.labels) if ls}
    if any(r != 0 for r in ts.state_reward):
        doc["state_rewards"] = {
            str(i): float(r) for i, r in enumerate(ts.state_reward) if r != 0
        }
    if ts.kind == "abrs":
        per_state = {}
        for i, row in enumerate(ts.rows):
            per = {name: float(ts.action_reward.get(name, 0)) for name, _ in row}
            per = {name: r for name, r in sorted(per.items()) if r != 0}
            if per:
                per_state[str(i)] = per
        if per_state:
            doc["action_rewards"] = per_state
    doc["state_bigraphs"] = [
        to_json(s.bigraph()) if s is not None else None for _, s in ts.states
    ]
    return doc


# ---------------------------------------------------------------------------
# readers of exported artifacts (round-trip checks)
# ---------------------------------------------------------------------------


def from_json(data: dict) -> Bigraph:
    """The bigraph that `to_json` dumped."""

    def num(x):
        return Fraction(x["num"], x["den"]) if isinstance(x, dict) else x

    signature = {
        d["name"]: ControlDecl(d["name"], d["arity"], d["atomic"], d["params"])
        for d in data["signature"]
    }
    nodes = {
        n["id"]: (n["control"], tuple(num(p) for p in n["params"]))
        for n in data["nodes"]
    }
    place = data["place"]
    parent = {int(v): tuple(p) for v, p in place["node_parent"].items()}
    site_parent = {int(s): tuple(p) for s, p in place["site_parent"].items()}
    links = {}
    for l in data["links"]:
        key = l["name"] if "name" in l else Edge(l["edge"])
        links[key] = Link(
            frozenset(tuple(p) for p in l["ports"]), frozenset(l["inner"])
        )
    return Bigraph(
        signature,
        nodes,
        parent,
        site_parent,
        links,
        Interface(place["sites"], frozenset(data["inner_names"])),
        Interface(place["regions"], frozenset(data["outer_names"])),
    )


def load_prism_dtmc(tra_path, lab_path) -> TransitionSystem:
    """Read an exported DTMC bundle back into a transition system with
    float probabilities and no state bigraphs."""
    with open(tra_path, "r", encoding="utf-8") as fh:
        n = int(fh.readline().split()[0])
        rows: list[dict] = [dict() for _ in range(n)]
        for line in fh:
            if line.strip():
                src, dst, p = line.split()
                rows[int(src)][int(dst)] = float(p)
    labels: list[set] = [set() for _ in range(n)]
    with open(lab_path, "r", encoding="utf-8") as fh:
        names = {}
        for part in fh.readline().split():
            ident, name = part.split("=")
            names[int(ident)] = name.strip('"')
        for line in fh:
            if line.strip():
                state, ids = line.split(":")
                labels[int(state)] = {names[int(i)] for i in ids.split()}
    return TransitionSystem(
        kind="pbrs",
        states=[(f"imported:{i}".encode(), None) for i in range(n)],
        rows=[[(None, r)] for r in rows],
        labels=[frozenset(ls - {"init"}) for ls in labels],
        label_names=tuple(sorted(set(names.values()) - {"init"})),
        state_reward=[0.0] * n,
    )


# ---------------------------------------------------------------------------
# `.big` source printer (round-trips through parse)
# ---------------------------------------------------------------------------


def _pp_num(e) -> str:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Neg):
        return f"-{_pp_num(e.arg)}"
    if isinstance(e, BinOp):
        return f"({_pp_num(e.left)} {e.op} {_pp_num(e.right)})"
    raise TypeError(e)


def _pp_bexp(e) -> str:
    if isinstance(e, BUnit):
        return "1"
    if isinstance(e, BSite):
        return "id"
    if isinstance(e, BAtom):
        s = e.name
        if e.args:
            s += "(" + ", ".join(_pp_num(a) for a in e.args) + ")"
        if e.names:
            s += "{" + ",".join(e.names) + "}"
        return s if e.child is None else f"{s}.({_pp_bexp(e.child)})"
    if isinstance(e, BProduct):
        return "(" + f" {e.op} ".join(_pp_bexp(p) for p in e.parts) + ")"
    if isinstance(e, BClose):
        return f"/{e.name} ({_pp_bexp(e.body)})"
    if isinstance(e, BRepl):
        return f"par({_pp_num(e.count)}, {_pp_bexp(e.body)})"
    raise TypeError(e)


def _pp_item(it: Item, rewards: bool = False) -> str:
    s = it.name
    if it.args:
        s += "(" + ", ".join(_pp_num(a) for a in it.args) + ")"
    if rewards and it.reward is not None:
        s += "[" + _pp_num(it.reward) + "]"
    if it.ranges:
        s += " for " + ", ".join(
            f"{v} in {_pp_num(lo)}:{_pp_num(hi)}" for v, lo, hi in it.ranges
        )
    return s


def pretty(model: Model) -> str:
    """Regenerate source text; `parse(pretty(parse(s)))` equals `parse(s)`."""
    out = []
    for d in model.decls:
        if isinstance(d, CtrlDef):
            head = "atomic " if d.atomic else ""
            if d.params:
                out.append(
                    f"{head}fun ctrl {d.name}({', '.join(d.params)}) = "
                    f"{_pp_num(d.arity)};"
                )
            else:
                out.append(f"{head}ctrl {d.name} = {_pp_num(d.arity)};")
        elif isinstance(d, ConstDef):
            out.append(f"{d.kind} {d.name} = {_pp_num(d.value)};")
        elif isinstance(d, BigDef):
            if d.params:
                out.append(
                    f"fun big {d.name}({', '.join(d.params)}) = {_pp_bexp(d.body)};"
                )
            else:
                out.append(f"big {d.name} = {_pp_bexp(d.body)};")
        elif isinstance(d, ReactDef):
            arrow = (
                "-->" if d.weight is None else f"-[{_pp_num(d.weight)}]->"
            )
            head = (
                f"fun react {d.name}({', '.join(d.params)})"
                if d.params
                else f"react {d.name}"
            )
            out.append(
                f"{head} = {_pp_bexp(d.redex)} {arrow} {_pp_bexp(d.reactum)};"
            )
    s = model.system
    out.append(f"begin {s.kind}")
    out.append(f"  init = {s.init};")
    out.append("  rules = [" + ", ".join(_pp_item(i) for i in s.rules) + "];")
    if s.preds:
        out.append(
            "  preds = [" + ", ".join(_pp_item(i, True) for i in s.preds) + "];"
        )
    if s.actions:
        rows = []
        for a in s.actions:
            head = a.name if a.reward is None else f"{a.name}[{_pp_num(a.reward)}]"
            rows.append(f"{head} = {{" + ", ".join(_pp_item(i) for i in a.rules) + "}")
        out.append("  actions = [" + ", ".join(rows) + "];")
    out.append("end")
    return "\n".join(out) + "\n"
