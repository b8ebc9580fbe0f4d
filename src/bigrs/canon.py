"""Canonical forms for ground bigraphs.

`canonical_key` maps a ground bigraph to a byte string such that two
states get the same key exactly when they are lean-support equivalent
(equal after renaming nodes and closed edges and dropping idle edges).
Region indices and outer names are interface and stay fixed.

The key is the lexicographically minimal encoding over the leaves of an
individualisation-refinement search tree.  Each tree node holds colours
of the nodes and closed edges, stable under mutual refinement: a node's
signature is its parent's colour, the sorted colours of its children and
the colours of its ports' links; an edge's is the sorted (colour,
position) pairs of its ports.  The root colours are the controls.  A
tree node branches on the first cell of more than one member, in colour
order, by giving each member in turn a colour above all others; a leaf
is a discrete colouring, encoded in colour order.

Refinement only re-sorts touched cells (Paige & Tarjan, "Three partition
refinement algorithms", SIAM J. Comput. 1987).  Colours are cell starts:
a cell's colour is the number of items of smaller colour, computed once
from the controls at the root.  The search carries the colours and the cells,
keyed by colour, from the root to every leaf, and `_refine` refines them
in place.  Splitting a cell gives its sub-cells starts inside its own
range, so the first keeps its colour and no other cell is renumbered.
Individualising a node moves it into a new singleton cell of colour
`top`, the least colour above all others: n at the root, one more for
each node individualised on the path.  Every colour is then ordered as
the dense rank of its cell would be, so the target (the least colour of a
cell of two or more members) and the leaf (the cells in colour order) do
not depend on the form.  The first round re-sorts every cell.  After
that, an edge cell is re-sorted only if one of its edges has a port on a
node whose colour changed in the previous round.  A node cell is
re-sorted only if a member's parent or child changed colour in the
previous round, or one of its port edges changed colour in this round's
edge step.  Any other cell keeps equal signatures and cannot split, so
each round yields the ordered partition of the round that recomputes
every signature (`tests/oracles.full_refine`).  A search step passes down
only the nodes it individualised, so its first round touches only their
neighbours.

One kind of cell is split without branching: a cell whose members all
lie in one class of `twin_classes`.  Twins are leaves (no children) of
one control with one shared parent, whose ports, position by position,
either sit on the same link or each sit on a private single-port edge.
Any ordering of twins is related to any other by an automorphism, so all
orderings encode identically, and the cell's members take the colours
from `top` up in index order.  This keeps populations of identical
sibling entities (the common shape in counter-style models) linear
instead of factorial.  Leaves with different parents are not twins:
reordering them moves them between parents, so they are branched on like
any other cell.  `twin_classes` finds the classes of a whole state in one
pass and memoises them on it; `matching.apply_rule_all` also uses them,
to rewrite one occurrence per orbit.

The search prunes by automorphisms (McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014).  When two leaves encode
equally, the map between their node orders is an automorphism.  A tree
node merges the orbits of its target cell under the automorphisms found
in its subtree that keep its colours, and skips a member whose orbit
holds an explored member: that child's subtree is an automorphic image
of an explored one, so its minimal encoding is the same.  The first-leaf
rule of nauty cuts a later child early.  When the first leaf under it
encodes like the node's first leaf, and the map between the two keeps
the node's colours and sends the first child's branch node to this
child's, the whole child subtree is an automorphic image of the first
child's, and it is abandoned.  Neither rule changes which encoding is
minimal.  They only cut how many leaves are visited: k disjoint copies
of a symmetric ring visit 2k leaves instead of k! times a power of the
ring length.
"""

from __future__ import annotations

from .bigraph import Bigraph, Edge, NotGroundError, REGION, number_text


class _Skeleton:
    """Index-based view of a ground bigraph without its idle edges, fixed
    across branches.

    Node i is `ids[i]`.  Parents and ports are integer codes, which
    `_encode` writes as tokens: `up[i]` is the parent's index, or -1 - r
    for region r, and `port_codes[i][pos]` is the index of the port's edge,
    or ne + r for the r-th outer name."""

    def __init__(self, b: Bigraph):
        self.state = b  # for `twin_classes`, memoised on it
        node_ids = self.ids = sorted(b.nodes)
        idx = {v: i for i, v in enumerate(node_ids)}
        edge_keys = sorted(
            (k for k, link in b.links.items() if isinstance(k, Edge) and link.ports),
            key=lambda e: e.ident,
        )
        n = self.n = len(node_ids)
        ne = self.ne = len(edge_keys)
        self.ctrl: list = []
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.up: list[int] = []
        self.port_codes: list[list[int]] = []
        tokens: dict = {}
        for i, v in enumerate(node_ids):
            c = b.nodes[v]
            if c not in tokens:
                tokens[c] = (c[0], tuple(map(number_text, c[1])))
            self.ctrl.append(tokens[c])
            kind, at = b.parent[v]
            if kind == REGION:
                self.up.append(-1 - at)
            else:
                self.up.append(idx[at])
                self.children[idx[at]].append(i)
            self.port_codes.append([0] * b.signature[c[0]].arity)
        self.edge_ports: list[list] = []
        self.node_edges: list[list[int]] = [[] for _ in range(n)]
        for e, k in enumerate(edge_keys):
            eps = sorted((idx[v], pos) for v, pos in b.links[k].ports)
            self.edge_ports.append(eps)
            for i, pos in eps:
                self.port_codes[i][pos] = e
                self.node_edges[i].append(e)
        self.outer_names = tuple(sorted(b.outer.names))
        for r, y in enumerate(self.outer_names):
            for v, pos in b.links[y].ports:
                self.port_codes[idx[v]][pos] = ne + r
        self.port_span = max(map(len, self.port_codes), default=0) or 1
        self.width = b.outer.width


def _starts(col: list) -> tuple[list[int], dict[int, list[int]]]:
    """Cell-start colours of `col` (each item's colour becomes the number of
    items of smaller colour) and the cells, keyed by their start."""
    order = sorted(range(len(col)), key=col.__getitem__)
    starts = [0] * len(col)
    cells: dict = {}
    start, prev = 0, None
    for pos, v in enumerate(order):
        if col[v] != prev:
            start, prev = pos, col[v]
            cells[start] = []
        starts[v] = start
        cells[start].append(v)
    return starts, cells


def _resort(col: list[int], cells: dict, touched, sig) -> list[int]:
    """Sort each touched cell by `sig` and split it where `sig` changes.

    Every signature is taken before any colour changes.  A sub-cell's
    colour is its start within the old cell's range, so the first keeps
    the old colour and no other cell is renumbered.  Returns the items
    whose colour changed."""
    plans = []
    for start in touched:
        members = cells[start]
        if len(members) > 1:
            keyed = sorted([(sig(v), v) for v in members])
            if keyed[0][0] != keyed[-1][0]:
                plans.append((start, keyed))
    moved = []
    for start, keyed in plans:
        sub, cell = start, [keyed[0][1]]
        for pos in range(1, len(keyed)):
            key, v = keyed[pos]
            if key != keyed[pos - 1][0]:
                cells[sub] = cell
                sub, cell = start + pos, []
            cell.append(v)
            if sub != start:
                col[v] = sub
                moved.append(v)
        cells[sub] = cell
    return moved


def _refine(sk: _Skeleton, ncol: list, ecol: list, ncells: dict, ecells: dict,
            moved=None) -> None:
    """Refine node and edge colours, and their cells keyed by colour, in
    place to the stable mutual refinement.  `moved` lists the nodes whose
    colours changed since the colouring was last stable; None re-sorts
    every cell in the first round."""
    n, ne, span, up = sk.n, sk.ne, sk.port_span, sk.up

    def esig(e):
        return tuple(sorted([ncol[v] * span + pos for v, pos in sk.edge_ports[e]]))

    def nsig(i):
        # a region parent's token 2n + 1 + r sorts above every node colour,
        # which is below n, or below 2n once individualised; a name port's
        # code ne + r sorts above every edge colour, a start below ne
        p = up[i]
        kids = sk.children[i]
        return (
            ncol[p] if p >= 0 else 2 * n - p,
            tuple(sorted([ncol[c] for c in kids])) if kids else (),
            tuple([ecol[c] if c < ne else c for c in sk.port_codes[i]]),
        )

    while True:
        if moved is None:
            etouch = list(ecells)
        else:
            etouch = {ecol[e] for v in moved for e in sk.node_edges[v]}
        emoved = _resort(ecol, ecells, etouch, esig)
        if moved is None:
            ntouch = list(ncells)
        else:
            ntouch = {ncol[c] for v in moved for c in sk.children[v]}
            ntouch.update(ncol[up[v]] for v in moved if up[v] >= 0)
            ntouch.update(ncol[v] for e in emoved for v, _ in sk.edge_ports[e])
        moved = _resort(ncol, ncells, ntouch, nsig)
        if not moved and not emoved:
            return


def twin_classes(g: Bigraph) -> dict:
    """Node id -> a representative of its twin class, in one pass over g.

    Twins are leaves of one concrete control and one parent whose ports,
    position by position, sit on the same link or each on a private
    single-port edge.  Every permutation of a class is an automorphism of
    g.  A node with children is its own class.  Computed once per bigraph
    and memoised on it."""
    if g._twins is not None:
        return g._twins
    token: dict = {}
    for key, link in g.links.items():
        private = isinstance(key, Edge) and len(link.ports) == 1
        for pt in link.ports:
            token[pt] = None if private else key
    holders = {p[1] for p in g.parent.values() if p[0] != REGION}
    rep: dict = {}
    first: dict = {}
    for v, c in g.nodes.items():
        if v in holders:
            rep[v] = v
            continue
        ports = tuple(token[v, i] for i in range(g.signature[c[0]].arity))
        rep[v] = first.setdefault((c, g.parent[v], ports), v)
    g._twins = rep
    return rep


def _encode(sk: _Skeleton, order: list[int]) -> tuple:
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


def _find(root: dict, v: int) -> int:
    while root[v] != v:
        v = root[v]
    return v


def _search(sk: _Skeleton, col: tuple, top: int, moved, autos: list, probe=None):
    """The minimal and the first leaf, each (encoding, node order), of the
    search subtree whose colouring `col` (node colours, edge colours, node
    cells and edge cells, keyed by colour) was last stable before `moved`
    were individualised; `col` is refined in place.  `top` is the least
    colour above all others.  Automorphisms found are appended to `autos`.
    `probe` is (first leaf, colouring, first branch node, this branch node)
    of the nearest ancestor that this subtree is a later child of, when
    this call is on that child's first-leaf path; returns None when the
    probe matched."""
    ncol, ecol, ncells, ecells = col
    _refine(sk, ncol, ecol, ncells, ecells, moved)
    while True:
        start = min((s for s, c in ncells.items() if len(c) > 1), default=None)
        if start is None:
            order = [ncells[s][0] for s in sorted(ncells)]
            leaf = (_encode(sk, order), order)
            if probe is not None and probe[0][0] == leaf[0]:
                (_, porder), pcol, i1, i = probe
                g = _automorphism(porder, order)
                if [pcol[w] for w in g] == pcol:
                    autos.append(g)
                    if g[i1] == i:
                        return None
            return leaf, leaf
        target = sorted(ncells[start])
        twins = twin_classes(sk.state)
        if len({twins[sk.ids[i]] for i in target}) > 1:
            break
        del ncells[start]
        for i in target:
            ncol[i] = top
            ncells[top] = [i]
            top += 1
        _refine(sk, ncol, ecol, ncells, ecells, target)
    root = {i: i for i in target}  # orbits, each rooted at its least member
    mark = len(autos)
    best = first = None
    for i in target:
        for g in autos[mark:]:
            for t in target:
                a, b = _find(root, t), _find(root, g[t])
                root[max(a, b)] = min(a, b)
        mark = len(autos)
        if _find(root, i) != i:
            continue  # an earlier member of its orbit was explored or cut
        branch = list(ncol)
        branch[i] = top
        cells = dict(ncells)
        cells[start] = [v for v in target if v != i]
        cells[top] = [i]
        res = _search(
            sk, (branch, list(ecol), cells, dict(ecells)), top + 1, [i], autos,
            probe if first is None else (first, ncol, target[0], i),
        )
        if res is None:
            if first is None:
                return None
            continue
        low, lead = res
        if first is None:
            first = lead
        if best is None or low[0] < best[0]:
            best = low
        elif low[0] == best[0]:
            g = _automorphism(best[1], low[1])
            if [ncol[w] for w in g] == ncol:
                autos.append(g)
    return best, first


def _automorphism(order: list[int], image: list[int]) -> list[int]:
    """The node map between two leaves that encode equally."""
    g = [0] * len(order)
    for v, w in zip(order, image):
        g[v] = w
    return g


def canonical_key(g: Bigraph) -> bytes:
    """Deterministic key; equal keys iff lean-support equivalent states."""
    if not g.is_ground():
        raise NotGroundError("canonical keys are defined on ground states")
    sk = _Skeleton(g)
    ncol, ncells = _starts(sk.ctrl)
    ecells = {0: list(range(sk.ne))} if sk.ne else {}
    best, _ = _search(sk, (ncol, [0] * sk.ne, ncells, ecells), sk.n, None, [])
    return repr(best[0]).encode()
