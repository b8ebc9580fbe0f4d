"""Canonical forms for ground bigraphs.

`canonical_key` maps a ground bigraph to a byte string such that two
states get the same key exactly when they are lean-support equivalent
(equal after renaming nodes and closed edges and dropping idle edges).
Region indices and outer names are interface and stay fixed.

The engine's one state type is the flat form, `Form`: integer arrays
over the node indices (ids ascending) that keep the concrete ids.  A form
is made in two places: by `form_of` from a `Bigraph` (an initial state, a
pattern, a test's state) and by `matching._splice` from its host's form,
for every rewrite result.  It is checked in one place, the `Form`
constructor.  The engine keys, labels, matches and expands forms.  A
closure keeps each state as a `KeptState` of its form's arrays, whose
`bigraph()` is the one place a form becomes a `Bigraph`, with its ids.
`canonical_key` accepts a form or a `Bigraph` and gives the same bytes.

The key is the lexicographically minimal encoding over the leaves of an
individualisation-refinement search tree.  Each tree node holds colours
of the nodes and closed edges, stable under mutual refinement: a node's
signature is its parent's colour, the sorted colours of its children and
the colours of its ports' links; an edge's is the sorted (colour,
position) pairs of its ports.  The root colours are the controls.  A
tree node branches on the first cell of more than one member, in colour
order, by giving each member in turn a colour above all others; a leaf
is a discrete colouring, encoded in colour order.

A leaf's encoding is the tuple (width, outer names, rows), a row per
node in order: its control token, its parent (('n', node rank) or ('r',
region)) and its ports' links (('e', edge rank) or ('y', outer name)).
The key is the UTF-8 `repr` of the minimal one, but no leaf builds the
tuple (`tests/oracles.reference_encoding` does).  Leaves are compared on
`_flat`, an integer list that sorts exactly like it: a control token
becomes its root colour, which ranks the state's tokens in their order;
a region parent n + r, above every node rank; an outer name ne + r,
above every edge rank.  A control fixes its arity, so the rows of two
leaves line up while they are equal.  A search with one leaf compares
nothing and makes no flat list.  `_key` writes the key bytes once, from
the minimal leaf's order.

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
pass over its form and memoises them there; `matching.apply_rule_all`
also uses them, with the automorphisms below, to rewrite one occurrence
per orbit.

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
ring length.  Each map recorded sends a leaf to a leaf that encodes
equally, so it is an automorphism of the state; `canonical_key` leaves
them on the form as `Form.autos`, and the closure expands the same form
object it keyed, so grouping by them costs no search of its own.
"""

from __future__ import annotations

from itertools import chain

from .bigraph import (
    Bigraph,
    Interface,
    Link,
    NODE,
    NotGroundError,
    REGION,
    ShapeError,
    number_text,
)


class Form:
    """The flat form of a ground state: index-based, without idle edges,
    keeping the concrete ids.  It is the engine's one state type.

    Node i is `ids[i]`, ids ascending, with concrete control `controls[i]`
    and key token `ctrl[i]`.  Edge e is `edges[e]`, idents ascending.
    `up[i]` is the parent's index, or -1 - r for region r, and
    `children[i]` the child indices, ascending.  Link code e is edge e and
    ne + r the r-th outer name (`outer_names` is sorted):
    `port_codes[i][pos]` is the code of the port's link, and `edge_ports[e]`
    and `name_ports[r]` hold each link's (node index, position) ports.
    `idle_edge` is the largest ident of an idle edge of the source, -1 if
    it has none (a lean state), since it still bounds a splice's new edge
    ids.  `twins` memoises `twin_classes`, and `autos` holds the
    automorphisms, as node index maps, that `canonical_key` found in its
    search; both are None until computed.

    The constructor is the one validity check of a state, in O(ports):
    every port slot is filled by exactly one link, every parent index is
    in range, the parents form a forest and no atomic node has a child,
    else `ShapeError`."""

    __slots__ = (
        "signature", "outer", "ids", "controls", "ctrl", "up", "children",
        "port_codes", "edges", "edge_ports", "name_ports", "outer_names",
        "n", "ne", "port_span", "width", "idle_edge", "twins", "autos",
        "_by_control",
    )

    def __init__(self, signature, outer, ids: list, controls: list,
                 ctrl: list, up: list, edges: list, edge_ports: list,
                 name_ports: list, idle_edge: int = -1):
        self.signature = signature
        self.outer = outer
        self.ids = ids
        self.controls = controls
        self.ctrl = ctrl
        self.up = up
        self.edges = edges
        self.edge_ports = edge_ports
        self.name_ports = name_ports
        self.idle_edge = idle_edge
        n = self.n = len(ids)
        self.ne = len(edges)
        width = self.width = outer.width
        self.outer_names = tuple(sorted(outer.names))
        self.twins = self.autos = self._by_control = None
        children: list = [()] * n  # a leaf's is shared, for memory
        for i, u in enumerate(up):
            if not -width <= u < n:
                raise ShapeError(f"node {ids[i]}: parent out of range")
            if u < 0:
                continue
            if children[u]:
                children[u].append(i)
            elif signature[controls[u][0]].atomic:
                raise ShapeError(f"atomic node {ids[u]} has children")
            else:
                children[u] = [i]
        self.children = children
        # each node has one parent, so the walk down from the regions
        # reaches every node exactly when no chain of parents cycles
        reached = [i for i, u in enumerate(up) if u < 0]
        for i in reached:
            reached.extend(children[i])
        if len(reached) != n:
            raise ShapeError("the parents form a cycle")
        codes = self.port_codes = [
            [-1] * a if a else () for a in (signature[c[0]].arity for c in controls)
        ]
        for code, ports in enumerate(chain(edge_ports, name_ports)):
            for i, pos in ports:
                row = codes[i]
                if not 0 <= pos < len(row):
                    raise ShapeError(f"port ({ids[i]}, {pos}) does not exist")
                if row[pos] != -1:
                    raise ShapeError(f"port ({ids[i]}, {pos}) is filled twice")
                row[pos] = code
        if any(-1 in row for row in codes):
            raise ShapeError("a port lies on no link")
        self.port_span = max(map(len, codes), default=0) or 1

    def nodes_by_control(self) -> dict:
        """The indices of the nodes of each concrete control present, in
        ascending order, built on first use.  Controls come in the order
        of their first node."""
        if self._by_control is None:
            index: dict = {}
            for i, c in enumerate(self.controls):
                index.setdefault(c, []).append(i)
            self._by_control = index
        return self._by_control


class KeptState:
    """A state as a closure keeps it: the `Form` fields of these names,
    the form's own lists and not copies, which are all its `Bigraph` needs,
    so the rest of the form can go once the state is expanded."""

    __slots__ = (
        "signature", "outer", "ids", "controls", "up", "edges", "edge_ports",
        "name_ports",
    )

    def __init__(self, form: Form):
        for name in self.__slots__:
            setattr(self, name, getattr(form, name))

    def bigraph(self) -> Bigraph:
        """The state as a validated `Bigraph` with these ids, built anew
        on every call."""
        ids = self.ids
        keys = chain(self.edges, sorted(self.outer.names))
        ports = chain(self.edge_ports, self.name_ports)
        return Bigraph(
            self.signature,
            dict(zip(ids, self.controls)),
            {v: (REGION, -1 - u) if u < 0 else (NODE, ids[u])
             for v, u in zip(ids, self.up)},
            {},
            {k: Link(frozenset([(ids[i], pos) for i, pos in ps]))
             for k, ps in zip(keys, ports)},
            Interface(0),
            self.outer,
        )


def form_of(b: Bigraph) -> Form:
    """The form of b (its sites and inner names left out), made on first
    use and memoised on b."""
    if b._form is not None:
        return b._form
    ids = sorted(b.nodes)
    idx = {v: i for i, v in enumerate(ids)}
    controls = [b.nodes[v] for v in ids]
    tokens: dict = {}
    for c in controls:
        if c not in tokens:
            tokens[c] = (c[0], tuple(map(number_text, c[1])))
    up = [-1 - at if kind == REGION else idx[at]
          for kind, at in map(b.parent.__getitem__, ids)]
    edges = b.edges()
    idle = [k.ident for k in edges if not b.links[k].ports]
    if idle:
        edges = [k for k in edges if b.links[k].ports]
    links = [b.links[k] for k in [*edges, *sorted(b.outer.names)]]
    form = b._form = Form(
        b.signature, b.outer, ids, controls, [tokens[c] for c in controls], up,
        edges,
        [[(idx[v], pos) for v, pos in link.ports] for link in links[:len(edges)]],
        [[(idx[v], pos) for v, pos in link.ports] for link in links[len(edges):]],
        max(idle, default=-1),
    )
    return form


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


def _refine(sk: Form, ncol: list, ecol: list, ncells: dict, ecells: dict,
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
            etouch = {ecol[c] for v in moved for c in sk.port_codes[v] if c < ne}
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


def twin_classes(form: Form) -> list[int]:
    """Node index -> the index of a representative of its twin class, in
    one pass over the form.

    Twins are leaves of one concrete control and one parent whose ports,
    position by position, sit on the same link or each on a private
    single-port edge.  Every permutation of a class is an automorphism of
    the state.  A node with children is its own class.  Memoised on the
    form."""
    if form.twins is not None:
        return form.twins
    ne, eps, up = form.ne, form.edge_ports, form.up
    rep = list(range(form.n))
    first: dict = {}
    for i, kids in enumerate(form.children):
        if not kids:
            ports = tuple([
                None if c < ne and len(eps[c]) == 1 else c for c in form.port_codes[i]
            ])
            rep[i] = first.setdefault((form.ctrl[i], up[i], ports), i)
    form.twins = rep
    return rep


def _ranks(sk: Form, order: list[int]) -> tuple[list[int], list[int]]:
    """A leaf's node ranks, by `order`, and edge ranks.  Edges are ranked
    as their sorted lists of (node rank, position) ports sort.  Distinct
    edges have disjoint ports, so that is the order of their least ports,
    in which a walk over the nodes in order, and over each node's ports in
    position order, first meets them."""
    ci = [0] * sk.n
    for rank, i in enumerate(order):
        ci[i] = rank
    ne = sk.ne
    ei = [0] * ne
    if ne:
        met = dict.fromkeys(chain.from_iterable(map(sk.port_codes.__getitem__, order)))
        for rank, e in enumerate([c for c in met if c < ne]):
            ei[e] = rank
    return ci, ei


def _flat(sk: Form, order: list[int], rank: list[int]) -> list[int]:
    """A leaf's encoding as the integer list that sorts like it (see the
    module docstring); `rank` holds the root's colours."""
    ci, ei = _ranks(sk, order)
    n, up, codes = sk.n, sk.up, sk.port_codes
    link = ei + list(range(sk.ne, sk.ne + len(sk.outer_names)))
    flat: list = []
    for i in order:
        p = up[i]
        flat += (rank[i], ci[p] if p >= 0 else n - 1 - p)
        if codes[i]:
            flat += map(link.__getitem__, codes[i])
    return flat


def _key(sk: Form, order: list[int]) -> bytes:
    """The key of the leaf `order`, the UTF-8 `repr` of its encoding,
    written as text in one pass."""
    ci, ei = _ranks(sk, order)
    up, codes, ctrl = sk.up, sk.port_codes, sk.ctrl
    link = [f"('e', {r})" for r in ei] + [f"('y', {x!r})" for x in sk.outer_names]
    heads: dict = {}  # id of a control token -> its row's opening text
    rows = []
    for i in order:
        head = heads.get(id(ctrl[i]))
        if head is None:
            head = heads[id(ctrl[i])] = f"({ctrl[i]!r}, "
        cs = codes[i]
        if not cs:
            ports = "()"
        elif len(cs) == 1:
            ports = f"({link[cs[0]]},)"
        else:
            ports = f"({', '.join(map(link.__getitem__, cs))})"
        p = up[i]
        if p >= 0:
            rows.append(f"{head}('n', {ci[p]}), {ports})")
        else:
            rows.append(f"{head}('r', {-1 - p}), {ports})")
    text = f"({rows[0]},)" if len(rows) == 1 else f"({', '.join(rows)})"
    return f"({sk.width}, {sk.outer_names!r}, {text})".encode()


def _find(root: dict, v: int) -> int:
    while root[v] != v:
        v = root[v]
    return v


def _search(sk: Form, col: tuple, top: int, moved, autos: list,
            rank: list[int], probe=None):
    """The minimal and the first leaf, each (`_flat` encoding, node order),
    of the search subtree whose colouring `col` (node colours, edge
    colours, node cells and edge cells, keyed by colour) was last stable
    before `moved` were individualised; `col` is refined in place.  `top`
    is the least colour above all others, and `rank` the root's colours.
    Automorphisms found are appended to `autos`.  A leaf of the root call
    (`moved` None) is the tree's only leaf, and its encoding is None.
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
            leaf = (None if moved is None else _flat(sk, order, rank), order)
            if probe is not None and probe[0][0] == leaf[0]:
                (_, porder), pcol, i1, i = probe
                g = _automorphism(porder, order)
                if [pcol[w] for w in g] == pcol:
                    autos.append(g)
                    if g[i1] == i:
                        return None
            return leaf, leaf
        target = sorted(ncells[start])
        twins = twin_classes(sk)
        if len({twins[i] for i in target}) > 1:
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
            rank, probe if first is None else (first, ncol, target[0], i),
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


def ground_form(g) -> Form:
    """The form of a ground state given as a `Form` or as a `Bigraph`: the
    one conversion at the entry of `canonical_key` and of the public
    functions of `matching`."""
    if isinstance(g, Form):
        return g
    if not g.is_ground():
        raise NotGroundError("keys and occurrences are defined on ground states")
    return form_of(g)


def _minimal_order(sk: Form) -> list[int]:
    """The node order of the minimal leaf of sk's search tree.  The
    automorphisms the search found are left on the form, as `autos`."""
    ncol, ncells = _starts(sk.ctrl)
    ecells = {0: list(range(sk.ne))} if sk.ne else {}
    autos: list = []
    best, _ = _search(
        sk, (ncol, [0] * sk.ne, ncells, ecells), sk.n, None, autos, list(ncol),
    )
    sk.autos = autos
    return best[1]


def canonical_key(g) -> bytes:
    """Deterministic key of a ground state, given as a `Form` or a
    `Bigraph`; equal keys iff lean-support equivalent states.  Leaves the
    automorphisms its search found on the form (`Form.autos`)."""
    sk = ground_form(g)
    return _key(sk, _minimal_order(sk))
