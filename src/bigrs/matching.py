"""Occurrence enumeration and rewriting.

An occurrence of a solid pattern L in a ground state g is an embedding
that induces a decomposition ``g = C . (L x id_X) . d`` with context C and
ground parameter d.  Embeddings that differ only by an automorphism of L
denote the same occurrence and are reported once.  `occurrences` keeps
the first embedding of each cover: its image nodes, the target links of
L's outer names and the images of L's site holders.  Composing with an
automorphism keeps the cover.  Conversely, L is solid and has no inner
names, so the bijection of L's nodes between two embeddings of one cover
keeps parents and roots, maps edges to edges, names to names and holders
to holders: it is an automorphism.  No automorphism is enumerated.

There is one searcher, `_Embedder`: plain backtracking over pattern nodes
in a most-constrained-first order (rarest control in the target first,
then nodes adjacent to already-placed ones), with place- and
link-feasibility pruning at every assignment.  Pattern and target are
both flat forms (`canon.Form`) and the search reads them through the
same arrays: a match maps pattern node indices to node indices and
pattern link codes to link codes.  The public functions take a state as
a form or as a `Bigraph`, converted once at entry (`canon.ground_form`).
The searcher draws candidates from the target's control index
(`Form.nodes_by_control`, built once per state), extends one partial
embedding in place and undoes it through one trail.  Matching
restricted to existence checks (`has_occurrence`) stops at the first
embedding and skips deduplication.  A pattern is compiled once into a
`_Plan`, memoised on the pattern as the control index is on a state:
the pattern passed its checks, and the plan holds its form (`form_of`,
itself memoised), its control requirement, neighbour sets and site
holders as node indices, and the node orders already planned.  An order
depends on the target only through the number of candidates of each
pattern control, so it is memoised by that vector, and every search uses
the order a fresh plan would give.  A target short of some control gets
no match without a separate check: the order plans a node with no
candidates first.

A `Dispatch` answers, once per state, which patterns of a list can occur
in it.  Each pattern is filed under one anchor control it requires, the
one fewest patterns of the list share; a state's controls pick out the
patterns filed under them, and those whose full control requirement the
state meets are its candidates, in list order.  A pattern left out falls
short of some control, so `occurrences` would find nothing and
`has_occurrence` would say no.  A pattern with no nodes is always a
candidate.  The step kernel and the labeller offer a state only its
candidates (`system._step`, `system.labeller`).

A rule, for `apply_rule_all` and `rewrite`, is a `system.WeightedRule`:
its constructor has checked that the redex is solid and that redex and
reactum share one interface, so neither function checks that again.
Rewriting at an occurrence replaces the redex image by the reactum over
the same parameter: the result is ``lean(C . (R x id_X) . d)``.  `_splice`
writes it in one pass straight into the result's form: context copied,
reactum added, parameter subtrees re-parented under the reactum's sites,
ports relinked, idle edges dropped.  The node and edge ids it assigns are
the ones the composition formula assigns (see `rewrite`).  A form is
made here or by `canon.form_of`, and the `Form` constructor checks it,
as it checks every state: ports, a forest of parents, atomic nodes
without children.  `apply_rule_all` splices and keys forms only;
`rewrite` is the splice plus `canon.KeptState.bigraph`.

`apply_rule_all` rewrites once per orbit of occurrences, under the group
generated by the permutations of twins and the automorphisms that keying
the state found.  Leaves of one control under one parent whose ports sit
on the same links, or on private edges, are twins (`canon.twin_classes`,
computed once per state over its form), and any permutation of twins is
an automorphism of the state; `canonical_key` leaves the maps its search
found on the form (`Form.autos`).  Matches that these automorphisms map
onto each other give isomorphic results: the first is rewritten and
keyed, and the rest only add to its count.  An orbit joined only through
a match that `occurrences` does not report stays split, which costs a
splice and a key, not a count.  Results are still merged by key, and the
result kept for a key is still that of its first match, because that
match is the first of its orbit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .bigraph import (
    Bigraph,
    BigraphError,
    Edge,
    NODE,
    merge_signatures,
    require_solid,
)
from .canon import (
    Form, KeptState, _find, canonical_key, form_of, ground_form, twin_classes,
)


class MatchError(BigraphError):
    pass


@dataclass
class Match:
    """One occurrence in the form `target`, read through the form of
    `redex` (`canon.form_of`): `node_map[v]` is the node index of the
    image of pattern node v, `link_map[c]` the link code of the image of
    pattern link code c (edges first, then outer names), and
    `region_place[r]` the place pattern region r is grafted into, coded as
    `Form.up` codes a parent."""

    redex: Bigraph
    target: Form
    node_map: tuple
    link_map: tuple
    region_place: tuple


class _Plan:
    """The parts of a search that depend on the pattern alone, compiled
    once per pattern by `_plan` over its form `form`, so that a pattern
    node is a node index and a pattern link a link code, as in a state.

    ``controls`` are the pattern's concrete controls in node order and
    ``need`` how many nodes of each it has; ``slot`` gives each node's
    control position.  ``sites`` holds the node that holds each site, by
    site (all sites sit under nodes in a solid pattern), and ``holders``
    the same nodes as a set.  ``open_edges`` holds the codes of the
    pattern's edges that have inner names.  ``neigh`` is each node's
    parent, children and link peers.  ``orders`` maps a vector of target
    candidate counts, one per control, to the node order planned for it."""

    __slots__ = (
        "form", "controls", "need", "slot", "sites", "holders", "open_edges",
        "neigh", "orders",
    )

    def __init__(self, pattern: Bigraph):
        form = self.form = form_of(pattern)
        by_ctrl = form.nodes_by_control()
        self.controls = tuple(by_ctrl)
        self.need = tuple(len(vs) for vs in by_ctrl.values())
        self.slot = [self.controls.index(c) for c in form.controls]
        self.sites = tuple(
            form.ids.index(pattern.site_parent[s][1])
            for s in range(pattern.inner.width)
        )
        self.holders = frozenset(self.sites)
        self.open_edges = frozenset(
            e for e, edge in enumerate(form.edges) if pattern.links[edge].inner
        )
        neigh = [set() for _ in range(form.n)]
        for v, u in enumerate(form.up):
            if u >= 0:
                neigh[v].add(u)
                neigh[u].add(v)
        for ports in form.edge_ports + form.name_ports:
            on_link = {v for v, _ in ports}
            for v in on_link:
                neigh[v] |= on_link
        self.neigh = neigh
        self.orders: dict = {}


def _plan(pattern: Bigraph, what: str = "pattern") -> _Plan:
    """The pattern's plan, compiled on first use.  A pattern that is not
    solid raises `SolidityError` naming it `what`, on every call: nothing
    is memoised for it."""
    plan = pattern._plan
    if plan is None:
        require_solid(pattern, what)
        plan = pattern._plan = _Plan(pattern)
    return plan


def redex_plan(redex: Bigraph) -> _Plan:
    """The plan of a rule's redex, which must be solid and have no inner
    names; a redex that fails either check raises on every call."""
    if redex.inner.names:
        require_solid(redex, "redex")
        raise MatchError("redexes with inner names are not supported")
    return _plan(redex, "redex")


def pattern_plan(pattern: Bigraph) -> _Plan:
    """The plan of a predicate's pattern, which must be solid."""
    return _plan(pattern, "predicate pattern")


class _Embedder:
    """Backtracking search for the embeddings of `pattern` into the form
    `target` under occurrence semantics: controls, parents and ports are
    kept, a site's holder may have spare children (the parameter), an
    outer name may map to any target link, and distinct names map to
    distinct links.  The pattern is read through its plan's form `r`.

    The partial embedding lives on the instance, in lists indexed by node
    index or link code, None where unbound.  Every binding (a node, a
    link and the claim on its image, a region's place) is pushed onto one
    trail, and `_dfs` undoes a candidate by popping the trail back to the
    mark it took on entry.
    """

    def __init__(self, pattern: Bigraph, target: Form):
        self.pattern = pattern
        self.plan = plan = _plan(pattern)
        self.r = r = plan.form
        self.g = target
        self.by_ctrl = target.nodes_by_control()
        self.holders = plan.holders
        self.counts = tuple(len(self.by_ctrl.get(c, ())) for c in plan.controls)
        order = plan.orders.get(self.counts)
        if order is None:
            order = plan.orders[self.counts] = self._order()
        self.order = order
        self.node_map: list = [None] * r.n  # pattern node -> target node
        self.used: list = [None] * target.n  # target node -> pattern node
        self.link_map: list = [None] * (r.ne + len(r.name_ports))  # -> target link
        self.edge_claimed: list = [None] * target.ne  # target -> pattern edge
        self.name_claimed: list = [None] * (target.ne + len(target.name_ports))
        self.region_place: list = [None] * r.width  # region -> target place
        self.trail: list = []  # (table, index) of each binding, in order
        self.matches: list[Match] = []

    def _order(self) -> list[int]:
        """Most constrained first: fewest target candidates, then lowest
        index, among the nodes next to those already ordered.  It reads
        the target only through `self.counts`."""
        plan = self.plan
        neigh = plan.neigh
        n_cands = [self.counts[k] for k in plan.slot]
        order: list[int] = []
        remaining = set(range(self.r.n))
        while remaining:
            pool = (
                {v for v in remaining if any(u in order for u in neigh[v])}
                if order
                else remaining
            ) or remaining
            v = min(pool, key=lambda v: (n_cands[v], v))
            order.append(v)
            remaining.remove(v)
        return order

    def run(self, first_only: bool = False):
        self.first_only = first_only
        self._dfs(0)
        return self.matches

    # -- search ------------------------------------------------------------

    def _candidates(self, v):
        r, g, node_map = self.r, self.g, self.node_map
        c, controls = r.controls[v], g.controls
        u = r.up[v]
        if u >= 0 and node_map[u] is not None:
            return [w for w in g.children[node_map[u]] if controls[w] == c]
        for i, rk in enumerate(r.port_codes[v]):
            # a link is bound once a node on it is
            code = self.link_map[rk]
            if code is not None:
                ports = g.edge_ports[code] if code < g.ne else g.name_ports[code - g.ne]
                return [w for w, j in sorted(ports) if j == i and controls[w] == c]
        return self.by_ctrl.get(c, ())

    def _dfs(self, idx):
        if idx == len(self.order):
            if self._complete_ok():
                self.matches.append(Match(
                    self.pattern, self.g, tuple(self.node_map),
                    tuple(self.link_map), tuple(self.region_place),
                ))
            return
        v = self.order[idx]
        used, trail = self.used, self.trail
        mark = len(trail)
        for w in self._candidates(v):
            if used[w] is None and self._place_ok(v, w) and self._bind(v, w):
                self._dfs(idx + 1)
            while len(trail) > mark:
                table, key = trail.pop()
                table[key] = None
            if self.first_only and self.matches:
                return

    def _place_ok(self, v, w) -> bool:
        r, g, node_map = self.r, self.g, self.node_map
        up = g.up
        u = r.up[v]
        gp = up[w]
        if u >= 0:
            if node_map[u] is not None:
                if gp != node_map[u]:
                    return False
            elif gp < 0 or g.controls[gp] != r.controls[u]:
                return False
        kids = r.children[v]
        for c in kids:
            if node_map[c] is not None and up[node_map[c]] != w:
                return False
        rk, gk = len(kids), len(g.children[w])
        # a site's holder may have spare children; other nodes may not
        return gk >= rk if v in self.holders else gk == rk

    def _set(self, table: list, key, value) -> None:
        table[key] = value
        self.trail.append((table, key))

    def _bind(self, v, w) -> bool:
        """Bind v to w, with the links of v's ports and, for a root, the
        place its region is grafted into.  False at the first conflict;
        whatever was bound by then is on the trail for `_dfs` to undo.

        A complete embedding needs no link check of its own.  Each port of
        a pattern edge is mapped onto the edge's target link when its node
        is bound, and the first binding rejects a target edge with another
        port count (with fewer, when the edge has inner names), so the
        image of the edge's ports is the target edge's ports (a subset of
        them)."""
        r, g, link_map = self.r, self.g, self.link_map
        codes = g.port_codes[w]
        for i, rk in enumerate(r.port_codes[v]):
            tk = codes[i]
            if link_map[rk] is not None:
                if link_map[rk] != tk:
                    return False
                continue
            if rk < r.ne:
                if tk >= g.ne or self.edge_claimed[tk] is not None:
                    return False
                m, n = len(r.edge_ports[rk]), len(g.edge_ports[tk])
                # an edge with inner names may have more ports in the target
                if n < m or (n > m and rk not in self.plan.open_edges):
                    return False
                self._set(self.edge_claimed, tk, rk)
            else:
                if self.name_claimed[tk] is not None:
                    return False
                self._set(self.name_claimed, tk, rk)
            self._set(link_map, rk, tk)
        u = r.up[v]
        if u < 0:
            gp = g.up[w]
            bound = self.region_place[-1 - u]
            if bound is None:
                self._set(self.region_place, -1 - u, gp)
            elif bound != gp:
                return False
        self._set(self.node_map, v, w)
        self._set(self.used, w, v)
        return True

    def _complete_ok(self) -> bool:
        up, used = self.g.up, self.used
        places = self.region_place
        for p in places:
            # the grafting place must lie in the context: not in the image,
            # and not below it (nothing of the redex may sit inside an
            # absorbed parameter subtree)
            while p >= 0:
                if used[p] is not None:
                    return False
                p = up[p]
        return len(set(places)) == len(places)


def occurrences(redex: Bigraph, target: Bigraph) -> list[Match]:
    """All distinct occurrences of the solid redex in the ground target,
    one per class of embeddings modulo redex automorphisms, in
    deterministic order: raw embeddings sorted by image, and the first of
    each cover kept.

    The cover of an embedding is its image nodes, the target links of the
    redex's outer names and the images of its site holders.  Two
    embeddings related by an automorphism cover the same.  Conversely, if
    two cover the same, the bijection of redex nodes between them keeps
    parents and roots (a region's place lies outside the image), maps
    edges to edges and names to names (the link map is injective, and a
    solid redex with no inner names matches each edge's ports exactly)
    and holders to holders, so it is an automorphism."""
    plan = redex_plan(redex)
    raw = _Embedder(redex, ground_form(target)).run()
    raw.sort(key=lambda m: m.node_map)
    ne, holders = plan.form.ne, plan.holders
    seen = set()
    out = []
    for m in raw:
        cover = (
            frozenset(m.node_map),
            frozenset(m.link_map[ne:]),
            frozenset(m.node_map[v] for v in holders),
        )
        if cover not in seen:
            seen.add(cover)
            out.append(m)
    return out


def has_occurrence(pattern: Bigraph, target: Bigraph) -> bool:
    """Existence only: first embedding wins, no dedup (used for predicates)."""
    pattern_plan(pattern)
    return bool(_Embedder(pattern, ground_form(target)).run(first_only=True))


def _short_of_controls(plan: _Plan, target: Form) -> bool:
    """True when the target lacks enough nodes of some concrete control,
    so no embedding can exist."""
    have = target.nodes_by_control()
    return any(
        len(have.get(c, ())) < k for c, k in zip(plan.controls, plan.need)
    )


class Dispatch:
    """The items of a list (rules or predicates) whose patterns can occur
    in a state, found through the state's control index.

    Each pattern is filed under one anchor, the control it requires that
    the fewest patterns of the list share; a pattern with no nodes is
    filed under none and is always a candidate.  `candidates` looks up the
    state's controls and keeps the patterns whose whole control
    requirement the state meets, so an item left out is one whose pattern
    `_short_of_controls` rejects."""

    def __init__(self, items, plans):
        self.items = tuple(items)
        self.plans = tuple(plans)
        share = Counter(c for plan in self.plans for c in plan.controls)
        self.always: list = []  # positions of patterns with no nodes
        self.by_anchor: dict = {}  # control -> positions filed under it
        for i, plan in enumerate(self.plans):
            if plan.controls:
                anchor = min(plan.controls, key=share.__getitem__)
                self.by_anchor.setdefault(anchor, []).append(i)
            else:
                self.always.append(i)

    def candidates(self, g: Form) -> list:
        """The items whose patterns the state g has the controls for, in
        list order."""
        hits = list(self.always)
        for c in g.nodes_by_control():
            for i in self.by_anchor.get(c, ()):
                if not _short_of_controls(self.plans[i], g):
                    hits.append(i)
        hits.sort()
        return [self.items[i] for i in hits]


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------


@dataclass
class RewriteOutcome:
    """One abstract result of applying a rule everywhere it occurs: the
    form of its first result, the occurrence count and the key."""

    form: Form
    count: int
    key: bytes


def rewrite(g: Bigraph, rule, m: Match) -> Bigraph:
    """Replace the matched redex image by the rule's reactum over the same
    parameter (identity instantiation): the splice of the match into g's
    form (`_splice`), built as a validated `Bigraph`.  The rule is a
    `system.WeightedRule`.

    The result is ``lean(C . (R x id_X) . d)`` for the decomposition
    ``g = C . (L x id_X) . d`` that the match induces, with the ids the
    composition formula assigns (`tests/oracles.algebraic_rewrite` builds
    it with the bigraph operations instead, and the tests compare the two
    id for id): context nodes keep their host ids, reactum node ``t``
    becomes ``t + off`` with ``off = 1 + max context node id``, and
    parameter node ``c`` becomes ``c + off + 1 + reactum.max_node_id()``.
    Host edges keep their ids unless the redex consumed them, and reactum
    edge ``e`` becomes ``e + 1 + max id of the unconsumed host edges``.
    Exports write these ids, so they must not change."""
    if m.target is not ground_form(g) or m.redex is not rule.redex:
        raise MatchError("stale match: it does not witness this state and rule")
    return KeptState(_splice(m.target, rule.redex, rule.reactum, m)).bigraph()


def _splice(host: Form, redex: Bigraph, reactum: Bigraph, m: Match) -> Form:
    """The form of the result of rewriting the host at match m, with the
    ids `rewrite` states, built in one pass over the host's form and the
    reactum's.  Ids ascend in the order context, reactum, parameter, so
    the result's node order needs no sort."""
    plan = _plan(redex)
    rf, lf = form_of(reactum), plan.form
    nmap = m.node_map
    images = set(nmap)
    # the parameter: the unmapped children of each site's holder, with
    # everything below them
    site_of: dict = {}
    for s, v in enumerate(plan.sites):
        mapped = {nmap[c] for c in lf.children[v]}
        for c in host.children[nmap[v]]:
            if c not in mapped:
                site_of[c] = s
    below: set = set()
    stack = list(site_of)
    while stack:
        c = stack.pop()
        below.add(c)
        stack.extend(host.children[c])
    moved = images | below
    ctx = [i for i in range(host.n) if i not in moved]
    prm = sorted(below)
    hids, hup = host.ids, host.up
    off = hids[ctx[-1]] + 1 if ctx else 0
    poff = off + (rf.ids[-1] + 1 if rf.n else 0)

    # result indices: context, then reactum, then parameter; a moved
    # node's stays out of range, so the constructor catches a parent left
    # on it
    new = [-1 - host.width] * host.n
    for j, i in enumerate(ctx):
        new[i] = j
    nc = len(ctx)
    for j, i in enumerate(prm, nc + rf.n):
        new[i] = j
    places = [new[p] if p >= 0 else p for p in m.region_place]
    homes = [
        nc + bisect_left(rf.ids, p[1]) if p[0] == NODE else places[p[1]]
        for p in (reactum.site_parent[s] for s in range(reactum.inner.width))
    ]
    up = [hup[i] if hup[i] < 0 else new[hup[i]] for i in ctx]
    up += [nc + u if u >= 0 else places[-1 - u] for u in rf.up]
    up += [homes[site_of[c]] if c in site_of else new[hup[c]] for c in prm]

    # host links (by link code) lose the image ports and renumber the
    # rest; a reactum name's ports join the host link that the redex name
    # is mapped to; idle edges are left out
    consumed = set(m.link_map[:lf.ne])
    eoff = 1 + max(
        host.idle_edge,
        next((host.edges[e].ident for e in reversed(range(host.ne))
              if e not in consumed), -1),
    )
    old = host.edge_ports + host.name_ports
    ports = [[(new[i], pos) for i, pos in eps if i not in images] for eps in old]
    for r, ps in enumerate(rf.name_ports):
        if ps:
            # the interfaces are equal, so the reactum's name r is the
            # redex's, and a solid redex's names have ports, so it is mapped
            code = m.link_map[lf.ne + r]
            ports[code].extend([(nc + t, p) for t, p in ps])
    keep = [e for e in range(host.ne) if ports[e]]
    return Form(
        merge_signatures(host.signature, reactum.signature),
        host.outer,
        [hids[i] for i in ctx] + [t + off for t in rf.ids]
        + [hids[i] + poff for i in prm],
        [host.controls[i] for i in ctx] + rf.controls
        + [host.controls[i] for i in prm],
        [host.ctrl[i] for i in ctx] + rf.ctrl + [host.ctrl[i] for i in prm],
        up,
        [host.edges[e] for e in keep] + [Edge(e.ident + eoff) for e in rf.edges],
        [ports[e] for e in keep]
        + [[(nc + t, pos) for t, pos in eps] for eps in rf.edge_ports],
        ports[host.ne:],
    )


def apply_rule_all(g: Bigraph, rule) -> list[RewriteOutcome]:
    """Rewrite at every occurrence of the rule's redex and partition the
    results by support-equivalence; counts sum to the occurrence count and
    outcomes come in canonical-key order.  The rule is a
    `system.WeightedRule` (its interfaces are checked once, when it is
    made), and the state g is a form or a `Bigraph`.
    Each result is spliced from g's form and keyed as a form; no `Bigraph`
    is built here.

    Occurrences are grouped by orbit before rewriting (`_orbits`): two
    matches of one orbit differ by an automorphism of g, made of twin
    permutations and the maps recorded when g's form was keyed, so their
    results have one key.  Only the first match of each orbit is rewritten
    and keyed; the others add to its count.  The kept result of a key is
    still that of its first match in occurrence order, which is the first
    member of its own orbit."""
    redex, reactum = rule.redex, rule.reactum
    matches = occurrences(redex, g)
    if not matches:
        return []
    host = matches[0].target
    # a single match needs no grouping (the loop below runs once)
    orbit = _orbits(host, matches) if len(matches) > 1 else [0]
    groups: dict = {}  # key -> [form of its first match's result, count]
    orbit_key: dict = {}  # orbit -> key of its first match's result
    for j, m in enumerate(matches):
        key = orbit_key.get(orbit[j])
        if key is None:
            res = _splice(host, redex, reactum, m)
            key = orbit_key[orbit[j]] = canonical_key(res)
            groups.setdefault(key, [res, 0])
        groups[key][1] += 1
    return [
        RewriteOutcome(groups[k][0], groups[k][1], k) for k in sorted(groups)
    ]


def _orbits(host: Form, matches: list) -> list[int]:
    """Per match, the position of the first match of its orbit.

    A match is read as the tuple of its image nodes' twin classes
    (`canon.twin_classes`), in redex node order: two matches with one
    tuple differ by a permutation of twins.  An automorphism of the host
    maps a twin class onto a twin class, so it acts on these tuples, and
    each map in `host.autos` (none if the host was never keyed) joins a
    tuple's orbit with its image's, when that image is a match's."""
    twin = twin_classes(host)
    first: dict = {}  # twin-class tuple -> position of its first match
    orbit = []
    for j, m in enumerate(matches):
        orbit.append(first.setdefault(tuple([twin[w] for w in m.node_map]), j))
    autos = host.autos or ()
    root = {j: j for j in first.values()}  # each rooted at its least member
    for t, j in first.items():
        for g in autos:
            k = first.get(tuple([twin[g[w]] for w in t]))
            if k is not None:
                a, b = _find(root, j), _find(root, k)
                root[max(a, b)] = min(a, b)
    return [_find(root, j) for j in orbit]
