"""Canonical forms for ground bigraphs.

`canonical_key` maps a ground bigraph to a byte string such that two
states get the same key exactly when they are lean-support equivalent
(equal after renaming nodes and closed edges and dropping idle edges).
Region indices and outer names are interface and stay fixed.

The algorithm is iterative partition refinement on
(control, parameters, place degree, link shape) followed by
individualization of ambiguous cells, taking the lexicographically
minimal encoding over the explored orderings.  One kind of cell is split
without branching: twins, whose members are leaves (no children) with
one shared parent, and whose ports, position by position, either sit on
the same link or each sit on a private single-port edge.  Any ordering
of twins is related to any other by an automorphism, so all orderings
encode identically.  This keeps populations of identical sibling
entities (the common shape in counter-style models) linear instead of
factorial.  Leaves with different parents are not twins: reordering
them moves them between parents, so they are branched on like any other
cell.
"""

from __future__ import annotations

from fractions import Fraction

from .bigraph import Bigraph, Edge, NotGroundError, REGION, lean


def _ser_param(p) -> str:
    if isinstance(p, Fraction):
        return f"{p.numerator}/{p.denominator}"
    return str(p)


class _Skeleton:
    """Index-based view of a lean ground bigraph, fixed across branches."""

    def __init__(self, b: Bigraph):
        self.node_ids = sorted(b.nodes)
        idx = {v: i for i, v in enumerate(self.node_ids)}
        edge_keys = sorted(
            (k for k in b.links if isinstance(k, Edge)), key=lambda e: e.ident
        )
        eidx = {k: i for i, k in enumerate(edge_keys)}
        n = len(self.node_ids)
        self.n = n
        self.ne = len(edge_keys)
        self.ctrl = [None] * n
        self.parent = [None] * n  # ('r', i) | int parent index
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.ports: list[list] = [None] * n  # per node: list over port position
        self.edge_ports: list[list] = [[] for _ in range(self.ne)]
        for v in self.node_ids:
            i = idx[v]
            ctrl, params = b.nodes[v]
            self.ctrl[i] = (ctrl, tuple(_ser_param(p) for p in params))
            p = b.parent[v]
            if p[0] == REGION:
                self.parent[i] = ("r", p[1])
            else:
                self.parent[i] = idx[p[1]]
                self.children[idx[p[1]]].append(i)
            pts = []
            for pos in range(b.arity(v)):
                key = b.port_link(v, pos)
                if isinstance(key, Edge):
                    pts.append(("e", eidx[key]))
                    self.edge_ports[eidx[key]].append((i, pos))
                else:
                    pts.append(("y", key))
            self.ports[i] = pts
        for eps in self.edge_ports:
            eps.sort()
        self.width = b.outer.width
        self.outer_names = tuple(sorted(b.outer.names))


def _refine(sk: _Skeleton, ncol: list[int], ecol: list[int]):
    """Stable mutual refinement of node and edge colors."""
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
            par = sk.parent[i]
            par_tok = par if isinstance(par, tuple) else ("n", ncol[par])
            port_tok = tuple(
                t if t[0] == "y" else ("e", new_ecol[t[1]]) for t in sk.ports[i]
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


def _cells(ncol: list[int]) -> list[list[int]]:
    by: dict = {}
    for i, c in enumerate(ncol):
        by.setdefault(c, []).append(i)
    return [by[c] for c in sorted(by)]


def _interchangeable(sk: _Skeleton, cell: list[int]) -> bool:
    """All cell members are leaves under one parent whose ports pairwise
    share links or sit on private single-port edges; then every ordering
    is automorphic."""
    lead = cell[0]
    if any(sk.children[i] or sk.parent[i] != sk.parent[lead] for i in cell):
        return False
    for other in cell[1:]:
        for t0, t1 in zip(sk.ports[lead], sk.ports[other]):
            if t0 == t1:
                continue
            if (
                t0[0] == "e"
                and t1[0] == "e"
                and len(sk.edge_ports[t0[1]]) == 1
                and len(sk.edge_ports[t1[1]]) == 1
            ):
                continue
            return False
    return True


def _encode(sk: _Skeleton, ncol: list[int]) -> tuple:
    order = sorted(range(sk.n), key=lambda i: ncol[i])
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
    rows = []
    for i in order:
        par = sk.parent[i]
        par_tok = par if isinstance(par, tuple) else ("n", ci[par])
        ports = tuple(t if t[0] == "y" else ("e", ei[t[1]]) for t in sk.ports[i])
        rows.append((sk.ctrl[i], par_tok, ports))
    return (sk.width, sk.outer_names, tuple(rows))


def _search(sk: _Skeleton, ncol: list[int], ecol: list[int]) -> tuple:
    ncol, ecol = _refine(sk, ncol, ecol)
    while True:
        target = next((c for c in _cells(ncol) if len(c) > 1), None)
        if target is None:
            return _encode(sk, ncol)
        if _interchangeable(sk, target):
            fresh = sk.n + sk.ne
            ncol = list(ncol)
            for j, i in enumerate(target):
                ncol[i] = fresh + j
            ncol, ecol = _refine(sk, ncol, ecol)
            continue
        best = None
        for i in target:
            branch = list(ncol)
            branch[i] = sk.n + sk.ne
            enc = _search(sk, branch, list(ecol))
            if best is None or enc < best:
                best = enc
        return best


def canonical_key(g: Bigraph) -> bytes:
    """Deterministic key; equal keys iff lean-support equivalent states."""
    if not g.is_ground():
        raise NotGroundError("canonical keys are defined on ground states")
    g = lean(g)
    sk = _Skeleton(g)
    init = {c: r for r, c in enumerate(sorted(set(sk.ctrl)))}
    ncol = [init[c] for c in sk.ctrl]
    ecol = [0] * sk.ne
    return repr(_search(sk, ncol, ecol)).encode()
