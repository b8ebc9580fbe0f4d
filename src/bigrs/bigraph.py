"""Concrete bigraphs: place forest + link hypergraph with inner/outer interfaces.

A bigraph couples two structures over one node set: the *place graph*, a
forest of nodes rooted at numbered regions with numbered sites as holes,
and the *link graph*, a hypergraph whose links connect node ports, inner
names, and outer names.  Values are immutable after construction; every
operation returns a fresh bigraph.

Node identifiers are opaque non-negative integers, unique per bigraph.
Closed links (edges) carry their own integer identifiers.  Region and site
indices and outer/inner names are part of the interface and are never
renamed by any operation here; only node and edge identifiers are
considered anonymous: two ground bigraphs that differ only in those (and
in idle edges) are support-equivalent, which
:func:`bigrs.canon.canonical_key` decides by key equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union


class BigraphError(Exception):
    """Base class for structural errors raised by this package."""


class CompositionError(BigraphError):
    pass


class TensorError(BigraphError):
    pass


class ShapeError(BigraphError):
    pass


class NameError_(BigraphError):
    """Unknown or clashing link name.  (Trailing underscore: builtin clash.)"""


class NotGroundError(BigraphError):
    pass


class SolidityError(BigraphError):
    def __init__(self, msg: str, violations: Sequence[str] = ()):
        super().__init__(msg)
        self.violations = list(violations)


@dataclass(frozen=True)
class ControlDecl:
    """An entity type: fixed arity (port count), atomicity, parameter count.

    Parameterised controls denote a family; a concrete control is the pair
    of the declared name and a tuple of parameter values, and distinct
    valuations are distinct controls for matching purposes.
    """

    name: str
    arity: int
    atomic: bool = False
    param_count: int = 0

    def __post_init__(self):
        if self.arity < 0:
            raise ShapeError(f"control {self.name}: arity must be >= 0")


@dataclass(frozen=True)
class Interface:
    """One face of a bigraph: a width (region or site count) and a name set."""

    width: int
    names: frozenset[str] = frozenset()

    def __str__(self):
        names = ",".join(sorted(self.names))
        return f"<{self.width},{{{names}}}>"


@dataclass(frozen=True)
class Edge:
    """Identifier of a closed link."""

    ident: int

    def __repr__(self):
        return f"e{self.ident}"


# A link is keyed by an outer name (str) or an Edge; a place is a node or
# a region.  Ports are (node id, port index) pairs.
LinkKey = Union[str, Edge]
NODE = "node"
REGION = "region"
Place = tuple  # (NODE, id) | (REGION, index)


@dataclass(frozen=True)
class Link:
    """Endpoints of one link: node ports and inner names."""

    ports: frozenset = frozenset()
    inner: frozenset = frozenset()

    def is_idle(self) -> bool:
        return not self.ports and not self.inner


def norm_number(x):
    """A number in canonical form: an exact rational, collapsed to int when
    integral, so that equal values serialize equally."""
    if isinstance(x, float):
        x = Fraction(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def number_text(x) -> str:
    """A number as it appears in canonical keys and rule-instance names:
    ``p/q`` for a Fraction, ``str`` otherwise."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _norm_params(params: tuple) -> tuple:
    """Numeric node parameters, each by `norm_number`."""
    if all(type(p) is int for p in params):
        return params
    return tuple(map(norm_number, params))


class Bigraph:
    """A concrete bigraph over a signature.

    Parameters mirror the stored fields:

    * ``signature`` -- mapping control name -> :class:`ControlDecl`, kept
      as a read-only view; one given as such a view is shared, not copied
    * ``nodes`` -- mapping node id -> (control name, parameter tuple)
    * ``parent`` -- mapping node id -> place (its parent node or region)
    * ``site_parent`` -- mapping site index -> place
    * ``links`` -- mapping link key (outer name or :class:`Edge`) -> :class:`Link`;
      every outer name of the bigraph must be present as a key
    * ``inner`` / ``outer`` -- the two interfaces

    The constructor validates the forest shape, port/arity bookkeeping and
    interface consistency, so ill-formed values cannot be produced by the
    public operations.
    """

    __slots__ = (
        "signature",
        "nodes",
        "parent",
        "site_parent",
        "links",
        "inner",
        "outer",
        "_children",
        "_form",
        "_plan",
    )

    def __init__(
        self,
        signature: Mapping[str, ControlDecl],
        nodes: Mapping[int, tuple],
        parent: Mapping[int, Place],
        site_parent: Mapping[int, Place],
        links: Mapping[LinkKey, Link],
        inner: Interface,
        outer: Interface,
    ):
        self.signature = (
            signature if type(signature) is MappingProxyType
            else MappingProxyType(dict(signature))
        )
        norm: dict = {}  # each distinct (control, params) normalised once
        self.nodes = {}
        for v, node in nodes.items():
            if node not in norm:
                c, ps = node
                params = _norm_params(ps)
                norm[node] = node if params is ps else (c, params)
            self.nodes[v] = norm[node]
        self.parent = dict(parent)
        self.site_parent = dict(site_parent)
        self.links = dict(links)
        self.inner = inner
        self.outer = outer
        self._children: Optional[dict] = None
        self._form = None  # canon's flat form, memoised
        self._plan = None  # matching's search plan, memoised
        self._validate()

    # -- structure queries -------------------------------------------------

    def children(self, place: Place) -> tuple:
        """Child nodes of a place, in ascending node-id order."""
        if self._children is None:
            kids: dict = {}
            for v, p in self.parent.items():
                kids.setdefault(p, []).append(v)
            self._children = {p: tuple(sorted(vs)) for p, vs in kids.items()}
        return self._children.get(place, ())

    def edges(self) -> list[Edge]:
        return sorted(
            (k for k in self.links if isinstance(k, Edge)), key=lambda e: e.ident
        )

    def is_ground(self) -> bool:
        return self.inner.width == 0 and not self.inner.names

    def max_node_id(self) -> int:
        return max(self.nodes, default=-1)

    def max_edge_id(self) -> int:
        return max((k.ident for k in self.links if isinstance(k, Edge)), default=-1)

    def __repr__(self):
        return (
            f"Bigraph({len(self.nodes)} nodes, {len(self.links)} links, "
            f"{self.inner} -> {self.outer})"
        )

    # -- validation --------------------------------------------------------

    def _validate(self):
        if self.inner.width < 0 or self.outer.width < 0:
            raise ShapeError("interface width must be >= 0")
        for v, (ctrl, params) in self.nodes.items():
            decl = self.signature.get(ctrl)
            if decl is None:
                raise ShapeError(f"node {v}: undeclared control {ctrl}")
            if len(params) != decl.param_count:
                raise ShapeError(
                    f"node {v}: control {ctrl} takes {decl.param_count} "
                    f"parameter(s), got {len(params)}"
                )
        if set(self.parent) != set(self.nodes):
            raise ShapeError("parent map must cover exactly the node set")
        if set(self.site_parent) != set(range(self.inner.width)):
            raise ShapeError("sites must be indexed 0..k-1")
        width = self.outer.width
        for places in (self.parent, self.site_parent):
            for p in places.values():
                kind, ident = p
                if kind == REGION:
                    if not 0 <= ident < width:
                        raise ShapeError(f"parent region {ident} out of range")
                elif kind == NODE:
                    if ident not in self.nodes:
                        raise ShapeError(f"parent node {ident} does not exist")
                    if self.signature[self.nodes[ident][0]].atomic:
                        raise ShapeError(
                            f"atomic node {ident} "
                            f"({self.nodes[ident][0]}) has children"
                        )
                else:
                    raise ShapeError(f"bad place {p!r}")
        # forest: walking up from any node must terminate at a region
        # (grounded nodes memoized, so the sweep is linear overall)
        grounded: set = set()
        for v in self.nodes:
            path: set = set()
            p = (NODE, v)
            while p[0] == NODE and p[1] not in grounded:
                if p[1] in path:
                    raise ShapeError(f"place cycle through node {p[1]}")
                path.add(p[1])
                p = self.parent[p[1]]
            grounded.update(path)
        # links: every port on exactly one link, arity respected
        sig = self.signature
        nodes = self.nodes
        n_expected = sum(sig[c].arity for c, _ in nodes.values())
        seen_ports: set = set()
        seen_inner: set = set()
        for key, link in self.links.items():
            for pt in link.ports:
                if pt in seen_ports:
                    raise ShapeError(f"port {pt} lies on two links")
                seen_ports.add(pt)
                v, i = pt
                if v not in nodes or not 0 <= i < sig[nodes[v][0]].arity:
                    raise ShapeError(f"port {pt} does not exist")
            for n in link.inner:
                if n in seen_inner:
                    raise ShapeError(f"inner name {n} lies on two links")
                seen_inner.add(n)
        if len(seen_ports) != n_expected:
            expected = {
                (v, i)
                for v, (c, _) in nodes.items()
                for i in range(sig[c].arity)
            }
            raise ShapeError(f"unlinked ports: {sorted(expected - seen_ports)}")
        if seen_inner != set(self.inner.names):
            raise ShapeError("link inner names do not match the inner interface")
        outer_keys = {k for k in self.links if isinstance(k, str)}
        if outer_keys != set(self.outer.names):
            raise ShapeError("outer-name links do not match the outer interface")


_NO_CONTROLS = MappingProxyType({})  # the empty signature, one shared view


def merge_signatures(a: Mapping, b: Mapping) -> Mapping:
    """The union of two signatures, b's declarations winning: a itself
    when b adds nothing to it, so that the bigraphs of one model share one
    signature."""
    return a if b is a or b.items() <= a.items() else MappingProxyType({**a, **b})


# ---------------------------------------------------------------------------
# elementary bigraphs
# ---------------------------------------------------------------------------


def empty(signature: Mapping[str, ControlDecl] = _NO_CONTROLS) -> Bigraph:
    """The empty bigraph <0,{}> -> <0,{}> (tensor unit)."""
    return Bigraph(signature, {}, {}, {}, {}, Interface(0), Interface(0))


def unit(signature: Mapping[str, ControlDecl] = _NO_CONTROLS) -> Bigraph:
    """One empty region: <0,{}> -> <1,{}> (merge unit, the DSL's ``1``)."""
    return Bigraph(signature, {}, {}, {}, {}, Interface(0), Interface(1))


def hole(signature: Mapping[str, ControlDecl] = _NO_CONTROLS) -> Bigraph:
    """One region containing one site (the DSL's ``id`` in a nesting)."""
    return Bigraph(
        signature, {}, {}, {0: (REGION, 0)}, {}, Interface(1), Interface(1)
    )


def identity(names: Iterable[str], width: int = 0,
             signature: Mapping[str, ControlDecl] = _NO_CONTROLS) -> Bigraph:
    """The identity bigraph id_X (plus optional place identity of ``width``)."""
    names = frozenset(names)
    links = {n: Link(frozenset(), frozenset([n])) for n in names}
    site_parent = {i: (REGION, i) for i in range(width)}
    return Bigraph(
        signature,
        {},
        {},
        site_parent,
        links,
        Interface(width, names),
        Interface(width, names),
    )


def ion(
    signature: Mapping[str, ControlDecl],
    ctrl: str,
    params: tuple = (),
    names: Sequence[str] = (),
    child: Optional[Bigraph] = None,
) -> Bigraph:
    """A single node with its ports on ``names``, optionally nesting ``child``.

    ``names[i]`` is the outer name holding port ``i``; the same name may
    appear on several ports.  With ``child`` given (a width-1 bigraph), the
    DSL form ``K{x}.(...)``, nesting is composition: the node gets one site
    and the child's outer names as inner names, each on the link of the
    same name, and the result is ``compose(node, child)``, so the child's
    region contents sit inside the node and its outer names are shared
    with the ion's.
    """
    decl = signature.get(ctrl)
    if decl is None:
        raise ShapeError(f"undeclared control {ctrl}")
    if len(names) != decl.arity:
        raise ShapeError(
            f"control {ctrl} has arity {decl.arity}, got {len(names)} name(s)"
        )
    if len(params) != decl.param_count:
        raise ShapeError(
            f"control {ctrl} takes {decl.param_count} parameter(s), got {len(params)}"
        )
    if child is not None:
        if decl.atomic:
            raise ShapeError(f"atomic control {ctrl} cannot contain anything")
        if child.outer.width != 1:
            raise ShapeError("nested bigraph must have exactly one region")
    inner = frozenset() if child is None else child.outer.names
    ports: dict = {n: set() for n in inner}
    for i, n in enumerate(names):
        ports.setdefault(n, set()).add((0, i))
    links = {n: Link(frozenset(pts), inner & {n}) for n, pts in ports.items()}
    node = Bigraph(
        signature,
        {0: (ctrl, tuple(params))},
        {0: (REGION, 0)},
        {} if child is None else {0: (NODE, 0)},
        links,
        Interface(0 if child is None else 1, inner),
        Interface(1, frozenset(names) | inner),
    )
    return node if child is None else compose(node, child)


def _shifted_parts(b: Bigraph, node_off: int, edge_off: int) -> tuple:
    """(nodes, parent, site_parent, links) with identifiers offset; used by
    the product/composition operations to take disjoint unions cheaply."""
    if node_off == 0 and edge_off == 0:
        return b.nodes, b.parent, b.site_parent, b.links

    def sp(p):
        return (NODE, p[1] + node_off) if p[0] == NODE else p

    def sk(k):
        return Edge(k.ident + edge_off) if isinstance(k, Edge) else k

    return (
        {v + node_off: c for v, c in b.nodes.items()},
        {v + node_off: sp(p) for v, p in b.parent.items()},
        {s: sp(p) for s, p in b.site_parent.items()},
        {
            sk(k): Link(frozenset((v + node_off, i) for v, i in l.ports), l.inner)
            for k, l in b.links.items()
        },
    )


# ---------------------------------------------------------------------------
# algebraic operations
# ---------------------------------------------------------------------------


def compose(outer_part: Bigraph, inner_part: Bigraph) -> Bigraph:
    """``outer_part . inner_part``: graft the inner part's regions into the
    outer part's sites and fuse the inner part's outer names with the outer
    part's like-named inner names."""
    if inner_part.outer.width != outer_part.inner.width:
        raise CompositionError(
            f"cannot compose: inner face {outer_part.inner} of the outer part "
            f"does not match outer face {inner_part.outer} of the inner part "
            "(width mismatch)"
        )
    if inner_part.outer.names != outer_part.inner.names:
        raise CompositionError(
            f"cannot compose: inner face {outer_part.inner} of the outer part "
            f"does not match outer face {inner_part.outer} of the inner part "
            "(name mismatch)"
        )
    i_nodes, i_parent, i_sites, i_links = _shifted_parts(
        inner_part, outer_part.max_node_id() + 1, outer_part.max_edge_id() + 1
    )

    def translate(p: Place) -> Place:
        # a place of the inner part seen from the composite
        if p[0] == REGION:
            return outer_part.site_parent[p[1]]
        return p

    nodes = dict(outer_part.nodes)
    nodes.update(i_nodes)
    parent = dict(outer_part.parent)
    for v, p in i_parent.items():
        parent[v] = translate(p)
    site_parent = {s: translate(p) for s, p in i_sites.items()}

    # locate, for every inner name of the outer part, the link holding it
    name_home: dict = {}
    for key, link in outer_part.links.items():
        for n in link.inner:
            name_home[n] = key
    links: dict = {}
    extra_ports: dict = {}
    extra_inner: dict = {}
    for key, link in i_links.items():
        if isinstance(key, str):
            # fused upward into the outer part's link holding inner name `key`
            home = name_home[key]
            extra_ports.setdefault(home, set()).update(link.ports)
            extra_inner.setdefault(home, set()).update(link.inner)
        else:
            links[key] = link
    for key, link in outer_part.links.items():
        links[key] = Link(
            link.ports | frozenset(extra_ports.get(key, ())),
            (link.inner - outer_part.inner.names) | frozenset(extra_inner.get(key, ())),
        )
    return Bigraph(
        merge_signatures(outer_part.signature, inner_part.signature),
        nodes,
        parent,
        site_parent,
        links,
        inner_part.inner,
        outer_part.outer,
    )


def _juxtapose(left: Bigraph, right: Bigraph, share_names: bool,
               merge: bool = False) -> Bigraph:
    """``right`` beside ``left``, its identifiers shifted past ``left``'s;
    with ``merge``, both width-1 operands share one region."""
    r_nodes, r_parent, r_sites, r_links = _shifted_parts(
        right, left.max_node_id() + 1, left.max_edge_id() + 1
    )
    r_off = 0 if merge else left.outer.width
    s_off = left.inner.width

    def shift_place(p: Place) -> Place:
        return (REGION, p[1] + r_off) if p[0] == REGION else p

    nodes = dict(left.nodes)
    nodes.update(r_nodes)
    parent = dict(left.parent)
    parent.update({v: shift_place(p) for v, p in r_parent.items()})
    site_parent = dict(left.site_parent)
    site_parent.update({s + s_off: shift_place(p) for s, p in r_sites.items()})
    links = dict(left.links)
    for key, link in r_links.items():
        if isinstance(key, str) and key in links:
            if not share_names:
                raise TensorError(f"operands share the outer name {key!r}")
            old = links[key]
            links[key] = Link(old.ports | link.ports, old.inner | link.inner)
        else:
            links[key] = link
    inner_names = left.inner.names | right.inner.names
    if left.inner.names & right.inner.names:
        raise TensorError(
            f"operands share inner name(s) "
            f"{sorted(left.inner.names & right.inner.names)}"
        )
    return Bigraph(
        merge_signatures(left.signature, right.signature),
        nodes,
        parent,
        site_parent,
        links,
        Interface(left.inner.width + right.inner.width, inner_names),
        Interface(1 if merge else left.outer.width + right.outer.width,
                  left.outer.names | right.outer.names),
    )


def tensor(left: Bigraph, right: Bigraph) -> Bigraph:
    """Tensor product: regions side by side; name sets must be disjoint."""
    return _juxtapose(left, right, share_names=False)


def parallel(left: Bigraph, right: Bigraph) -> Bigraph:
    """Parallel product (the DSL's ``||``): like tensor but equal outer
    names are fused into one link."""
    return _juxtapose(left, right, share_names=True)


def merge_parallel(left: Bigraph, right: Bigraph) -> Bigraph:
    """Merge product (the DSL's ``|``): both width-1 operands into a single
    region, fusing equal outer names."""
    if left.outer.width != 1 or right.outer.width != 1:
        raise ShapeError(
            f"merge product needs width-1 operands, got {left.outer.width} "
            f"and {right.outer.width}"
        )
    return _juxtapose(left, right, share_names=True, merge=True)


def close_name(b: Bigraph, name: str) -> Bigraph:
    """Turn the outer name into a closed edge; the outer face loses the name."""
    if name not in b.outer.names:
        raise NameError_(f"cannot close {name!r}: not an outer name of {b.outer}")
    links = dict(b.links)
    link = links.pop(name)
    links[Edge(b.max_edge_id() + 1)] = link
    return Bigraph(
        b.signature,
        b.nodes,
        b.parent,
        b.site_parent,
        links,
        b.inner,
        Interface(b.outer.width, b.outer.names - {name}),
    )


def lean(b: Bigraph) -> Bigraph:
    """Discard idle closed edges.  Outer names stay: they are interface."""
    idle = [k for k, l in b.links.items() if isinstance(k, Edge) and l.is_idle()]
    if not idle:
        return b
    links = {k: l for k, l in b.links.items() if k not in idle}
    return Bigraph(
        b.signature, b.nodes, b.parent, b.site_parent, links, b.inner, b.outer
    )


# ---------------------------------------------------------------------------
# solidity
# ---------------------------------------------------------------------------

SOLID_CLAUSES = (
    "every region contains at least one node",
    "every outer name is connected to at least one endpoint",
    "no two sites or inner names are siblings",
    "no site has a region as parent",
    "no outer name is linked to an inner name",
)


def solidity_violations(b: Bigraph) -> list[str]:
    """Clause-by-clause check; empty list means solid."""
    out = []
    for r in range(b.outer.width):
        if not b.children((REGION, r)):
            out.append(SOLID_CLAUSES[0] + f" (region {r} has none)")
    for n in sorted(b.outer.names):
        if b.links[n].is_idle():
            out.append(SOLID_CLAUSES[1] + f" ({n!r} is idle)")
    parents = [p for _, p in sorted(b.site_parent.items())]
    if len(parents) != len(set(parents)):
        out.append(SOLID_CLAUSES[2] + " (two sites share a parent)")
    for key, link in b.links.items():
        if len(link.inner) > 1:
            out.append(SOLID_CLAUSES[2] + " (two inner names share a link)")
            break
    for s, p in sorted(b.site_parent.items()):
        if p[0] == REGION:
            out.append(SOLID_CLAUSES[3] + f" (site {s})")
    for n in sorted(b.outer.names):
        if b.links[n].inner:
            out.append(SOLID_CLAUSES[4] + f" ({n!r})")
    return out


def is_solid(b: Bigraph) -> bool:
    return not solidity_violations(b)


def require_solid(b: Bigraph, what: str = "bigraph") -> None:
    violations = solidity_violations(b)
    if violations:
        raise SolidityError(
            f"{what} is not solid: " + "; ".join(violations), violations
        )
