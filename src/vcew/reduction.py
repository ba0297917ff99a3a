"""Constructive reduction from list coloring to {0,1} edge-weighting.

Given a normalized list-coloring instance on n vertices, the reduced graph
keeps the instance graph with all its edges destined for weight 0 and makes
induced colors encode the chosen list colors:

* every original vertex gains two suspended length-2 paths (forcing its
  color to at least 2) and t-2 pendant edges (headroom up to t, the largest
  list color);
* for every color k the vertex must avoid, a type-B chain runs from the
  vertex to a shared universal vertex z and pins the chain's first vertex to
  color k, so the original vertex cannot take k;
* z itself carries one triangle (type-A) gadget per color in
  {N+1, ..., 2N}, which pins z's color to exactly N and starts the cascade
  that zeroes every chain edge.  N defaults to n^3 + n^2 - n, large enough
  that z's degree stays at most 3N.

Only vertices carry a stored role.  An edge's role follows from its two
endpoints' roles (see `edge_role`): an edge at a suspended leaf, a suspended
middle vertex, a pendant or a chain vertex is, in that order of precedence,
suspended-outer, suspended-inner, pendant or chain; two original vertices
span a graph edge; z with triangle-u i or triangle-v i spans triangle-z0 i
or triangle-z1 i; and triangle-u i with triangle-v i spans triangle-third i.

A suspended path's vertices are contiguous ids right after its host's
gadget vertices: every gadget adds its paths as blocks of consecutive ids
(`add_suspended_paths`), path j of a block starting at f being f + 2j (the
middle vertex) and f + 2j + 1 (the leaf).  A triangle's u and v are
followed by u's block and then v's, and each chain vertex by its own block.
The records' `paths_u`, `paths_v` and `paths` properties rely on this
layout instead of storing one record per path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterator

from vcew import oracle
from vcew.errors import ContractViolationError, ValidationError
from vcew.graph import (
    Edge,
    Graph,
    GraphBuilder,
    WeightAssignment,
    edge_key,
    induced_colors,
    is_proper,
)
from vcew.io import BLOCK
from vcew.listcolor import ListColoringInstance, is_proper_list_coloring
from vcew.vertex_cover import minimum_vertex_cover

# vertex role tags
ORIGINAL = "original"
SUSPENDED_MID = "suspended-mid"
SUSPENDED_LEAF = "suspended-leaf"
PENDANT = "pendant"
CHAIN_VERTEX = "chain"
UNIVERSAL_Z = "universal-z"
TRIANGLE_U = "triangle-u"
TRIANGLE_V = "triangle-v"

# edge role tags
GRAPH_EDGE = "graph"
PENDANT_EDGE = "pendant"
SUSPENDED_INNER = "suspended-inner"
SUSPENDED_OUTER = "suspended-outer"
CHAIN_EDGE = "chain"
TRIANGLE_Z0 = "triangle-z0"
TRIANGLE_Z1 = "triangle-z1"
TRIANGLE_THIRD = "triangle-third"


@dataclass(frozen=True)
class SuspendedRecord:
    host: int
    mid: int
    leaf: int

    @property
    def inner(self) -> Edge:
        return edge_key(self.host, self.mid)

    @property
    def outer(self) -> Edge:
        return edge_key(self.mid, self.leaf)


def _paths(host: int, first: int, count: int) -> tuple[SuspendedRecord, ...]:
    return tuple(SuspendedRecord(host, mid, mid + 1) for mid in range(first, first + 2 * count, 2))


@dataclass(frozen=True)
class TypeARecord:
    """Triangle gadget at `anchor` disallowing color k there."""

    anchor: int
    k: int
    u: int
    v: int

    @property
    def path_blocks(self) -> tuple[tuple[int, int, int], ...]:
        """(host, first id, count) of u's and of v's suspended paths."""
        count = self.k - 1
        return ((self.u, self.v + 1, count), (self.v, self.v + 1 + 2 * count, count))

    @property
    def paths_u(self) -> tuple[SuspendedRecord, ...]:
        return _paths(*self.path_blocks[0])

    @property
    def paths_v(self) -> tuple[SuspendedRecord, ...]:
        return _paths(*self.path_blocks[1])


@dataclass(frozen=True)
class TypeBRecord:
    """Chain gadget pinning color k away from `owner` via the shared z."""

    owner: int
    k: int
    vertices: tuple[int, ...]  # x_1 ... x_{N-k}

    @property
    def path_blocks(self) -> tuple[tuple[int, int, int], ...]:
        """(host, first id, count) of each chain vertex's suspended paths."""
        return tuple((x, x + 1, self.k + i) for i, x in enumerate(self.vertices))

    @property
    def paths(self) -> tuple[tuple[SuspendedRecord, ...], ...]:
        """Suspended paths per chain vertex."""
        return tuple(_paths(*block) for block in self.path_blocks)


def add_suspended_paths(b: GraphBuilder, host: int, count: int) -> int:
    """Attach `count` suspended paths host-x-y as one block of 2 * count
    fresh ids: path j has middle vertex first + 2j and leaf first + 2j + 1.
    Returns first."""
    first = b.add_vertices(2 * count)
    mids = range(first, first + 2 * count, 2)
    b.add_edges(zip(repeat(host), mids))
    b.add_edges(zip(mids, range(first + 1, first + 2 * count, 2)))
    return first


def add_suspended_path(b: GraphBuilder, v: int) -> SuspendedRecord:
    """Attach a pendant path v-x-y.  Every proper weighting of the host
    graph gives the inner edge vx weight 1: otherwise x and y tie at the
    weight of xy."""
    x = add_suspended_paths(b, v, 1)
    return SuspendedRecord(v, x, x + 1)


def add_type_a(b: GraphBuilder, a: int, k: int) -> TypeARecord:
    """Attach a triangle a-u-v where u and v each carry k-1 suspended paths.

    Standalone, every proper weighting makes w(au) != w(av) (equal values tie
    u with v) and one of u, v lands exactly on color k, so `a` cannot."""
    if k < 2:
        raise ValueError("type-A gadgets need k >= 2")
    u = b.add_vertices(2)
    v = u + 1
    b.add_edges(((a, u), (a, v), (u, v)))
    add_suspended_paths(b, u, k - 1)
    add_suspended_paths(b, v, k - 1)
    return TypeARecord(a, k, u, v)


def add_type_b(b: GraphBuilder, v: int, k: int, z: int, big_n: int) -> TypeBRecord:
    """Attach a chain v-x_1-...-x_{N-k}-z where x_i carries k+i-1 suspended
    paths.  With z's color pinned to N, a cascade from z forces every chain
    edge to 0 and color(x_1) to exactly k."""
    if not 2 <= k < big_n:
        raise ValueError("type-B gadgets need 2 <= k < N")
    vertices: list[int] = []
    prev = v
    for i in range(1, big_n - k + 1):
        x = b.add_vertex()
        b.add_edge(prev, x)
        vertices.append(x)
        add_suspended_paths(b, x, k + i - 1)
        prev = x
    b.add_edge(prev, z)
    return TypeBRecord(v, k, tuple(vertices))


@dataclass(frozen=True)
class AnnotatedReduction:
    graph: Graph
    instance: ListColoringInstance
    t: int
    big_n: int  # the chain scale N
    z: int | None
    vertex_roles: tuple[tuple, ...]  # per vertex: (tag, *args)
    pendants: tuple[tuple[int, ...], ...]  # per original vertex
    chains: tuple[TypeBRecord, ...]

    @property
    def z_degree(self) -> int:
        """z's degree by construction: two edges per triangle gadget and one
        per chain; 0 without z."""
        return 2 * self.big_n + len(self.chains) if self.z is not None else 0

    def disallowed(self, v: int) -> tuple[int, ...]:
        return _disallowed(self.instance, self.t, v)


def _disallowed(inst: ListColoringInstance, t: int, v: int) -> tuple[int, ...]:
    """The colors in 2..t+n-1 missing from v's list: one type-B chain each."""
    return tuple(c for c in range(2, t + inst.graph.vertex_count) if c not in inst.lists[v])


def default_chain_scale(n: int) -> int:
    return n**3 + n**2 - n


def small_chain_scale(inst: ListColoringInstance) -> int:
    """Smallest override satisfying the cascade hypotheses; handy in tests
    where the production scale makes exhaustive checking impossible."""
    n = inst.graph.vertex_count
    t = inst.max_color()
    total_chains = sum(len(_disallowed(inst, t, v)) for v in range(n))
    return max(t + n, total_chains) + 1


def build_reduction(inst: ListColoringInstance, n_override: int | None = None) -> AnnotatedReduction:
    """Assemble the reduced graph with full role annotations.

    Requires what the forcing arguments actually use: every list color is at
    least 2 (colors 0 and 1 are taken by gadget internals), the chain scale
    exceeds every disallowed color, and z's degree stays at most 3N.  The
    default scale assumes a normalized instance; unnormalized ones need an
    override large enough for the degree condition.

    When no color is disallowed anywhere, z and its gadgets are omitted.
    """
    n = inst.graph.vertex_count
    if n == 0:
        return AnnotatedReduction(
            graph=Graph.build(0, []),
            instance=inst,
            t=2,
            big_n=n_override or 1,
            z=None,
            vertex_roles=(),
            pendants=(),
            chains=(),
        )
    for v in range(n):
        if any(c < 2 for c in inst.lists[v]):
            raise ValidationError("list colors below 2 cannot be encoded; normalize the instance")
    t = inst.max_color()
    disallowed = [_disallowed(inst, t, v) for v in range(n)]
    total_chains = sum(len(d) for d in disallowed)
    big_n = default_chain_scale(n) if n_override is None else n_override
    max_disallowed = max((d[-1] for d in disallowed if d), default=0)
    if total_chains:
        if big_n <= max_disallowed:
            raise ValueError(f"N={big_n} must exceed every disallowed color (max {max_disallowed})")
        if 2 * big_n + total_chains > 3 * big_n:
            raise ValueError(
                f"z would have degree {2 * big_n + total_chains} > 3N={3 * big_n}; raise N"
            )

    b = GraphBuilder(n)
    vroles: list[tuple] = [(ORIGINAL, v) for v in range(n)]

    def record(first: int, roles) -> None:
        # roles arrive in id order; an id no gadget claimed keeps ()
        vroles.extend([()] * (first - len(vroles)))
        vroles.extend(roles)

    def record_paths(host: int, first: int, count: int) -> None:
        record(first, ((SUSPENDED_MID, host), (SUSPENDED_LEAF, host)) * count)

    b.add_edges(inst.graph.edges)

    z: int | None = None
    chains: list[TypeBRecord] = []
    if total_chains:
        z = b.add_vertex()
        record(z, ((UNIVERSAL_Z,),))
        for i in range(1, big_n + 1):
            rec = add_type_a(b, z, big_n + i)
            record(rec.u, ((TRIANGLE_U, i), (TRIANGLE_V, i)))
            for block in rec.path_blocks:
                record_paths(*block)
        for v in range(n):
            for k in disallowed[v]:
                rec = add_type_b(b, v, k, z, big_n)
                chains.append(rec)
                for idx, (x, first, count) in enumerate(rec.path_blocks, start=1):
                    record(x, ((CHAIN_VERTEX, v, k, idx),))
                    record_paths(x, first, count)

    pendants: list[tuple[int, ...]] = []
    for v in range(n):
        first = b.add_vertices(t - 2)
        mine = range(first, first + t - 2)
        b.add_edges(zip(repeat(v), mine))
        record(first, ((PENDANT, v),) * (t - 2))
        pendants.append(tuple(mine))

    for v in range(n):
        record_paths(v, add_suspended_paths(b, v, 2), 2)

    red = AnnotatedReduction(
        graph=b.build(),
        instance=inst,
        t=t,
        big_n=big_n,
        z=z,
        vertex_roles=tuple(vroles),
        pendants=tuple(pendants),
        chains=tuple(chains),
    )
    if z is not None and _degree(red.graph, z) != red.z_degree:
        raise ContractViolationError("z degree does not match the construction")
    return red


def _degree(g: Graph, x: int) -> int:
    """x's degree without building the adjacency: in the sorted canonical
    edge order, x's edges are the run (x, v) plus the edges (u, x) before
    that run."""
    start = bisect_left(g.edges, (x,))
    run = bisect_left(g.edges, (x + 1,), start) - start
    return run + sum(1 for _, v in islice(g.edges, start) if v == x)


# Vertex tags that fix the role of every edge at them, in order of precedence.
_EDGE_TAG_AT = (
    (SUSPENDED_LEAF, SUSPENDED_OUTER),
    (SUSPENDED_MID, SUSPENDED_INNER),
    (PENDANT, PENDANT_EDGE),
    (CHAIN_VERTEX, CHAIN_EDGE),
)
_EDGE_RANK = {vertex_tag: rank for rank, (vertex_tag, _) in enumerate(_EDGE_TAG_AT)}


def _rank_table(red: AnnotatedReduction) -> tuple[list[int], list[list[str]]]:
    """Edge tags by table lookup: rank[v] is the index in _EDGE_TAG_AT of
    v's tag, or len(_EDGE_TAG_AT) when no entry names it, and
    by_ranks[rank[u]][rank[v]] is the tag of the edge {u, v}: that of its
    smaller end rank, as in edge_role.  It is "" when both ends are
    unranked (instance, z-triangle and triangle third edges); those edges
    go through edge_role."""
    unranked = len(_EDGE_TAG_AT)
    rank = [_EDGE_RANK.get(role[0], unranked) for role in red.vertex_roles]
    tags = [edge_tag for _, edge_tag in _EDGE_TAG_AT] + [""]
    by_ranks = [[tags[min(a, b)] for b in range(unranked + 1)] for a in range(unranked + 1)]
    return rank, by_ranks


def _edge_tags(red: AnnotatedReduction) -> list[str]:
    """The tag of every edge of the reduced graph, in edge order."""
    rank, by_ranks = _rank_table(red)
    return [by_ranks[rank[u]][rank[v]] or edge_role(red, u, v)[0] for u, v in red.graph.edges]


def edge_role(red: AnnotatedReduction, u: int, v: int) -> tuple:
    """Role of the edge {u, v} of the reduced graph, as (tag, *args), read
    off the roles of its endpoints."""
    ru, rv = red.vertex_roles[u], red.vertex_roles[v]
    tags = (ru[0], rv[0])
    for vertex_tag, edge_tag in _EDGE_TAG_AT:
        if vertex_tag in tags:
            return (edge_tag,)
    # what is left: original-original, z-triangle and triangle-triangle
    if tags[0] == ORIGINAL:
        return (GRAPH_EDGE,)
    if UNIVERSAL_Z in tags:
        corner = rv if tags[0] == UNIVERSAL_Z else ru
        return (TRIANGLE_Z0 if corner[0] == TRIANGLE_U else TRIANGLE_Z1, corner[1])
    return (TRIANGLE_THIRD, ru[1])


def witness_weighting(red: AnnotatedReduction, coloring) -> WeightAssignment:
    """Lift a proper list coloring of the instance to a proper weighting of
    the reduced graph, following the canonical pattern: instance edges 0,
    c(v)-2 pendant ones, suspended inner 1 / outer 0, chain edges 0, and in
    each triangle one z-edge of each weight plus a weight-1 third edge."""
    inst = red.instance
    coloring = list(coloring)
    if not is_proper_list_coloring(inst, coloring):
        raise ContractViolationError("coloring is not a proper list coloring of the instance")
    weight_one = (SUSPENDED_INNER, TRIANGLE_Z1, TRIANGLE_THIRD)  # pendant edges are filled below
    w: WeightAssignment = {e: int(tag in weight_one) for e, tag in zip(red.graph.edges, _edge_tags(red))}
    for v in range(inst.graph.vertex_count):
        ones = coloring[v] - 2
        for p in red.pendants[v][:ones]:
            w[edge_key(v, p)] = 1
    colors = induced_colors(red.graph, w)
    for v in range(inst.graph.vertex_count):
        if colors[v] != coloring[v]:
            raise ContractViolationError(f"witness gives color {colors[v]} at vertex {v}, wanted {coloring[v]}")
    if red.z is not None and colors[red.z] != red.big_n:
        raise ContractViolationError("witness does not pin z to N")
    if not is_proper(red.graph, w):
        raise ContractViolationError("canonical witness is not proper")
    return w


def extract_coloring(red: AnnotatedReduction, w: WeightAssignment) -> list[int]:
    """Read the instance coloring off a proper weighting of the reduction."""
    if not is_proper(red.graph, w):
        raise ContractViolationError("assignment is not proper on the reduced graph")
    colors = induced_colors(red.graph, w)
    return [colors[v] for v in range(red.instance.graph.vertex_count)]


def forced_preweights(red: AnnotatedReduction) -> dict[Edge, int]:
    """Weights justified by the forcing arguments (plus the outer-edge-0
    convention, which never loses completions because every suspended-path
    host in a built reduction has forced color at least 2)."""
    forced = {SUSPENDED_INNER: 1, TRIANGLE_Z1: 1, SUSPENDED_OUTER: 0, CHAIN_EDGE: 0, TRIANGLE_Z0: 0}
    return {e: forced[tag] for e, tag in zip(red.graph.edges, _edge_tags(red)) if tag in forced}


def solve_reduced(red: AnnotatedReduction) -> WeightAssignment | None:
    """Decide the reduced instance by fixing all forced weights and running
    the oracle over the residue: instance edges, pendant edges, and the
    triangle third edges (left free because weight 1 there is a witness
    convention, not a forced value)."""
    return oracle.solve_exhaustive(red.graph, forced_preweights(red))


def verify_fvs_bound(red: AnnotatedReduction) -> bool:
    """An exact vertex cover of the instance graph plus z must hit every
    cycle of the reduced graph."""
    cover, _ = minimum_vertex_cover(red.instance.graph, k_max=red.instance.graph.vertex_count)
    removed = set(cover)
    if red.z is not None:
        removed.add(red.z)
    parent = list(range(red.graph.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in red.graph.edges:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


# Which positional args of a vertex role name another vertex (and therefore
# shift to 1-indexed on the wire); remaining args are colors or indices.
_VERTEX_ARGS = {ORIGINAL: 1, SUSPENDED_MID: 1, SUSPENDED_LEAF: 1, PENDANT: 1, CHAIN_VERTEX: 1}


def _vertex_role_text(role: tuple) -> str:
    tag, *args = role
    shift = _VERTEX_ARGS.get(tag, 0)
    return " ".join([tag, *(str(a + 1) if i < shift else str(a) for i, a in enumerate(args))])


def _edge_role_text(red: AnnotatedReduction, u: int, v: int) -> str:
    return " ".join(map(str, edge_role(red, u, v)))


def role_chunks(red: AnnotatedReduction) -> Iterator[str]:
    """The role sidecar in blocks of io.BLOCK lines: 'v <id> <role> [args]'
    and 'e <u> <v> <role> [args]' lines, 1-indexed, so external tools can
    re-derive the forcing.  An empty reduction yields no block."""
    roles = red.vertex_roles
    ids = [str(v) for v in range(1, len(roles) + 1)]
    role_text = {role: _vertex_role_text(role) for role in set(roles)}
    for start in range(0, len(roles), BLOCK):
        yield "".join([
            f"v {i} {role_text[role]}\n"
            for i, role in zip(ids[start:start + BLOCK], roles[start:start + BLOCK])
        ])
    rank, by_ranks = _rank_table(red)
    edges = red.graph.edges
    for start in range(0, len(edges), BLOCK):
        yield "".join([
            f"e {ids[u]} {ids[v]} {by_ranks[rank[u]][rank[v]] or _edge_role_text(red, u, v)}\n"
            for u, v in edges[start:start + BLOCK]
        ])


def emit_roles(red: AnnotatedReduction) -> str:
    """The role sidecar's text (see role_chunks)."""
    return "".join(role_chunks(red))


def dot_chunks(red: AnnotatedReduction) -> Iterator[str]:
    """Graphviz export with role-based fill colors, for figures, in blocks
    of io.BLOCK node or edge lines."""
    palette = {
        ORIGINAL: "lightblue",
        UNIVERSAL_Z: "gold",
        CHAIN_VERTEX: "lightgreen",
        TRIANGLE_U: "salmon",
        TRIANGLE_V: "salmon",
        PENDANT: "gray80",
        SUSPENDED_MID: "white",
        SUSPENDED_LEAF: "white",
    }
    yield "graph reduction {\n  node [style=filled];\n"
    roles = red.vertex_roles
    for start in range(0, len(roles), BLOCK):
        yield "".join([
            f'  v{vertex} [label="{vertex + 1}", fillcolor={palette.get(role[0], "white")}];\n'
            for vertex, role in enumerate(roles[start:start + BLOCK], start)
        ])
    edges = red.graph.edges
    for start in range(0, len(edges), BLOCK):
        yield "".join([f"  v{u} -- v{v};\n" for u, v in edges[start:start + BLOCK]])
    yield "}\n"


def to_dot(red: AnnotatedReduction) -> str:
    """The Graphviz export's text (see dot_chunks)."""
    return "".join(dot_chunks(red))
