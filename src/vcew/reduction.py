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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class TypeARecord:
    """Triangle gadget at `anchor` disallowing color k there."""

    anchor: int
    k: int
    u: int
    v: int
    paths_u: tuple[SuspendedRecord, ...]
    paths_v: tuple[SuspendedRecord, ...]


@dataclass(frozen=True)
class TypeBRecord:
    """Chain gadget pinning color k away from `owner` via the shared z."""

    owner: int
    k: int
    vertices: tuple[int, ...]  # x_1 ... x_{N-k}
    paths: tuple[tuple[SuspendedRecord, ...], ...]  # per chain vertex


def add_suspended_path(b: GraphBuilder, v: int) -> SuspendedRecord:
    """Attach a pendant path v-x-y.  Every proper weighting of the host
    graph gives the inner edge vx weight 1: otherwise x and y tie at the
    weight of xy."""
    x = b.add_vertex()
    y = b.add_vertex()
    b.add_edge(v, x)
    b.add_edge(x, y)
    return SuspendedRecord(v, x, y)


def add_type_a(b: GraphBuilder, a: int, k: int) -> TypeARecord:
    """Attach a triangle a-u-v where u and v each carry k-1 suspended paths.

    Standalone, every proper weighting makes w(au) != w(av) (equal values tie
    u with v) and one of u, v lands exactly on color k, so `a` cannot."""
    if k < 2:
        raise ValueError("type-A gadgets need k >= 2")
    u = b.add_vertex()
    v = b.add_vertex()
    b.add_edge(a, u)
    b.add_edge(a, v)
    b.add_edge(u, v)
    paths_u = tuple(add_suspended_path(b, u) for _ in range(k - 1))
    paths_v = tuple(add_suspended_path(b, v) for _ in range(k - 1))
    return TypeARecord(a, k, u, v, paths_u, paths_v)


def add_type_b(b: GraphBuilder, v: int, k: int, z: int, big_n: int) -> TypeBRecord:
    """Attach a chain v-x_1-...-x_{N-k}-z where x_i carries k+i-1 suspended
    paths.  With z's color pinned to N, a cascade from z forces every chain
    edge to 0 and color(x_1) to exactly k."""
    if not 2 <= k < big_n:
        raise ValueError("type-B gadgets need 2 <= k < N")
    vertices: list[int] = []
    paths: list[tuple[SuspendedRecord, ...]] = []
    prev = v
    for i in range(1, big_n - k + 1):
        x = b.add_vertex()
        b.add_edge(prev, x)
        vertices.append(x)
        paths.append(tuple(add_suspended_path(b, x) for _ in range(k + i - 1)))
        prev = x
    b.add_edge(prev, z)
    return TypeBRecord(v, k, tuple(vertices), tuple(paths))


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

    def disallowed(self, v: int) -> tuple[int, ...]:
        allowed = set(self.instance.lists[v]) | {1}
        span = self.t + self.instance.graph.vertex_count - 1
        return tuple(c for c in range(2, span + 1) if c not in allowed)


def default_chain_scale(n: int) -> int:
    return n**3 + n**2 - n


def small_chain_scale(inst: ListColoringInstance) -> int:
    """Smallest override satisfying the cascade hypotheses; handy in tests
    where the production scale makes exhaustive checking impossible."""
    n = inst.graph.vertex_count
    t = inst.max_color()
    total_chains = sum(
        1
        for v in range(n)
        for c in range(2, t + n)
        if c not in inst.lists[v]
    )
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
    disallowed = [
        tuple(c for c in range(2, t + n) if c not in inst.lists[v]) for v in range(n)
    ]
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

    def set_vrole(vertex: int, tag: tuple) -> None:
        while len(vroles) <= vertex:
            vroles.append(())
        vroles[vertex] = tag

    def record_suspended(rec: SuspendedRecord) -> None:
        set_vrole(rec.mid, (SUSPENDED_MID, rec.host))
        set_vrole(rec.leaf, (SUSPENDED_LEAF, rec.host))

    for e in inst.graph.edges:
        b.add_edge(*e)

    z: int | None = None
    chains: list[TypeBRecord] = []
    if total_chains:
        z = b.add_vertex()
        set_vrole(z, (UNIVERSAL_Z,))
        for i in range(1, big_n + 1):
            rec = add_type_a(b, z, big_n + i)
            set_vrole(rec.u, (TRIANGLE_U, i))
            set_vrole(rec.v, (TRIANGLE_V, i))
            for p in rec.paths_u + rec.paths_v:
                record_suspended(p)
        for v in range(n):
            for k in disallowed[v]:
                rec = add_type_b(b, v, k, z, big_n)
                chains.append(rec)
                for idx, x in enumerate(rec.vertices, start=1):
                    set_vrole(x, (CHAIN_VERTEX, v, k, idx))
                for per_vertex in rec.paths:
                    for p in per_vertex:
                        record_suspended(p)

    pendants: list[tuple[int, ...]] = []
    for v in range(n):
        mine = []
        for _ in range(t - 2):
            p = b.add_vertex()
            b.add_edge(v, p)
            set_vrole(p, (PENDANT, v))
            mine.append(p)
        pendants.append(tuple(mine))

    for v in range(n):
        record_suspended(add_suspended_path(b, v))
        record_suspended(add_suspended_path(b, v))

    graph = b.build()
    if z is not None and graph.degree(z) != 2 * big_n + total_chains:
        raise ContractViolationError("z degree does not match the construction")
    return AnnotatedReduction(
        graph=graph,
        instance=inst,
        t=t,
        big_n=big_n,
        z=z,
        vertex_roles=tuple(vroles),
        pendants=tuple(pendants),
        chains=tuple(chains),
    )


# Vertex tags that fix the role of every edge at them, in order of precedence.
_EDGE_TAG_AT = (
    (SUSPENDED_LEAF, SUSPENDED_OUTER),
    (SUSPENDED_MID, SUSPENDED_INNER),
    (PENDANT, PENDANT_EDGE),
    (CHAIN_VERTEX, CHAIN_EDGE),
)


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
    w: WeightAssignment = {e: int(edge_role(red, *e)[0] in weight_one) for e in red.graph.edges}
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
    pre: dict[Edge, int] = {}
    for e in red.graph.edges:
        tag = edge_role(red, *e)[0]
        if tag in forced:
            pre[e] = forced[tag]
    return pre


def solve_reduced(
    red: AnnotatedReduction,
    *,
    cutoff: int = oracle.DEFAULT_CUTOFF,
) -> WeightAssignment | None:
    """Decide the reduced instance by fixing all forced weights and running
    the oracle over the residue: instance edges, pendant edges, and the
    triangle third edges (left free because weight 1 there is a witness
    convention, not a forced value)."""
    return oracle.solve_exhaustive(red.graph, forced_preweights(red), cutoff=cutoff)


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


def emit_roles(red: AnnotatedReduction) -> str:
    """Role sidecar: 'v <id> <role> [args]' and 'e <u> <v> <role> [args]'
    lines, 1-indexed, so external tools can re-derive the forcing."""
    lines = []
    for vertex, role in enumerate(red.vertex_roles):
        tag, *args = role
        shift = _VERTEX_ARGS.get(tag, 0)
        rendered = [str(a + 1) if i < shift else str(a) for i, a in enumerate(args)]
        lines.append(" ".join(["v", str(vertex + 1), tag, *rendered]).rstrip())
    for e in red.graph.edges:
        tag, *args = edge_role(red, *e)
        lines.append(" ".join(["e", str(e[0] + 1), str(e[1] + 1), tag, *map(str, args)]).rstrip())
    return "\n".join(lines) + "\n"


def to_dot(red: AnnotatedReduction) -> str:
    """Graphviz export with role-based fill colors, for figures."""
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
    lines = ["graph reduction {", "  node [style=filled];"]
    for vertex, role in enumerate(red.vertex_roles):
        color = palette.get(role[0], "white")
        lines.append(f'  v{vertex} [label="{vertex + 1}", fillcolor={color}];')
    for u, v in red.graph.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
