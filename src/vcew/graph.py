"""Simple undirected graphs, {0,1} edge weightings, and induced vertex colors.

Vertices are dense integers in [0, n); edges are canonical (min, max) pairs.
All types are immutable after construction and the operations here are pure
functions, so everything is safe to share across threads.  A graph stores
only its vertex count and sorted edges; `edge_index` and `adjacency` are
computed once, on first use, from those immutable edges, so two threads
that both compute one get equal values and keeping either is harmless.
`vcew.vertex_cover.exact_vertex_cover` keeps its results on the graph in
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, starmap
from operator import eq, itemgetter
from typing import Iterable

from vcew.errors import ValidationError

Edge = tuple[int, int]

# A weight assignment maps every edge of the graph to 0 or 1; a partial
# (pre-)weighting maps a subset of the edges.  Plain dicts keep them cheap
# to build, compare, and serialize.
WeightAssignment = dict[Edge, int]
PartialWeightAssignment = dict[Edge, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical form of the undirected edge {u, v}."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: no self-loops, no parallel edges."""

    vertex_count: int
    edges: tuple[Edge, ...]

    @staticmethod
    def build(vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if vertex_count < 0:
            raise ValidationError("vertex count must be nonnegative")
        edges = list(edges)  # kept in input order to name the first bad edge
        # an edge given as a canonical tuple is kept, not copied
        canon = [e if u < v and type(e) is tuple else edge_key(u, v) for e in edges for u, v in (e,)]
        canon.sort()
        # in sorted canonical order a self-loop has equal ends, the extreme
        # ends bound every endpoint and a duplicate follows its twin
        if canon and (
            canon[0][0] < 0
            or max(map(itemgetter(1), canon)) >= vertex_count
            or any(starmap(eq, canon))
            or any(map(eq, canon, islice(canon, 1, None)))
        ):
            _raise_first_bad_edge(vertex_count, edges)
        return Graph(vertex_count=vertex_count, edges=tuple(canon))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbours of each vertex.  The canonical edge order lists
        a vertex's smaller neighbours before its larger ones, each in
        ascending order, so no list needs sorting."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Position of each edge in the canonical edge order."""
        return {e: i for i, e in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_index

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)


def _raise_first_bad_edge(vertex_count: int, edges: list[tuple[int, int]]) -> None:
    """Report the first edge, in input order, that is a self-loop, out of
    range or a repeat of an earlier one."""
    seen: set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValidationError(f"edge ({u}, {v}) out of range [0, {vertex_count})")
        e = edge_key(u, v)
        if e in seen:
            raise ValidationError(f"duplicate edge {e}")
        seen.add(e)


class GraphBuilder:
    """Mutable helper for assembling graphs vertex by vertex (gadget construction).

    Edges are recorded unchecked; `build` hands them to `Graph.build`, which
    rejects self-loops, duplicates and out-of-range endpoints."""

    def __init__(self, vertex_count: int = 0):
        self.vertex_count = vertex_count
        self._edges: list[Edge] = []

    def add_vertex(self) -> int:
        return self.add_vertices(1)

    def add_vertices(self, count: int) -> int:
        """Add `count` fresh vertices with consecutive ids; returns the first."""
        first = self.vertex_count
        self.vertex_count += count
        return first

    def add_edge(self, u: int, v: int) -> Edge:
        e = edge_key(u, v)
        self._edges.append(e)
        return e

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        self._edges.extend(edges)

    def build(self) -> Graph:
        return Graph.build(self.vertex_count, self._edges)


def validate_assignment(g: Graph, w: WeightAssignment) -> None:
    """Raise unless w is a total map from E(g) to {0, 1}."""
    if len(w) != len(g.edges):
        missing = [e for e in g.edges if e not in w]
        if missing:
            raise ValidationError(f"assignment missing weight for edge {missing[0]}")
        raise ValidationError("assignment has weights for edges not in the graph")
    for e, value in w.items():
        if e not in g.edge_index:
            raise ValidationError(f"assignment weights unknown edge {e}")
        if value not in (0, 1):
            raise ValidationError(f"weight {value!r} for edge {e} not in {{0, 1}}")


def validate_partial(g: Graph, pre: PartialWeightAssignment) -> None:
    """Raise unless pre maps a subset of E(g) to {0, 1}; the empty map is valid."""
    for e, value in pre.items():
        if e not in g.edge_index:
            raise ValidationError(f"pre-weighted edge {e} not in the graph")
        if value not in (0, 1):
            raise ValidationError(f"pre-weight {value!r} for edge {e} not in {{0, 1}}")


def induced_colors(g: Graph, w: WeightAssignment) -> list[int]:
    """Per-vertex color: the number of incident weight-1 edges."""
    validate_assignment(g, w)
    colors = [0] * g.vertex_count
    for (u, v), value in w.items():
        if value:
            colors[u] += 1
            colors[v] += 1
    return colors


def find_conflicts(g: Graph, w: WeightAssignment) -> list[Edge]:
    """Edges whose two endpoints receive equal colors; empty iff w is proper."""
    colors = induced_colors(g, w)
    return [e for e in g.edges if colors[e[0]] == colors[e[1]]]


def is_proper(g: Graph, w: WeightAssignment) -> bool:
    return not find_conflicts(g, w)


def solution_subgraph(g: Graph, w: WeightAssignment) -> frozenset[Edge]:
    """The weight-1 edge set.  w is proper iff adjacent vertices have
    distinct degrees in this subgraph."""
    return frozenset(e for e, value in w.items() if value)


def from_subgraph(g: Graph, h_edges: Iterable[Edge]) -> WeightAssignment:
    """Inverse of solution_subgraph: weight 1 on h_edges, 0 elsewhere."""
    w = {e: 0 for e in g.edges}
    for e in h_edges:
        e = edge_key(*e)
        if e not in w:
            raise ValidationError(f"edge {e} not in the graph")
        w[e] = 1
    return w


def isolated_edges(g: Graph) -> list[Edge]:
    """Edges whose endpoints both have degree 1.  Any such edge forces equal
    endpoint colors under every total weighting, so the instance is a No."""
    return [e for e in g.edges if g.degree(e[0]) == 1 and g.degree(e[1]) == 1]


def extends(w: WeightAssignment, pre: PartialWeightAssignment) -> bool:
    """True when w agrees with every pre-assigned weight."""
    return all(w.get(e) == value for e, value in pre.items())
