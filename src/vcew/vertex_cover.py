"""Vertex-cover layer: matching-based and exact covers, twin classes, the
base-problem kernel that `vcew kernelize` writes, and `lift`, which extends
a witness of a reduced instance back to the input graph.

For cover size k, every yes-instance admits a proper weighting whose colors
stay at or below 8k^2 + 8k.  That bound caps the number of weight-1 edges
the budgeted search has to consider (k(8k^2+8k)) and the twin-class size the
base kernel keeps (2k(8k^2+8k)+1 members per class, counted with the
matching endpoint set of size at most 2k).  `vcew solve` decides both
problem variants through `vcew.preweight`, on its `prewt` route; the base
problem is the all-ones variant with no pre-weighted edge.

The exact cover comes from a bounded search tree: branch on the first
uncovered edge (u, v) in canonical edge order, u before v.  Every cover
contains u or v, so a subtree holds a cover within its budget exactly when
branching on it succeeds.  A greedy maximal matching on the uncovered edges
is a lower bound (each matching edge needs its own cover vertex), so a
subtree whose matching exceeds its budget holds no cover within budget and
is cut without being walked.  A matching that fills the budget exactly also
cuts when one of its edges has uncovered edges to unmatched vertices at both
ends: two distinct such vertices close an augmenting path, one closes a
triangle, and either way the cover needs one vertex more.  Only failing
subtrees are cut, so the search returns the same cover as the plain
branching, in far fewer nodes (Niedermeier, "Invitation to Fixed-Parameter
Algorithms", 2006; Akiba and Iwata, "Branch-and-reduce exponential/FPT
algorithms in practice: A case study of vertex cover", TCS 2016).  The
search takes O(n + k) memory, and each graph keeps the result of every
budget searched on it, so a repeat query does not search again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from vcew.errors import CapacityError, ContractViolationError
from vcew.graph import (
    Edge,
    Graph,
    WeightAssignment,
    is_proper,
)


def color_budget(k: int) -> int:
    """Color ceiling 8k^2 + 8k for cover size k."""
    return 8 * k * k + 8 * k


def class_cap(k_matching: int) -> int:
    """Per-class member cap 2k(8k^2+8k) + 1 used by the reduction rule."""
    return 2 * k_matching * color_budget(k_matching) + 1


def edge_budget(k: int) -> int:
    """Weight-1 edge budget k(8k^2+8k) for the prewt pipeline's search
    (vcew.preweight) of a graph with a vertex cover of size k."""
    return k * color_budget(k)


def maximal_matching_cover(g: Graph) -> tuple[int, ...]:
    """Endpoints of a greedy maximal matching: a cover within factor 2."""
    used = [False] * g.vertex_count
    cover: list[int] = []
    for u, v in g.edges:
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            cover.extend((u, v))
    return tuple(sorted(cover))


def exact_vertex_cover(g: Graph, k: int) -> frozenset[int] | None:
    """A cover of size at most k via branch-on-an-edge, or None.

    Depth first, on the first uncovered edge (u, v) in canonical order,
    taking u before v; the cover returned is the first this order reaches.
    A node is cut when a greedy maximal matching on its uncovered edges
    proves that they need more vertices than its budget: when the matching
    has more edges than the budget, or when it has exactly as many and one
    of its edges (a, b) has uncovered edges a-x and b-y to free vertices x
    and y, neither taken nor matched.  If x != y, x-a=b-y is an augmenting
    path and a matching one edge larger exists; if x == y, {x, a, b} is a
    triangle disjoint from the other matching edges and takes two cover
    vertices.  Only failing subtrees are cut, so the cuts never change
    which cover is found first, and the search returns the cover the plain
    recursive branching returns.

    Both children cover every edge up to their parent's branching edge, so
    a node scans the canonical edge list at most twice, from just past that
    edge: O(m) time per node.  The state is one flag per vertex, the taken
    vertices, the matching and at most k + 1 pending nodes, O(n + k) memory
    whatever the vertex ids.  The pending nodes are a last-in first-out
    list, so a large k costs no recursion depth.

    The result is a function of (g, k) alone and g is immutable, so each
    budget's result is kept on the graph object, as `Graph.adjacency` is,
    and a repeat call returns it without searching: one entry per budget
    searched, and nothing outlives the graph.  The prewt route asks for the
    same budget up to three times per command; once the route passes its
    cover along (ROADMAP item 1b), these kept results go.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    # set on the instance, bypassing the frozen dataclass, as cached_property does
    results = vars(g).setdefault("_exact_covers", {})
    if k not in results:
        results[k] = _search(g, k)
    return results[k]


_TAKEN, _MATCHED, _FREE_END = 1, 2, 3  # a vertex's mark in the search; 0 is free


def _search(g: Graph, k: int) -> frozenset[int] | None:
    """The search of exact_vertex_cover, run once per (graph, budget)."""
    edges = g.edges
    blocked = bytearray(g.vertex_count)  # _TAKEN, or _MATCHED in this node's scan
    path: list[int] = []  # taken vertices, outermost branch first
    # (vertices kept from path, vertex to take, first edge that may be
    # uncovered, budget left)
    pending = [(0, -1, 0, k)]
    while pending:
        depth, pick, start, budget = pending.pop()
        for v in path[depth:]:
            blocked[v] = 0
        del path[depth:]
        if pick >= 0:
            blocked[pick] = _TAKEN
            path.append(pick)
        scan = enumerate(islice(edges, start, None), start)
        for first, (u, v) in scan:
            if not blocked[u] and not blocked[v]:
                break
        else:
            return frozenset(path)
        if not budget:
            continue
        # grow a greedy matching from (u, v) over the later uncovered edges
        matched = [u, v]
        blocked[u] = blocked[v] = _MATCHED
        room = budget - 1  # matching edges past (u, v) within budget
        for _, (a, b) in scan:
            if not blocked[a] and not blocked[b]:
                if not room:
                    break
                room -= 1
                blocked[a] = blocked[b] = _MATCHED
                matched += (a, b)
        else:
            if room or not _needs_one_more(edges, first + 1, blocked, matched):
                # u's child is pushed last, so it is searched first; either
                # child covers the edges up to and including (u, v)
                pending.append((len(path), v, first + 1, budget - 1))
                pending.append((len(path), u, first + 1, budget - 1))
        for x in matched:
            blocked[x] = 0
    return None


def _needs_one_more(edges: tuple[Edge, ...], start: int, blocked: bytearray, matched: list[int]) -> bool:
    """Whether some matching edge (a, b) has uncovered edges to free
    vertices at both ends, so that covering the uncovered edges takes more
    than one vertex per matching edge.

    The matching is maximal and no edge before `start` has a free end, so
    each uncovered edge from `start` on with a free end has its other end
    matched; that end is marked _FREE_END.
    """
    for a, b in islice(edges, start, None):
        if not blocked[b]:
            if blocked[a] == _MATCHED:
                blocked[a] = _FREE_END
        elif not blocked[a] and blocked[b] == _MATCHED:
            blocked[b] = _FREE_END
    return any(blocked[a] == blocked[b] == _FREE_END for a, b in zip(matched[::2], matched[1::2]))


def cover_within(g: Graph, k: int) -> frozenset[int]:
    """A cover of size at most k; a k below the cover number is a ValueError."""
    cover = exact_vertex_cover(g, k)
    if cover is None:
        raise ValueError(f"graph has no vertex cover of size <= {k}")
    return cover


def minimum_vertex_cover(g: Graph, k_max: int = 12) -> tuple[frozenset[int], int]:
    """Smallest cover by iterative deepening up to k_max.

    A graph whose cover number exceeds k_max is refused with CapacityError:
    the deepening stops there, the instance itself is well formed.
    """
    for k in range(k_max + 1):
        cover = exact_vertex_cover(g, k)
        if cover is not None:
            return cover, len(cover)
    raise CapacityError(f"no vertex cover of size <= k_max={k_max}; larger covers are not searched")


@dataclass(frozen=True)
class RefinedClass:
    """Twin class refined by the pre-weighted edge pattern: members share
    the open neighborhood s1 and the pre-weighted neighbor subset s2."""

    s1: frozenset[int]
    s2: frozenset[int]
    members: tuple[int, ...]


def refine_classes(g: Graph, e1: Iterable[Edge], cover: Iterable[int]) -> list[RefinedClass]:
    """Twin classes of the vertices outside the cover, sorted by (s1, s2),
    members ascending.  With no pre-weighted edges s2 is always empty and the
    classes are the plain neighborhood twin classes.

    e1 holds edges of g.  Vertices are grouped by their sorted neighbour
    tuple and their sorted tuple of pre-weighted neighbours; sorting on
    those tuples is sorting on (sorted(s1), sorted(s2)), and each class
    builds its two sets once."""
    weighted: dict[int, set[int]] = {}  # pre-weighted neighbours
    for u, v in e1:
        weighted.setdefault(u, set()).add(v)
        weighted.setdefault(v, set()).add(u)
    in_cover = set(cover)
    adjacency = g.adjacency
    grouped: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
    for v in range(g.vertex_count):
        if v in in_cover:
            continue
        s2 = weighted.get(v)
        grouped.setdefault((adjacency[v], tuple(sorted(s2)) if s2 else ()), []).append(v)
    return [
        RefinedClass(frozenset(s1), frozenset(s2), tuple(members))
        for (s1, s2), members in sorted(grouped.items())
    ]


@dataclass(frozen=True)
class Kernel:
    """Reduced instance with the bookkeeping that `vcew kernelize` reports;
    `kept` maps kernel ids to input ids for the `.map` sidecar
    (export_kernel_mapping)."""

    graph: Graph  # H, on dense new ids
    kept: tuple[int, ...]  # H id -> original id
    cover: tuple[int, ...]  # matching endpoint set S, original ids
    k_matching: int  # matching size; |S| <= 2 * k_matching
    cap: int  # class size cap applied
    class_sizes_before: tuple[int, ...]
    class_sizes_after: tuple[int, ...]
    removed: tuple[int, ...]  # original ids deleted by the reduction rule


def kernelize(g: Graph) -> Kernel:
    """Truncate every neighborhood twin class of the independent set to the
    cap; the decision is preserved and removed vertices lift back with all
    incident weights 0."""
    cover = maximal_matching_cover(g)
    k_matching = len(cover) // 2
    cap = class_cap(k_matching)
    classes = refine_classes(g, (), cover)
    removed = {v for cls in classes for v in cls.members[cap:]}  # members are ascending: keep smallest ids
    kept = [v for v in range(g.vertex_count) if v not in removed]
    relabel = {old: new for new, old in enumerate(kept)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in g.edges
        if u not in removed and v not in removed
    ]
    kernel_graph = Graph.build(len(kept), edges)
    sizes_before = tuple(len(cls.members) for cls in classes)
    sizes_after = tuple(min(len(cls.members), cap) for cls in classes)
    kernel = Kernel(
        graph=kernel_graph,
        kept=tuple(kept),
        cover=cover,
        k_matching=k_matching,
        cap=cap,
        class_sizes_before=sizes_before,
        class_sizes_after=sizes_after,
        removed=tuple(sorted(removed)),
    )
    _assert_kernel_bounds(kernel)
    return kernel


def _assert_kernel_bounds(kernel: Kernel) -> None:
    k = kernel.k_matching
    if len(kernel.class_sizes_before) > 4**k:
        raise ContractViolationError("class count exceeds 2^(2k)")
    if any(size > kernel.cap for size in kernel.class_sizes_after):
        raise ContractViolationError("kernel class size exceeds the cap")
    limit = 2 * k + (4**k) * kernel.cap
    if kernel.graph.vertex_count > limit:
        raise ContractViolationError(f"kernel has {kernel.graph.vertex_count} vertices, above the bound {limit}")


def lift(g: Graph, w_reduced: WeightAssignment) -> WeightAssignment:
    """Extend a witness of a reduced instance on g's vertex ids to all of g:
    every edge of g that the reduced witness does not weigh gets 0.  The
    result is re-verified once; a conflict inside the reduced instance
    survives the extension, so this one check covers it too."""
    w: WeightAssignment = {e: 0 for e in g.edges}
    w.update(w_reduced)
    if not is_proper(g, w):
        raise ContractViolationError("lifted assignment failed re-verification")
    return w


def export_kernel_mapping(kernel: Kernel) -> str:
    """Sidecar text mapping kernel ids to original ids, 1-indexed."""
    return "".join(f"{new + 1} {old + 1}\n" for new, old in enumerate(kernel.kept))
