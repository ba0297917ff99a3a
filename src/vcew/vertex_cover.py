"""Vertex-cover pipeline: matching-based cover, twin-class kernelization,
budgeted search on the kernel, and lifting kernel witnesses back.

For cover size k, every yes-instance admits a proper weighting whose colors
stay at or below 8k^2 + 8k.  That bound caps both the twin-class size kept
by the kernel (2k(8k^2+8k)+1 members per class, counted with the matching
endpoint set of size at most 2k) and the number of weight-1 edges the
budgeted search has to consider (k(8k^2+8k)).

The exact cover comes from a bounded search tree: branch on the first
uncovered edge (u, v) in canonical edge order, u before v.  Every cover
contains u or v, so a subtree holds a cover within its budget exactly when
branching on it succeeds.  A greedy maximal matching on the uncovered edges
is a lower bound (each matching edge needs its own cover vertex), so a
subtree whose matching exceeds its budget holds no cover within budget and
is cut without being walked.  Only failing subtrees are cut, so the search
returns the same cover as the plain branching, in far fewer nodes
(Niedermeier, "Invitation to Fixed-Parameter Algorithms", 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from vcew import oracle
from vcew.errors import CapacityError, ContractViolationError
from vcew.graph import (
    Edge,
    Graph,
    WeightAssignment,
    edge_key,
    is_proper,
)


def color_budget(k: int) -> int:
    """Color ceiling 8k^2 + 8k for cover size k."""
    return 8 * k * k + 8 * k


def class_cap(k_matching: int) -> int:
    """Per-class member cap 2k(8k^2+8k) + 1 used by the reduction rule."""
    return 2 * k_matching * color_budget(k_matching) + 1


def edge_budget(k: int) -> int:
    """Weight-1 edge budget k(8k^2+8k) for the kernel search."""
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
    A node is cut when a greedy maximal matching on its uncovered edges has
    more edges than its budget: every cover of those edges takes one end of
    each matching edge, so such a subtree holds no cover within budget and
    branching on it would only return failure.  The cut therefore never
    changes which cover is found first, and the search returns the cover
    the plain recursive branching returns.

    Both children cover every edge up to their parent's branching edge, so
    a node scans the canonical edge list at most once, from just past that
    edge: O(m) time per node.  The state is one flag per vertex, the taken
    vertices and at most k + 1 pending nodes, O(n + k) memory whatever the
    vertex ids.  The pending nodes are a last-in first-out list, so a
    large k costs no recursion depth.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    edges = g.edges
    blocked = bytearray(g.vertex_count)  # taken, or matched in this node's scan
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
            blocked[pick] = 1
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
        blocked[u] = blocked[v] = 1
        room = budget - 1  # matching edges past (u, v) within budget
        for _, (a, b) in scan:
            if not blocked[a] and not blocked[b]:
                if not room:
                    break
                room -= 1
                blocked[a] = blocked[b] = 1
                matched += (a, b)
        else:
            # u's child is pushed last, so it is searched first; either
            # child covers the edges up to and including (u, v)
            pending.append((len(path), v, first + 1, budget - 1))
            pending.append((len(path), u, first + 1, budget - 1))
        for x in matched:
            blocked[x] = 0
    return None


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
    classes are the plain neighborhood twin classes."""
    e1set = {edge_key(u, v) for u, v in e1}
    in_cover = set(cover)
    grouped: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
    for v in range(g.vertex_count):
        if v in in_cover:
            continue
        s1 = frozenset(g.neighbors(v))
        s2 = frozenset(x for x in s1 if edge_key(v, x) in e1set)
        grouped.setdefault((s1, s2), []).append(v)
    out = [
        RefinedClass(s1, s2, tuple(sorted(members)))
        for (s1, s2), members in grouped.items()
    ]
    out.sort(key=lambda c: (sorted(c.s1), sorted(c.s2)))
    return out


@dataclass(frozen=True)
class Kernel:
    """Reduced instance with the bookkeeping needed to lift solutions back."""

    graph: Graph  # H, on dense new ids
    kept: tuple[int, ...]  # H id -> original id
    cover: tuple[int, ...]  # matching endpoint set S, original ids
    k_matching: int  # matching size; |S| <= 2 * k_matching
    cap: int  # class size cap applied
    class_sizes_before: tuple[int, ...]
    class_sizes_after: tuple[int, ...]
    removed: tuple[int, ...]  # original ids deleted by the reduction rule

    @property
    def identity(self) -> bool:
        return not self.removed


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


def lift(g: Graph, kernel: Kernel, w_kernel: WeightAssignment) -> WeightAssignment:
    """Extend a proper kernel assignment to the original graph: kernel edges
    keep their weights, edges at removed vertices weigh 0."""
    if not is_proper(kernel.graph, w_kernel):
        raise ContractViolationError("kernel assignment is not proper")
    back = {new: old for new, old in enumerate(kernel.kept)}
    w: WeightAssignment = {e: 0 for e in g.edges}
    for (u, v), value in w_kernel.items():
        w[edge_key(back[u], back[v])] = value
    if not is_proper(g, w):
        raise ContractViolationError("lifted assignment failed re-verification")
    return w


def solve_vc(g: Graph, *, stats: dict[str, int] | None = None) -> WeightAssignment | None:
    """Full pipeline: kernelize, search the kernel, lift any witness back.

    k is the kernel's cover number: by the color bound a yes-instance has a
    witness within the budget k(8k^2+8k), which a larger k only widens.
    `stats` gets `k`, `kernel_vertices`, `kernel_edges` and `search_nodes`.
    """
    kernel = kernelize(g)
    _, k = minimum_vertex_cover(kernel.graph)
    if stats is not None:
        stats.update(k=k, kernel_vertices=kernel.graph.vertex_count, kernel_edges=len(kernel.graph.edges))
    w_kernel = oracle.solve_exhaustive(kernel.graph, {}, budget=edge_budget(k), stats=stats)
    if w_kernel is None:
        return None
    return lift(g, kernel, w_kernel)


def export_kernel_mapping(kernel: Kernel) -> str:
    """Sidecar text mapping kernel ids to original ids, 1-indexed."""
    return "".join(f"{new + 1} {old + 1}\n" for new, old in enumerate(kernel.kept))
