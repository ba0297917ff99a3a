"""FPT solve by vertex cover for the base problem and the all-ones
pre-weighting variant.  The base problem is the all-ones variant with no
pre-weighted edge (E1 empty), so `vcew solve` runs both through here.

With every pre-assigned weight equal to 1, each vertex starts from a base
color (its count of pre-weighted incident edges) and yes-instances admit
extensions gaining at most 8k^2 + 8k on top of the base, for cover size k.
Twin classes are refined by the pre-weighted edge pattern and every oversized
class sheds the unweighted edges of its surplus members.  One pass over the
classes is exact: the vertices outside the cover form an independent set, so
stripping one member's edges moves only that member, into a class with no
unweighted edges, and leaves every other class as it was.  The residual
instance is searched with the weight-1 budget k(8k^2+8k).

Mixed pre-weights (any 0 present) are out of scope here and belong to the
treewidth solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from vcew import oracle
from vcew.errors import ContractViolationError, UnsupportedVariantError
from vcew.graph import (
    Edge,
    Graph,
    PartialWeightAssignment,
    WeightAssignment,
    edge_key,
)
from vcew.vertex_cover import color_budget, cover_within, edge_budget, lift, refine_classes


def ones_only(pre: PartialWeightAssignment) -> frozenset[Edge]:
    """The pre-weighted edge set, rejecting any 0 pre-weights."""
    if any(value == 0 for value in pre.values()):
        raise UnsupportedVariantError(
            "pre-weights of 0 are outside the all-ones pipeline; use the treewidth solver"
        )
    return frozenset(pre)


@dataclass(frozen=True)
class PreweightReduction:
    """Edge-deleted instance H* plus the audit log of deletions."""

    graph: Graph  # same vertex ids as the input graph
    e1: frozenset[Edge]
    cover: tuple[int, ...]
    deletions: tuple[tuple[int, tuple[Edge, ...]], ...]  # (vertex, its deleted edges)


def deletion_log_text(red: "PreweightReduction") -> str:
    """Audit log, one line per rule application: 'deleted <u>: <u>-<v> ...'
    with 1-indexed vertex ids."""
    lines = []
    for u, gone in red.deletions:
        rendered = " ".join(f"{a + 1}-{b + 1}" for a, b in gone)
        lines.append(f"deleted {u + 1}: {rendered}")
    return "".join(line + "\n" for line in lines)


def apply_reduction(g: Graph, e1: Iterable[Edge], k: int, cover: Iterable[int] | None = None) -> PreweightReduction:
    """Strip the unweighted edges of the surplus members of every oversized
    refined class (cap k(8k^2+8k) + 1), in one pass.

    The vertices outside the cover form an independent set, so stripping
    member u changes no other non-cover vertex's class: u moves to the class
    (s2, s2), which has no unweighted edges to strip, and cover vertices are
    never classed.  Each class with s1 != s2 therefore loses exactly its
    smallest len(members) - cap ids, in class order, which is what applying
    the rule one member at a time until no class qualifies also deletes.
    """
    e1set = frozenset(edge_key(u, v) for u, v in e1)
    if cover is None:
        cover_t = tuple(sorted(cover_within(g, k)))
    else:
        cover_t = tuple(sorted(cover))
        in_cover = set(cover_t)
        if any(u not in in_cover and v not in in_cover for u, v in g.edges):
            raise ValueError("the given vertex set is not a vertex cover of the graph")
    cap = k * color_budget(k) + 1
    deletions = tuple(
        (u, tuple(edge_key(u, x) for x in sorted(cls.s1 - cls.s2)))
        for cls in refine_classes(g, e1set, cover_t)
        if cls.s1 != cls.s2 and len(cls.members) > cap
        for u in cls.members[: len(cls.members) - cap]
    )
    gone = {e for _, edges in deletions for e in edges}
    h = Graph.build(g.vertex_count, [e for e in g.edges if e not in gone]) if gone else g
    red = PreweightReduction(graph=h, e1=e1set, cover=cover_t, deletions=deletions)
    residual = sum(1 for e in h.edges if e not in e1set)
    limit = k * (k - 1) + (3**k) * (k * color_budget(k) + 1)
    if residual > limit:
        raise ContractViolationError(f"{residual} unweighted edges remain, above the bound {limit}")
    return red


def solve_prewt(
    g: Graph,
    e1: Iterable[Edge],
    k: int,
    *,
    stats: dict[str, int] | None = None,
) -> WeightAssignment | None:
    """Reduce, run the budgeted search over the unweighted edges of H*, and
    lift any witness back by weighting the deleted edges 0; `stats` gets
    `k` and `search_nodes`.  With e1 empty this decides the base problem."""
    e1set = frozenset(edge_key(u, v) for u, v in e1)
    bad = [e for e in e1set if e not in g.edge_index]
    if bad:
        raise ValueError(f"pre-weighted edge {bad[0]} not in the graph")
    red = apply_reduction(g, e1set, k)
    pre = {e: 1 for e in e1set}
    if stats is not None:
        stats["k"] = k
    w_star = oracle.solve_exhaustive(red.graph, pre, budget=edge_budget(k), stats=stats)
    if w_star is None:
        return None
    return lift(g, w_star)
