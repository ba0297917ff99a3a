"""FPT pipeline for the restricted pre-weighting variant (all pre-weights 1).

With every pre-assigned weight equal to 1, each vertex starts from a base
color (its count of pre-weighted incident edges) and yes-instances admit
extensions gaining at most 8k^2 + 8k on top of the base, for cover size k.
Twin classes are refined by the pre-weighted edge pattern, oversized classes
shed the unweighted edges of one member at a time, and the residual instance
is searched with the same weight-1 budget as the base pipeline.

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
    is_proper,
)
from vcew.vertex_cover import color_budget, edge_budget, exact_vertex_cover


def ones_only(pre: PartialWeightAssignment) -> frozenset[Edge]:
    """The pre-weighted edge set, rejecting any 0 pre-weights."""
    if any(value == 0 for value in pre.values()):
        raise UnsupportedVariantError(
            "pre-weights of 0 are outside the all-ones pipeline; use the treewidth solver"
        )
    return frozenset(pre)


def base_colors(g: Graph, e1: Iterable[Edge]) -> list[int]:
    """Per-vertex count of incident pre-weighted (weight-1) edges."""
    base = [0] * g.vertex_count
    for u, v in e1:
        e = edge_key(u, v)
        if e not in g.edge_index:
            raise ValueError(f"pre-weighted edge {e} not in the graph")
        base[e[0]] += 1
        base[e[1]] += 1
    return base


@dataclass(frozen=True)
class RefinedClass:
    """Twin class refined by the pre-weighted edge pattern: members share
    the open neighborhood s1 and the pre-weighted neighbor subset s2."""

    s1: frozenset[int]
    s2: frozenset[int]
    members: tuple[int, ...]


def refine_classes(g: Graph, e1: Iterable[Edge], cover: Iterable[int]) -> list[RefinedClass]:
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
class PreweightReduction:
    """Edge-deleted instance H* plus the audit log of deletions."""

    graph: Graph  # same vertex ids as the input graph
    e1: frozenset[Edge]
    cover: tuple[int, ...]
    deletions: tuple[tuple[int, tuple[Edge, ...]], ...]  # (vertex, its deleted edges)

    def deleted_edges(self) -> frozenset[Edge]:
        return frozenset(e for _, edges in self.deletions for e in edges)


def deletion_log_text(red: "PreweightReduction") -> str:
    """Audit log, one line per rule application: 'deleted <u>: <u>-<v> ...'
    with 1-indexed vertex ids."""
    lines = []
    for u, gone in red.deletions:
        rendered = " ".join(f"{a + 1}-{b + 1}" for a, b in gone)
        lines.append(f"deleted {u + 1}: {rendered}")
    return "".join(line + "\n" for line in lines)


def apply_reduction(g: Graph, e1: Iterable[Edge], k: int, cover: Iterable[int] | None = None) -> PreweightReduction:
    """Repeatedly strip the unweighted edges of one member of an oversized
    refined class (cap k(8k^2+8k) + 1) until no class qualifies.

    Classes are recomputed after every deletion since the picked member's
    neighborhood shrinks to its pre-weighted part.  The arbitrary pick is
    made deterministic: smallest member id with an unweighted edge.
    """
    e1set = frozenset(edge_key(u, v) for u, v in e1)
    if cover is None:
        found = exact_vertex_cover(g, k)
        if found is None:
            raise ValueError(f"graph has no vertex cover of size <= {k}")
        cover_t = tuple(sorted(found))
    else:
        cover_t = tuple(sorted(cover))
    cap = k * color_budget(k) + 1
    current = g
    deletions: list[tuple[int, tuple[Edge, ...]]] = []
    while True:
        victim = None
        for cls in refine_classes(current, e1set, cover_t):
            if len(cls.members) <= cap:
                continue
            for u in cls.members:
                unweighted = [e for e in map(lambda x: edge_key(u, x), current.neighbors(u)) if e not in e1set]
                if unweighted:
                    victim = (u, tuple(sorted(unweighted)))
                    break
            if victim is not None:
                break
        if victim is None:
            break
        u, gone = victim
        deletions.append(victim)
        remaining = [e for e in current.edges if e not in set(gone)]
        current = Graph.build(current.vertex_count, remaining)
    red = PreweightReduction(graph=current, e1=e1set, cover=cover_t, deletions=tuple(deletions))
    residual = sum(1 for e in current.edges if e not in e1set)
    limit = k * (k - 1) + (3**k) * (k * color_budget(k) + 1)
    if residual > limit:
        raise ContractViolationError(f"{residual} unweighted edges remain, above the bound {limit}")
    return red


def solve_prewt(
    g: Graph,
    e1: Iterable[Edge],
    k: int,
    *,
    cutoff: int = oracle.DEFAULT_CUTOFF,
) -> WeightAssignment | None:
    """Reduce, run the budgeted search over the unweighted edges of H*, and
    extend any witness back by weighting the deleted edges 0."""
    e1set = frozenset(edge_key(u, v) for u, v in e1)
    bad = [e for e in e1set if e not in g.edge_index]
    if bad:
        raise ValueError(f"pre-weighted edge {bad[0]} not in the graph")
    red = apply_reduction(g, e1set, k)
    pre = {e: 1 for e in e1set}
    w_star = oracle.solve_exhaustive(red.graph, pre, budget=edge_budget(k), cutoff=cutoff)
    if w_star is None:
        return None
    w: WeightAssignment = {e: 0 for e in g.edges}
    w.update(w_star)
    if not is_proper(g, w):
        raise ContractViolationError("extended pre-weighting witness failed re-verification")
    return w
