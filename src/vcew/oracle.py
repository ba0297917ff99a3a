"""Exhaustive-search baseline: ground truth for every other solver.

Enumeration is over the free (not pre-weighted) edges, by ascending count of
weight-1 edges with lexicographic tie-breaking over the canonical edge order,
so witnesses are deterministic.  A search decides first, with a depth-first
walk (weight 0 before weight 1, at most the budget of weight-1 edges) that
stops at the first proper completion; only when there is one do the
popcount passes run to pick the witness, so a no-instance is one walk
instead of one pass per popcount level.  Both proofs are pruned without
changing the witness.  The walk keeps each twin class's colors in id
order: swapping two twins (the same neighbours apart from each other, the
same pre-weights on matching edges) maps proper completions to proper
completions of the same popcount.  The passes start at a popcount floor
that vertex-disjoint cliques prove, so only passes that must fail are
skipped (vcew._search_py, "Twin order" and "Popcount floor").  With
``fewest=False`` the walk's first completion is the witness: the
lexicographically least proper 0/1 vector over the free positions (0
before 1, earlier positions first) that keeps every twin class's colors
ascending by id and has at most the budget of ones.  No popcount pass runs
and no floor is computed, so a yes costs one walk too.  The oracle route
keeps the fewest-ones witness; the prewt route (vcew.preweight), which
only needs some witness within its budget, takes the first completion.
The inner loop has one C source, ``_search.c``, built by
``python setup.py build_ext --inplace`` (or by a plain ``cc -O2 -std=c99
-shared -fPIC``) into a shared library next to this module.  The backend
follows the presence of that library: when it is there, it is loaded
through ctypes (vcew._search_c); otherwise the pure-Python twin
vcew._search_py runs.
Both return the same witnesses and node counts.  The search caps only
the count of weight-1 edges, never a vertex's color: a color-bounded
query is a run of the treewidth DP (vcew.treewidth.exists_with_color_bound).
The oracle only decides; it counts nothing.  The C source holds only
``solve_ones``.  The counting walks ``count_all`` and ``exists_proper`` run
in Python on both backends and have no caller in this package: they stay
only because the benchmark's tracer (perfbench/spans.py) wraps them, and
go when it no longer does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import accumulate
from pathlib import Path

from vcew import _search_py
from vcew.errors import CapacityError
from vcew.graph import (
    Edge,
    Graph,
    PartialWeightAssignment,
    WeightAssignment,
    validate_partial,
)

CUTOFF = 30  # the search ceiling: at most 2^CUTOFF candidates


def _load_kernel():
    """The compiled kernel if its library sits next to this module, else the
    Python one; a library built from another _search.c raises ImportError."""
    for suffix in EXTENSION_SUFFIXES:
        library = Path(__file__).with_name("_search" + suffix)
        if library.exists():
            from vcew import _search_c

            return _search_c.load(library)
    return _search_py


_kernel = _load_kernel()


def backend() -> str:
    """Which search kernel is active: 'compiled' or 'python'."""
    return "python" if _kernel is _search_py else "compiled"


@dataclass(frozen=True)
class SearchInstance:
    """A graph and pre-weighting prepared for the search kernels.

    Free positions index ``free``.  An edge settles (its end colors are
    final) once the last free position at either endpoint is decided.
    ``pairs`` holds the graph's edges ordered by that position, ties in
    canonical order, and ``end[p]`` (p = 0..F) indexes the first edge that
    settles at p or later, so ``pairs[:end[0]]`` settle at the root and
    ``end[F] == len(pairs)``.  ``twins`` and ``tend`` are the twin table
    in the same layout: consecutive twins (a, b), a < b, ordered by the
    position where both have settled, with ``tend[p]`` the first pair
    ordered at p or later; ``lo`` is the popcount floor, or 0 for an
    instance prepared for a search without the popcount passes.
    """

    n: int
    fu: tuple[int, ...]  # free position p joins fu[p] and fv[p]
    fv: tuple[int, ...]
    pairs: tuple[Edge, ...]  # the edges of g in settle order
    end: tuple[int, ...]  # settle group boundaries in pairs, F + 1 of them
    colors: tuple[int, ...]  # start colors from the weight-1 pre-weights
    free: tuple[int, ...]  # free position -> edge index
    twins: tuple[Edge, ...]  # twin pairs in order-check order
    tend: tuple[int, ...]  # twin group boundaries in twins, F + 1 of them
    lo: int  # no proper completion has fewer weight-1 free edges


def _by_position(items, keys, f):
    """`items` stably sorted by key (-1 to F - 1) and the F + 1 group ends:
    ends[p] indexes the first item keyed p or later."""
    sizes = [0] * (f + 1)
    for k in keys:
        sizes[k + 1] += 1
    order = sorted(range(len(items)), key=keys.__getitem__)
    return tuple(map(items.__getitem__, order)), tuple(accumulate(sizes))


def _prepare(g: Graph, pre: PartialWeightAssignment, floor: bool = True) -> SearchInstance:
    """The search instance of g under pre; without `floor`, for a search
    that runs no popcount pass, ``lo`` is 0 and the clique floor is not
    computed."""
    validate_partial(g, pre)
    n = g.vertex_count
    edges = g.edges
    colors = [0] * n
    free: list[int] = []
    fu: list[int] = []
    fv: list[int] = []
    last = [-1] * n  # the last free position at each vertex
    # near[v] has bit x for a free edge vx, bit n + x for a weight-1 one and
    # bit 2n + x for a weight-0 one
    near = [0] * n
    for i, e in enumerate(edges):
        u, v = e
        value = pre.get(e)
        if value is None:
            last[u] = last[v] = len(free)
            free.append(i)
            fu.append(u)
            fv.append(v)
            shift = 0
        elif value:
            colors[u] += 1
            colors[v] += 1
            shift = n
        else:
            shift = 2 * n
        near[u] |= 1 << v + shift
        near[v] |= 1 << u + shift
    f = len(free)
    pairs, end = _by_position(edges, [max(last[u], last[v]) for u, v in edges], f)
    touched = sorted({*fu, *fv})  # the vertices with a free edge
    twins, tend = _by_position(*_twin_pairs(near, touched, last), f)
    return SearchInstance(
        n, tuple(fu), tuple(fv), pairs, end,
        tuple(colors), tuple(free), twins, tend,
        _floor(g.adjacency, colors, near, touched, last) if floor else 0,
    )


def _twin_pairs(near, touched, last):
    """Consecutive twins (a, b), a < b, among the vertices with a free edge
    (`touched`, ascending), and the position where both have settled.  False
    twins have equal `near` masks; true twins have equal masks once each
    counts itself as joined by a free edge, so their own edge must be free
    too."""
    latest: dict[int, int] = {}  # a mask -> the last vertex with it so far
    twins: list[Edge] = []
    keys: list[int] = []
    for v in touched:
        mask = near[v]
        for key in (mask, mask | 1 << v):
            a = latest.get(key)
            if a is not None:
                twins.append((a, v))
                keys.append(max(last[a], last[v]))
            latest[key] = v
    return twins, keys


def _floor(adjacency, colors: list[int], near: list[int], touched: list[int], last: list[int]) -> int:
    """A floor on the weight-1 free edges of any proper completion.

    Greedy vertex-disjoint cliques of vertices with a free edge, each grown
    from the highest-degree vertex left by its highest-degree neighbours: a
    clique's colors are distinct and at least its start colors, and each
    weight-1 free edge adds at most 2 to their sum."""
    n = len(colors)
    n2 = 2 * n
    degree = list(map(len, adjacency)).__getitem__
    used = bytearray(n)
    excess = 0
    for v in sorted(touched, key=degree, reverse=True):  # ties in id order
        if used[v]:
            continue
        used[v] = 1
        clique = [colors[v]]  # the start colors of its members
        mask = 1 << v
        for u in sorted(adjacency[v], key=degree, reverse=True):
            if not used[u] and last[u] >= 0:
                adjacent = near[u]
                if not mask & ~(adjacent | adjacent >> n | adjacent >> n2):
                    clique.append(colors[u])
                    used[u] = 1
                    mask |= 1 << u
        if len(clique) > 1:
            clique.sort()
            least = -1  # the least distinct colors at or above the start colors, ascending
            for c in clique:
                least = c if c > least else least + 1
                excess += least - c
    return (excess + 1) // 2


def _check_capacity(free_count: int, budget: int | None) -> None:
    """Refuse a search over more than 2^CUTOFF candidates: 2^F for F free
    edges, or the sum of C(F, c) over c <= budget when budget < F."""
    if budget is None or budget >= free_count:
        work = 1 << free_count
    else:
        work = sum(math.comb(free_count, c) for c in range(budget + 1))
    if work > 1 << CUTOFF:
        raise CapacityError(
            f"search would visit about 2^{math.log2(work):.1f} candidates, above the 2^{CUTOFF} ceiling"
        )


def solve_exhaustive(
    g: Graph,
    pre: PartialWeightAssignment | None = None,
    budget: int | None = None,
    *,
    fewest: bool = True,
    stats: dict[str, int] | None = None,
) -> WeightAssignment | None:
    """A proper assignment extending pre using at most `budget` weight-1 free
    edges, or None.  With `fewest` the first hit in enumeration order is
    returned; without it, the decide walk's first completion, with no
    popcount pass.  `stats` gets `search_nodes`."""
    pre = pre or {}
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    inst = _prepare(g, pre, floor=fewest)
    free = inst.free
    _check_capacity(len(free), budget)
    maxc = len(free) if budget is None else budget
    chosen, nodes = _kernel.solve_ones(inst, maxc, fewest)
    if stats is not None:
        stats["search_nodes"] = nodes
    if chosen is None:
        return None
    ones = {free[p] for p in chosen}
    w: WeightAssignment = dict(pre)
    for i in free:
        w[g.edges[i]] = 1 if i in ones else 0
    return w

