"""Exhaustive-search baseline: ground truth for every other solver.

Enumeration is over the free (not pre-weighted) edges, by ascending count of
weight-1 edges with lexicographic tie-breaking over the canonical edge order,
so witnesses are deterministic.  A search decides first, with a depth-first
walk (weight 0 before weight 1, at most the budget of weight-1 edges) that
stops at the first proper completion; only when there is one do the
popcount passes run to pick the witness, so a no-instance is one walk
instead of one pass per popcount level.  The inner loop has one C source,
``_search.c``, built by ``python setup.py build_ext --inplace`` (or by a
plain ``cc -O2 -std=c99 -shared -fPIC``) into a shared library next to this
module.  The backend follows the presence of that library: when it is there,
it is loaded through ctypes (vcew._search_c); otherwise the pure-Python twin
vcew._search_py runs.  Both return the same witnesses and node counts.
The search caps only the count of weight-1 edges, never a vertex's color:
a color-bounded query is a run of the treewidth DP
(vcew.treewidth.exists_with_color_bound).  The oracle only decides; it
counts nothing.  The kernels' ``count_all`` and ``exists_proper`` have no
caller in this package: they stay only because the benchmark's tracer
(perfbench/spans.py) wraps them, and go when it no longer does.
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
    ``end[F] == len(pairs)``.
    """

    n: int
    fu: tuple[int, ...]  # free position p joins fu[p] and fv[p]
    fv: tuple[int, ...]
    pairs: tuple[Edge, ...]  # the edges of g in settle order
    end: tuple[int, ...]  # settle group boundaries in pairs, F + 1 of them
    colors: tuple[int, ...]  # start colors from the weight-1 pre-weights
    free: tuple[int, ...]  # free position -> edge index


def _prepare(g: Graph, pre: PartialWeightAssignment) -> SearchInstance:
    validate_partial(g, pre)
    n = g.vertex_count
    edges = g.edges
    colors = [0] * n
    free: list[int] = []
    for i, e in enumerate(edges):
        value = pre.get(e)
        if value is None:
            free.append(i)
        elif value:
            colors[e[0]] += 1
            colors[e[1]] += 1
    last = [-1] * n  # the last free position at each vertex
    for p, i in enumerate(free):
        u, v = edges[i]
        last[u] = last[v] = p
    key = [max(last[u], last[v]) for u, v in edges]  # where each edge settles, -1 at the root
    pairs = tuple(edges[j] for j in sorted(range(len(edges)), key=key.__getitem__))
    sizes = [0] * (len(free) + 1)
    for k in key:
        sizes[k + 1] += 1
    return SearchInstance(
        n, tuple(edges[i][0] for i in free), tuple(edges[i][1] for i in free), pairs,
        tuple(accumulate(sizes)), tuple(colors), tuple(free),
    )


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
    stats: dict[str, int] | None = None,
) -> WeightAssignment | None:
    """A proper assignment extending pre using at most `budget` weight-1 free
    edges, or None.  The first hit in enumeration order is returned;
    `stats` gets `search_nodes`."""
    pre = pre or {}
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    inst = _prepare(g, pre)
    free = inst.free
    _check_capacity(len(free), budget)
    maxc = len(free) if budget is None else budget
    chosen, nodes = _kernel.solve_ones(inst, maxc)
    if stats is not None:
        stats["search_nodes"] = nodes
    if chosen is None:
        return None
    ones = {free[p] for p in chosen}
    w: WeightAssignment = dict(pre)
    for i in free:
        w[g.edges[i]] = 1 if i in ones else 0
    return w

