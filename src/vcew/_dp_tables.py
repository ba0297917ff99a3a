"""Table transitions of the treewidth DP over packed int64 states.

`vcew.treewidth.run_dp` loads this module on its first call, so numpy is
imported only by processes that run the DP.  The state layout, the
provenance arrays and the tie-break rule are described in the docstring of
`vcew.treewidth`.
"""

from __future__ import annotations

import numpy as np

from vcew.errors import ContractViolationError
from vcew.graph import Graph, PartialWeightAssignment
from vcew.treewidth import (
    FORGET,
    INTRODUCE_EDGE,
    INTRODUCE_VERTEX,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    _check_partial,
    postorder,
    subtree_edge_sets,
)

_ROW = np.int32  # provenance row indices


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of every distinct key, in input order.

    Equal keys are adjacent after a sort; the smallest index of each run is
    its first occurrence.  The default (unstable) argsort with a minimum per
    run gives the same indices as a stable sort at a third of its cost, and
    hash-based np.unique is slower than either.
    """
    if len(keys) < 2:
        return np.arange(len(keys))
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.empty(len(keys), dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return np.sort(np.minimum.reduceat(order, np.flatnonzero(head)))


class _Layout:
    """Bit offsets of the (fd, cd) fields; slot i is the i-th vertex of the sorted bag."""

    def __init__(self, bits: int):
        self.bits = bits
        self.slot = 2 * bits
        self.mask = (1 << bits) - 1

    def fd(self, keys: np.ndarray, i: int) -> np.ndarray:
        return (keys >> (self.slot * i)) & self.mask

    def cd(self, keys: np.ndarray, i: int) -> np.ndarray:
        return (keys >> (self.slot * i + self.bits)) & self.mask

    def fd_mask(self, size: int) -> int:
        return sum(self.mask << (self.slot * i) for i in range(size))

    def unpack(self, key: int, size: int) -> tuple[int, ...]:
        out: list[int] = []
        for i in range(size):
            out.append((key >> (self.slot * i)) & self.mask)
            out.append((key >> (self.slot * i + self.bits)) & self.mask)
        return tuple(out)


def _introduce_vertex(lay: _Layout, keys: np.ndarray, pos: int, lo: int, hi: int):
    """Open slot `pos` and set fd = lo..hi, cd = 0; rows stay child-major."""
    shift = lay.slot * pos
    low = keys & ((1 << shift) - 1)
    high = (keys >> shift) << (shift + lay.slot)
    fds = np.arange(lo, hi + 1, dtype=np.int64) << shift
    out = ((low | high)[:, None] | fds[None, :]).ravel()
    return out, np.repeat(np.arange(len(keys), dtype=_ROW), hi - lo + 1)


def _introduce_edge(
    lay: _Layout, keys: np.ndarray, iu: int, iv: int, span_u: tuple[int, int], span_v: tuple[int, int], allow0: bool, allow1: bool
):
    """Weight-1 and weight-0 branches of every child row, in the order
    (row 0 weight 1, row 0 weight 0, row 1 weight 1, ...).

    `span_u` and `span_v` are the (need, room) bounds on fd - cd after the
    edge; a row outside them is dropped.  A weight-1 row shifts cd_u and cd_v
    up by one, which is injective, so a key can occur at most twice: once
    per branch.  It keeps the position of its earlier occurrence and the
    weight-0 derivation.
    """
    fd_u, cd_u = lay.fd(keys, iu), lay.cd(keys, iu)
    fd_v, cd_v = lay.fd(keys, iv), lay.cd(keys, iv)
    differ = fd_u != fd_v
    gap_u = fd_u - cd_u
    gap_v = fd_v - cd_v
    (need_u, room_u), (need_v, room_v) = span_u, span_v
    count = len(keys)
    cand = np.empty(2 * count, dtype=np.int64)
    valid = np.zeros(2 * count, dtype=bool)
    if allow1:
        cand[0::2] = keys + ((1 << (lay.slot * iu + lay.bits)) + (1 << (lay.slot * iv + lay.bits)))
        valid[0::2] = (differ & (gap_u > need_u) & (gap_v > need_v)
                       & (gap_u <= room_u + 1) & (gap_v <= room_v + 1))
    if allow0:
        cand[1::2] = keys
        valid[1::2] = differ & (gap_u >= need_u) & (gap_v >= need_v) & (gap_u <= room_u) & (gap_v <= room_v)
    picked = np.flatnonzero(valid)
    if allow0 and allow1 and len(picked) > 1:
        ck = cand[picked]
        order = np.argsort(ck)
        pair = np.flatnonzero(ck[order[1:]] == ck[order[:-1]])
        a, b = order[pair], order[pair + 1]
        # the pair keeps its earlier position and the weight-0 (odd) candidate
        winner = np.where(picked[a] & 1, picked[a], picked[b])
        keep = np.ones(len(picked), dtype=bool)
        keep[np.maximum(a, b)] = False
        picked[np.minimum(a, b)] = winner
        picked = picked[keep]
    return cand[picked], (picked >> 1).astype(_ROW), (1 - (picked & 1)).astype(np.int8)


def _forget(lay: _Layout, keys: np.ndarray, pos: int):
    """Keep rows with fd == cd at `pos`, close the slot, keep first occurrences."""
    rows = np.flatnonzero(lay.fd(keys, pos) == lay.cd(keys, pos))
    kept = keys[rows]
    shift = lay.slot * pos
    closed = (kept & ((1 << shift) - 1)) | ((kept >> (shift + lay.slot)) << shift)
    first = _first_occurrences(closed)
    return closed[first], rows[first].astype(_ROW)


def _join(lay: _Layout, k1: np.ndarray, k2: np.ndarray, spans: list[tuple[int, int]]):
    """Pair every row of child 1 with the rows of child 2 that share its fd
    fields, in (row 1, row 2) order, keep pairs whose gap fd - (cd1 + cd2)
    lies within each slot's (need, room) span, and keep first occurrences."""
    size = len(spans)
    fdm = lay.fd_mask(size)
    f2 = k2 & fdm
    order2 = np.argsort(f2, kind="stable")  # a group keeps child-2 row order
    sorted2 = f2[order2]
    f1 = k1 & fdm
    lo = np.searchsorted(sorted2, f1, side="left")
    hi = np.searchsorted(sorted2, f1, side="right")
    counts = hi - lo
    total = int(counts.sum())
    r1 = np.repeat(np.arange(len(k1), dtype=_ROW), counts)
    starts = np.cumsum(counts) - counts
    r2 = order2[np.arange(total) - np.repeat(starts - lo, counts)].astype(_ROW)
    a = k1[r1]
    b = k2[r2]
    ok = np.ones(total, dtype=bool)
    for i, (need, room) in enumerate(spans):
        gap = lay.fd(a, i) - lay.cd(a, i) - lay.cd(b, i)
        ok &= (gap >= need) & (gap <= room)
    rows = np.flatnonzero(ok)
    merged = a[rows] + (b[rows] & ~fdm)
    first = _first_occurrences(merged)
    rows = rows[first]
    return merged[first], r1[rows], r2[rows]


def run(
    g: Graph,
    ntd: NiceTreeDecomposition,
    pre: PartialWeightAssignment,
    lo: list[int],
    hi: list[int],
    bits: int,
    check_invariants: bool,
):
    """Bottom-up table computation.  fd(v) ranges over lo[v]..hi[v].  Returns
    the root's solution edge ids (None when the root table is empty) and the
    per-node state counts."""
    lay = _Layout(bits)
    nodes = ntd.nodes
    keys: dict[int, np.ndarray] = {}
    src: dict[int, np.ndarray] = {}  # child row, or child-1 row at a join
    src2: dict[int, np.ndarray] = {}  # child-2 row at a join
    weight: dict[int, np.ndarray] = {}  # 1 when an introduce-edge row takes the edge
    # node -> bag vertex -> (introduced edges pre-weighted 1, introduced edges not pre-weighted 0)
    intro: dict[int, dict[int, tuple[int, int]]] = {}

    def span(seen: dict[int, tuple[int, int]], v: int) -> tuple[int, int]:
        """(need, room): v's weight-1 edges still to come that are forced, and that are possible."""
        ones, open_ = seen[v]
        return lo[v] - ones, hi[v] - open_

    state_counts = [0] * len(nodes)
    if check_invariants:
        edge_sets = subtree_edge_sets(ntd)
        partial: dict[int, list[frozenset]] = {}
    for t in postorder(ntd):
        node = nodes[t]
        if node.kind == LEAF:
            table = np.zeros(1, dtype=np.int64)
            seen: dict[int, tuple[int, int]] = {}
        elif node.kind == INTRODUCE_VERTEX:
            c = node.children[0]
            seen = intro.pop(c)
            x = node.vertex
            seen[x] = (0, 0)
            table, src[t] = _introduce_vertex(lay, keys.pop(c), node.bag.index(x), lo[x], hi[x])
        elif node.kind == INTRODUCE_EDGE:
            c = node.children[0]
            seen = intro.pop(c)
            u, v = node.edge
            pw = pre.get(node.edge)
            for x in node.edge:
                ones, open_ = seen[x]
                seen[x] = (ones + (pw == 1), open_ + (pw != 0))
            table, src[t], weight[t] = _introduce_edge(
                lay, keys.pop(c), node.bag.index(u), node.bag.index(v),
                span(seen, u), span(seen, v), pw != 1, pw != 0,
            )
        elif node.kind == FORGET:
            c = node.children[0]
            seen = intro.pop(c)
            del seen[node.vertex]
            table, src[t] = _forget(lay, keys.pop(c), nodes[c].bag.index(node.vertex))
        else:  # JOIN
            c1, c2 = node.children
            s1, s2 = intro.pop(c1), intro.pop(c2)
            seen = {x: (s1[x][0] + s2[x][0], s1[x][1] + s2[x][1]) for x in node.bag}
            table, src[t], src2[t] = _join(lay, keys.pop(c1), keys.pop(c2), [span(seen, x) for x in node.bag])
        state_counts[t] = len(table)
        if check_invariants:
            partial[t] = _partial_solutions(node, t, src, src2, weight, partial)
            for key, h in zip(table.tolist(), partial[t]):
                if not _check_partial(g, node.bag, edge_sets[t], lay.unpack(key, len(node.bag)), h):
                    raise ContractViolationError(f"stored entry violates the partial-solution conditions at node {t}")
        keys[t] = table
        intro[t] = seen
    if len(keys[ntd.root]) == 0:
        return None, state_counts
    return _witness_ids(g, ntd, src, src2, weight), state_counts


def _partial_solutions(node, t, src, src2, weight, partial) -> list[frozenset]:
    """Each stored row's partial solution, built from its provenance."""
    if node.kind == LEAF:
        return [frozenset()]
    if node.kind == JOIN:
        h1, h2 = (partial.pop(c) for c in node.children)
        return [h1[i] | h2[j] for i, j in zip(src[t].tolist(), src2[t].tolist())]
    child = partial.pop(node.children[0])
    if node.kind == INTRODUCE_EDGE:
        return [child[i] | {node.edge} if w else child[i] for i, w in zip(src[t].tolist(), weight[t].tolist())]
    return [child[i] for i in src[t].tolist()]


def _witness_ids(g: Graph, ntd: NiceTreeDecomposition, src, src2, weight) -> frozenset[int]:
    """Walk the provenance from the root row down and collect weight-1 edges."""
    ids: set[int] = set()
    stack = [(ntd.root, 0)]
    while stack:
        t, row = stack.pop()
        node = ntd.nodes[t]
        if node.kind == LEAF:
            continue
        if node.kind == JOIN:
            stack.append((node.children[0], int(src[t][row])))
            stack.append((node.children[1], int(src2[t][row])))
            continue
        if node.kind == INTRODUCE_EDGE and weight[t][row]:
            ids.add(g.edge_index[node.edge])
        stack.append((node.children[0], int(src[t][row])))
    return frozenset(ids)
