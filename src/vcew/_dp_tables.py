"""Table transitions of the treewidth DP over packed int64 states.

`vcew.treewidth.run_dp` loads this module on its first call, so numpy is
imported only by processes that run the DP.  The state layout, the
provenance arrays and the tie-break rule are described in the docstring of
`vcew.treewidth`.

Each transition has a numpy form and a pure-Python twin (the `_py`
functions).  `run` picks the twin when the child has at most _SMALL rows,
at an introduce-vertex when it writes at most _SMALL rows, or at a join
when |child 1| * |child 2| is at most _SMALL^2: on such tables a numpy
transition spends most of its time in per-call overhead.  The twins
take and return lists of ints, so a table and its provenance (`src`,
`src2`, `weight`) are either arrays or lists; a numpy transition converts a
list table when it receives one, and `_witness_ids` and check mode read
both forms.  A twin gives the same rows, in the same order, with the same
provenance as its numpy form: introduce-vertex stays child-major with fd
from lo to top, introduce-edge emits weight 1 before weight 0 and keeps the
earlier position and the weight-0 derivation on a collision, forget and
join keep first occurrences, and join visits pairs in (child-1 row,
child-2 row) order.
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
_CHUNK = 1 << 14  # child rows, or join pairs, a transition works on at once
_SMALL = 64  # child rows up to which a twin runs (rows written at an introduce-vertex, _SMALL^2 pairs at a join)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values begins in a sorted, nonempty array."""
    head = np.empty(len(ordered), dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return np.flatnonzero(head)


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
    return np.sort(np.minimum.reduceat(order, _run_starts(keys[order])))


class _Layout:
    """Bit offsets of the (fd, cd) fields; slot i is the i-th vertex of the sorted bag."""

    def __init__(self, bits: int):
        self.bits = bits
        self.slot = 2 * bits
        self.mask = (1 << bits) - 1

    def fd_shift(self, i: int) -> int:
        return self.slot * i

    def cd_shift(self, i: int) -> int:
        return self.slot * i + self.bits

    def fd(self, keys: np.ndarray, i: int) -> np.ndarray:
        return (keys >> self.fd_shift(i)) & self.mask

    def cd(self, keys: np.ndarray, i: int) -> np.ndarray:
        return (keys >> self.cd_shift(i)) & self.mask

    def fd_mask(self, size: int) -> int:
        return sum(self.mask << (self.slot * i) for i in range(size))

    def unpack(self, key: int, size: int) -> tuple[int, ...]:
        out: list[int] = []
        for i in range(size):
            out.append((key >> (self.slot * i)) & self.mask)
            out.append((key >> (self.slot * i + self.bits)) & self.mask)
        return tuple(out)


def _introduce_vertex(lay: _Layout, keys: np.ndarray, pos: int, lo: int, top: int):
    """Open slot `pos` and set fd = lo..top, cd = 0; rows stay child-major.
    A top below lo leaves no row."""
    shift = lay.slot * pos
    # widened = high << (shift + slot) | low, as high << shift times
    # (2^slot - 1) plus the key, in place on one child-sized temporary
    widened = keys & -(1 << shift)
    widened *= (1 << lay.slot) - 1
    widened += keys
    fds = np.arange(lo, top + 1, dtype=np.int64) << shift
    out = (widened[:, None] | fds[None, :]).ravel()
    return out, np.repeat(np.arange(len(keys), dtype=_ROW), len(fds))


def _field_dtype(bits: int) -> np.dtype:
    """The narrowest signed integer type that holds a field (below 2^bits)
    and fd - cd - need - 1, which is above -2^(bits + 1)."""
    return np.min_scalar_type(-(2 << bits))


def _introduce_edge(
    lay: _Layout, keys: np.ndarray, iu: int, iv: int, span_u: tuple[int, int], span_v: tuple[int, int], allow0: bool, allow1: bool
):
    """Weight-1 and weight-0 branches of every child row, in the order
    (row 0 weight 1, row 0 weight 0, row 1 weight 1, ...).

    `span_u` and `span_v` are the (need, room) bounds on fd - cd after the
    edge; a row outside them is dropped.  The fields are read in chunks of
    child rows into narrow integers, and candidate keys are built only for
    the rows a branch keeps.  A weight-1 row shifts cd_u and cd_v up by one,
    which is injective, so a key can occur at most twice: once per branch.
    It keeps the position of its earlier occurrence and the weight-0
    derivation.
    """
    dtype = _field_dtype(lay.bits)
    unsigned = np.dtype(f"u{dtype.itemsize}")
    shifts = np.array([[lay.fd_shift(iu)], [lay.fd_shift(iv)], [lay.cd_shift(iu)], [lay.cd_shift(iv)]])
    # need <= gap <= room as one unsigned comparison: a gap below need wraps above room - need
    need = np.array([[span_u[0]], [span_v[0]]], dtype=dtype)
    width = np.array([[span_u[1] - span_u[0]], [span_v[1] - span_v[0]]], dtype=unsigned)
    step = (1 << lay.cd_shift(iu)) + (1 << lay.cd_shift(iv))
    parts = []
    for start in range(0, len(keys), _CHUNK):
        chunk = keys[start:start + _CHUNK]
        fields = (chunk >> shifts).astype(dtype) & lay.mask  # rows fd_u, fd_v, cd_u, cd_v
        gap = fields[:2] - fields[2:] - need
        valid = np.zeros((len(chunk), 2), dtype=bool)  # row-major: (row 0 weight 1, row 0 weight 0, ...)
        if allow1:  # weight 1 raises cd, so the gap after the edge is one less
            ok = (gap - 1).view(unsigned) <= width
            np.logical_and(ok[0], ok[1], out=valid[:, 0])
        if allow0:
            ok = gap.view(unsigned) <= width
            np.logical_and(ok[0], ok[1], out=valid[:, 1])
        valid &= (fields[0] != fields[1])[:, None]
        picked = np.flatnonzero(valid)  # 2 * row + (1 - weight)
        rows = picked >> 1
        taken = 1 - (picked & 1)
        parts.append((chunk[rows] + step * taken, (rows + start).astype(_ROW), taken.astype(np.int8)))
    cand, src, taken = _concat(parts, (np.int64, _ROW, np.int8))
    if allow0 and allow1 and len(cand) > 1:
        ordered = np.sort(cand)  # a value sort is cheaper than argsort, and most tables have no pair
        pair = np.flatnonzero(ordered[1:] == ordered[:-1])
        del ordered
        if len(pair):
            order = np.argsort(cand)  # the same sorted values as `ordered`
            a, b = order[pair], order[pair + 1]
            del order
            # the pair keeps its earlier position and the weight-0 derivation
            earlier = np.minimum(a, b)
            src[earlier] = np.where(taken[a] == 0, src[a], src[b])
            taken[earlier] = 0
            keep = np.ones(len(cand), dtype=bool)
            keep[np.maximum(a, b)] = False
            cand, src, taken = cand[keep], src[keep], taken[keep]
    return cand, src, taken


def _forget(lay: _Layout, keys: np.ndarray, pos: int):
    """Close the slot at `pos` and keep first occurrences.  Every row here has
    fd == cd at `pos`: need and room are both 0 once v's edges are in."""
    shift = lay.slot * pos
    closed = (keys & ((1 << shift) - 1)) | ((keys >> (shift + lay.slot)) << shift)
    first = _first_occurrences(closed)
    return closed[first], first.astype(_ROW)


def _join(lay: _Layout, k1: np.ndarray, k2: np.ndarray, spans: list[tuple[int, int]]):
    """Pair every row of child 1 with the rows of child 2 that share its fd
    fields, in (row 1, row 2) order, keep pairs whose gap fd - (cd1 + cd2)
    lies within each slot's (need, room) span, and keep first occurrences.

    A tight slot (need == room) fixes cd1 = fd - need - cd2, so child 2 is
    keyed on its fd fields and that cd1 for each tight slot, and child 1
    probes with its fd and tight cd fields; a child-2 row whose cd1 would be
    negative matches nothing.  Only the loose slots are checked on the
    matched pairs.  Child-1 rows are probed in chunks and their pairs
    expanded in blocks of at most _CHUNK pairs, so apart from child 2's
    sorted keys no temporary grows with a child table or with the pairs a
    join drops.
    """
    if len(k1) == 0 or len(k2) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=_ROW), np.zeros(0, dtype=_ROW)
    fdm = lay.fd_mask(len(spans))
    tight = [i for i, (need, room) in enumerate(spans) if need == room]
    loose = [i for i, (need, room) in enumerate(spans) if need != room]
    key2 = k2 & fdm
    if tight:
        fd_at, cd_at, need = _columns(lay, spans, tight)
        for start in range(0, len(k2), _CHUNK):
            chunk = k2[start:start + _CHUNK]
            wanted = ((chunk >> fd_at) & lay.mask) - ((chunk >> cd_at) & lay.mask) - need  # cd1 per tight slot
            out = key2[start:start + _CHUNK]
            out |= (wanted << cd_at).sum(axis=0)  # the fields do not overlap
            out[(wanted < 0).any(axis=0)] = -1  # probes are nonnegative
    order2 = np.argsort(key2, kind="stable")  # equal keys keep child-2 row order
    key2 = key2[order2]
    starts = _run_starts(key2)  # sorted position of each distinct key
    distinct = key2[starts]
    del key2
    sizes = np.append(starts[1:], len(k2)) - starts
    keymask = fdm | sum(lay.mask << lay.cd_shift(i) for i in tight)
    if loose:
        fd_at, cd_at, need = _columns(lay, spans, loose)
        # need <= gap <= room as one unsigned comparison, as in _introduce_edge
        width = np.array([[spans[i][1] - spans[i][0]] for i in loose], dtype=np.uint64)
    parts = []
    for start in range(0, len(k1), _CHUNK):
        probe = k1[start:start + _CHUNK] & keymask
        run = np.searchsorted(distinct, probe)
        hit = distinct.take(run, mode="clip") == probe
        for r1, at in _pairs(sizes.take(run, mode="clip") * hit, starts.take(run, mode="clip"), start):
            r2 = order2[at].astype(_ROW)
            x, y = k1[r1], k2[r2]
            if loose:
                gap = ((x >> fd_at) & lay.mask) - ((x >> cd_at) & lay.mask) - ((y >> cd_at) & lay.mask) - need
                rows = np.flatnonzero((gap.view(np.uint64) <= width).all(axis=0))
                r1, r2, x, y = r1[rows], r2[rows], x[rows], y[rows]
            parts.append((x + (y & ~fdm), r1, r2))
    merged, r1, r2 = _concat(parts, (np.int64, _ROW, _ROW))
    first = _first_occurrences(merged)
    return merged[first], r1[first], r2[first]


def _columns(lay: _Layout, spans: list[tuple[int, int]], slots: list[int]):
    """fd and cd bit offsets and needs of `slots` as columns, to broadcast over rows."""
    fd_at = np.array([[lay.fd_shift(i)] for i in slots])
    return fd_at, fd_at + lay.bits, np.array([[spans[i][0]] for i in slots])


def _pairs(counts: np.ndarray, lo: np.ndarray, start: int):
    """(child-1 rows, sorted child-2 positions) in blocks of at most _CHUNK
    pairs, in order: chunk row r, child-1 row start + r, is paired with
    positions lo[r] .. lo[r] + counts[r] - 1.  A block boundary can fall
    inside one row's run."""
    ends = np.cumsum(counts)
    total = int(ends[-1])
    offset = lo - (ends - counts)  # pair p of row r sits at position offset[r] + p
    rows = np.arange(start, start + len(counts), dtype=_ROW)
    if total <= _CHUNK:
        if total:
            yield np.repeat(rows, counts), np.repeat(offset, counts) + np.arange(total)
        return
    for p in range(0, total, _CHUNK):
        q = min(p + _CHUNK, total)
        a = int(np.searchsorted(ends, p, side="right"))
        b = int(np.searchsorted(ends, q - 1, side="right")) + 1
        rep = counts[a:b].copy()
        rep[0] -= p - (ends[a] - counts[a])
        rep[-1] -= ends[b - 1] - q
        yield np.repeat(rows[a:b], rep), np.repeat(offset[a:b], rep) + np.arange(p, q)


def _concat(parts: list[tuple[np.ndarray, ...]], dtypes: tuple) -> list[np.ndarray]:
    """Join per-chunk arrays column by column; a single chunk is not copied."""
    if len(parts) == 1:
        return list(parts[0])
    if not parts:
        return [np.zeros(0, dtype=d) for d in dtypes]
    return [np.concatenate(col) for col in zip(*parts)]


# The pure-Python twins of the four transitions above (see the module
# docstring): the same arguments and results, with lists for arrays.


def _introduce_vertex_py(lay: _Layout, keys: list[int], pos: int, lo: int, top: int):
    shift = lay.slot * pos
    low, high = (1 << shift) - 1, shift + lay.slot
    fds = [fd << shift for fd in range(lo, top + 1)]
    widened = [(key & low) | ((key >> shift) << high) for key in keys]
    return [w | fd for w in widened for fd in fds], [row for row in range(len(keys)) for _ in fds]


def _introduce_edge_py(
    lay: _Layout, keys: list[int], iu: int, iv: int, span_u: tuple[int, int], span_v: tuple[int, int], allow0: bool, allow1: bool
):
    mask = lay.mask
    fu, fv, cu, cv = lay.fd_shift(iu), lay.fd_shift(iv), lay.cd_shift(iu), lay.cd_shift(iv)
    (need_u, room_u), (need_v, room_v) = span_u, span_v
    step = (1 << cu) + (1 << cv)
    out: list[int] = []
    src: list[int] = []
    taken: list[int] = []
    for row, key in enumerate(keys):
        fd_u, fd_v = (key >> fu) & mask, (key >> fv) & mask
        if fd_u == fd_v:
            continue
        gap_u, gap_v = fd_u - ((key >> cu) & mask), fd_v - ((key >> cv) & mask)
        if allow1 and need_u < gap_u <= room_u + 1 and need_v < gap_v <= room_v + 1:  # weight 1 raises cd
            out.append(key + step)
            src.append(row)
            taken.append(1)
        if allow0 and need_u <= gap_u <= room_u and need_v <= gap_v <= room_v:
            out.append(key)
            src.append(row)
            taken.append(0)
    if len(set(out)) == len(out):
        return out, src, taken
    kept: dict[int, int] = {}  # key -> index of the derivation it keeps
    for i, key in enumerate(out):
        if key not in kept or taken[i] == 0:  # the earlier position, the weight-0 derivation
            kept[key] = i
    return list(kept), [src[i] for i in kept.values()], [taken[i] for i in kept.values()]


def _forget_py(lay: _Layout, keys: list[int], pos: int):
    shift = lay.slot * pos
    low, high = (1 << shift) - 1, shift + lay.slot
    return _first_occurrences_py([(key & low) | ((key >> high) << shift) for key in keys], list(range(len(keys))))


def _join_py(lay: _Layout, k1: list[int], k2: list[int], spans: list[tuple[int, int]]):
    mask = lay.mask
    fdm = lay.fd_mask(len(spans))
    tight = [(lay.fd_shift(i), lay.cd_shift(i), need) for i, (need, room) in enumerate(spans) if need == room]
    loose = [(lay.fd_shift(i), lay.cd_shift(i), need, room) for i, (need, room) in enumerate(spans) if need != room]
    keymask = fdm | sum(mask << cd_at for _, cd_at, _ in tight)
    partners: dict[int, list[int]] = {}  # probe key -> child-2 rows, in row order
    for r2, y in enumerate(k2):
        probe = y & fdm
        for fd_at, cd_at, need in tight:
            wanted = ((y >> fd_at) & mask) - ((y >> cd_at) & mask) - need  # the cd1 a partner must have
            if wanted < 0:
                break
            probe |= wanted << cd_at
        else:
            partners.setdefault(probe, []).append(r2)
    merged: list[int] = []
    rows1: list[int] = []
    rows2: list[int] = []
    for r1, x in enumerate(k1):
        for r2 in partners.get(x & keymask, ()):
            y = k2[r2]
            for fd_at, cd_at, need, room in loose:
                if not need <= ((x >> fd_at) & mask) - ((x >> cd_at) & mask) - ((y >> cd_at) & mask) <= room:
                    break
            else:
                merged.append(x + (y & ~fdm))
                rows1.append(r1)
                rows2.append(r2)
    return _first_occurrences_py(merged, rows1, rows2)


def _first_occurrences_py(keys: list[int], *columns):
    """The first occurrence of every distinct key, in input order, with the
    matching entries of each column."""
    if len(set(keys)) == len(keys):
        return (keys, *columns)
    first: dict[int, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    return (list(first), *([column[i] for i in first.values()] for column in columns))


def _rows(table) -> list[int]:
    """A table as a list of ints, the form the twins and check mode read."""
    return table if isinstance(table, list) else table.tolist()


def _pick(small: bool, vectorised, twin, *tables):
    """The twin with list tables when `small`, else the numpy transition with arrays."""
    if small:
        return (twin, *map(_rows, tables))
    return (vectorised, *(np.asarray(t, dtype=np.int64) for t in tables))


def run(
    g: Graph,
    ntd: NiceTreeDecomposition,
    pre: PartialWeightAssignment,
    lo: list[int],
    hi: list[int],
    top: list[int],
    bits: int,
    check_invariants: bool,
):
    """Bottom-up table computation.  fd(v) ranges over lo[v]..top[v], where
    top[v] <= hi[v] is the colour cap; need and room come from lo and hi.
    Returns the root's solution edge ids (None when the root table is
    empty) and the per-node state counts."""
    lay = _Layout(bits)
    nodes = ntd.nodes
    # each table and its provenance is an array, or a list where a twin built it
    keys: dict[int, np.ndarray | list[int]] = {}
    src: dict[int, np.ndarray | list[int]] = {}  # child row, or child-1 row at a join
    src2: dict[int, np.ndarray | list[int]] = {}  # child-2 row at a join
    weight: dict[int, np.ndarray | list[int]] = {}  # 1 when an introduce-edge row takes the edge
    # node -> bag vertex -> (introduced edges pre-weighted 1, introduced edges not pre-weighted 0)
    intro: dict[int, dict[int, tuple[int, int]]] = {}

    def span(seen: dict[int, tuple[int, int]], v: int) -> tuple[int, int]:
        """(need, room): v's weight-1 edges still to come that are forced, and that are possible."""
        ones, open_ = seen[v]
        return lo[v] - ones, hi[v] - open_

    state_counts = [0] * len(nodes)
    if check_invariants:
        edge_sets = subtree_edge_sets(ntd)
    for t in postorder(ntd):
        node = nodes[t]
        if node.kind == LEAF:
            table = [0]
            seen: dict[int, tuple[int, int]] = {}
        elif node.kind == INTRODUCE_VERTEX:
            c = node.children[0]
            seen = intro.pop(c)
            x = node.vertex
            seen[x] = (0, 0)
            child = keys.pop(c)
            written = len(child) * max(0, top[x] - lo[x] + 1)
            step, child = _pick(written <= _SMALL, _introduce_vertex, _introduce_vertex_py, child)
            table, src[t] = step(lay, child, node.bag.index(x), lo[x], top[x])
        elif node.kind == INTRODUCE_EDGE:
            c = node.children[0]
            seen = intro.pop(c)
            u, v = node.edge
            pw = pre.get(node.edge)
            for x in node.edge:
                ones, open_ = seen[x]
                seen[x] = (ones + (pw == 1), open_ + (pw != 0))
            child = keys.pop(c)
            step, child = _pick(len(child) <= _SMALL, _introduce_edge, _introduce_edge_py, child)
            table, src[t], weight[t] = step(
                lay, child, node.bag.index(u), node.bag.index(v),
                span(seen, u), span(seen, v), pw != 1, pw != 0,
            )
        elif node.kind == FORGET:
            c = node.children[0]
            seen = intro.pop(c)
            del seen[node.vertex]
            child, pos = keys.pop(c), nodes[c].bag.index(node.vertex)
            if check_invariants and any(lay.fd(key, pos) != lay.cd(key, pos) for key in _rows(child)):
                raise ContractViolationError(f"a row reaching forget node {t} has fd != cd for vertex {node.vertex}")
            step, child = _pick(len(child) <= _SMALL, _forget, _forget_py, child)
            table, src[t] = step(lay, child, pos)
        else:  # JOIN
            c1, c2 = node.children
            s1, s2 = intro.pop(c1), intro.pop(c2)
            seen = {x: (s1[x][0] + s2[x][0], s1[x][1] + s2[x][1]) for x in node.bag}
            k1, k2 = keys.pop(c1), keys.pop(c2)
            step, k1, k2 = _pick(len(k1) * len(k2) <= _SMALL * _SMALL, _join, _join_py, k1, k2)
            table, src[t], src2[t] = step(lay, k1, k2, [span(seen, x) for x in node.bag])
        state_counts[t] = len(table)
        if check_invariants:  # each row's partial solution, decoded as the witness is
            for row, key in enumerate(_rows(table)):
                h = [g.edges[i] for i in _witness_ids(g, ntd, src, src2, weight, t, row)]
                if not _check_partial(g, node.bag, edge_sets[t], lay.unpack(key, len(node.bag)), h):
                    raise ContractViolationError(f"stored entry violates the partial-solution conditions at node {t}")
        keys[t] = table
        intro[t] = seen
    if len(keys[ntd.root]) == 0:
        return None, state_counts
    return _witness_ids(g, ntd, src, src2, weight, ntd.root, 0), state_counts


def _witness_ids(g: Graph, ntd: NiceTreeDecomposition, src, src2, weight, t: int, row: int) -> frozenset[int]:
    """Walk the provenance from row `row` of node `t` down and collect the ids
    of the row's weight-1 edges; from the root's row 0 this is the witness."""
    ids: set[int] = set()
    stack = [(t, row)]
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
