"""Dynamic programming over nice tree decompositions.

The solver works on the solution-subgraph view: a weighting is proper exactly
when adjacent vertices have distinct degrees in the subgraph of weight-1
edges.  Per bag vertex the DP tracks a feasible pair (fd, cd): the intended
final degree in the solution subgraph and the current degree in the partial
solution built so far.  Pre-weighted edges restrict the introduce-edge
transition: a pre-weight of 1 removes the keep-it-out branch, a pre-weight
of 0 removes the add-it branch.

Tables are computed a whole node at a time (vcew._dp_tables, which numpy
backs and which loads with the first DP run):

* State packing.  A node's table is an int64 array with one packed state
  per row.  Slot i, the i-th vertex of the sorted bag, holds fd in bits
  [2bi, 2bi + b) and cd in bits [2bi + b, 2bi + 2b), where
  b = max(1, Δ.bit_length()) fits every degree.  When 2b(width + 1)
  exceeds 63 bits run_dp raises CapacityError instead of letting a state
  wrap.
* Provenance.  Each row records where it came from: the child row (child-1
  row at a join), the child-2 row at a join, and at an introduce-edge node
  whether the row takes the edge.  The witness is decoded by walking these
  index arrays down from the root row; no partial solutions are stored.
* Tie-break.  Rows stay in order of first derivation, as a dict filled
  child row by child row would keep them.  Introduce-vertex expands each
  child row into fd = 0..deg(v); introduce-edge emits each child row's
  weight-1 row before its weight-0 row; join pairs rows in (child-1 row,
  child-2 row) order.  When two derivations give the same state, the row
  keeps the earlier position and the first derivation's provenance, except
  at introduce-edge, where the weight-0 derivation beats the weight-1 one.
  The witness therefore depends only on the decomposition and the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from vcew.errors import CapacityError, ValidationError
from vcew.graph import (
    Edge,
    Graph,
    PartialWeightAssignment,
    WeightAssignment,
    edge_key,
    from_subgraph,
    validate_partial,
)

LEAF = "leaf"
INTRODUCE_VERTEX = "introduce_vertex"
INTRODUCE_EDGE = "introduce_edge"
FORGET = "forget"
JOIN = "join"

STATE_BITS = 63  # a packed state must stay a nonnegative int64


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree of bags; validity is checked by validate_decomposition."""

    bags: tuple[frozenset[int], ...]
    parent: tuple[int, ...]  # -1 at the root
    root: int

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.bags]
        for node, p in enumerate(self.parent):
            if p >= 0:
                out[p].append(node)
        return out


@dataclass(frozen=True)
class NiceNode:
    kind: str
    bag: tuple[int, ...]  # sorted
    children: tuple[int, ...]
    vertex: int = -1  # introduce-vertex / forget payload
    edge: Edge | None = None  # introduce-edge payload


@dataclass(frozen=True)
class NiceTreeDecomposition:
    nodes: tuple[NiceNode, ...]
    root: int
    width: int


@dataclass
class DPRun:
    """Outcome of one DP execution, with the counters tests assert on."""

    solution_edge_ids: frozenset[int] | None
    state_counts: list[int]

    @property
    def max_states(self) -> int:
        return max(self.state_counts, default=0)

    @property
    def states_stored(self) -> int:
        return sum(self.state_counts)


def validate_decomposition(g: Graph, td: TreeDecomposition) -> bool:
    """All three decomposition conditions: edges covered, occurrences form a
    nonempty connected subtree per vertex, bags cover the vertex set."""
    n = g.vertex_count
    count = len(td.bags)
    if len(td.parent) != count or not (0 <= td.root < count):
        return False
    if td.parent[td.root] != -1:
        return False
    # every node must reach the root without cycles
    unseen, visiting = -1, -2
    state = [unseen] * count
    state[td.root] = 0
    for node in range(count):
        trail = []
        cur = node
        while state[cur] == unseen:
            state[cur] = visiting
            trail.append(cur)
            p = td.parent[cur]
            if not (0 <= p < count):
                return False  # only the root may point at -1
            cur = p
        if state[cur] == visiting:
            return False  # cycle
        base = state[cur]
        for i, t in enumerate(reversed(trail), start=1):
            state[t] = base + i
    if any(v < 0 or v >= n for bag in td.bags for v in bag):
        return False
    covered = set()
    for bag in td.bags:
        covered.update(bag)
    if covered != set(range(n)):
        return False
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return False
    # Occurrences of v are connected iff exactly one occurrence node has no
    # occurrence parent.
    tops = [0] * n
    for node, bag in enumerate(td.bags):
        p = td.parent[node]
        for v in bag:
            if p < 0 or v not in td.bags[p]:
                tops[v] += 1
    return all(tops[v] == 1 for v in covered)


def compute_decomposition(g: Graph) -> TreeDecomposition:
    """Min-fill elimination heuristic.  Valid for every input; the width can
    exceed the true treewidth."""
    n = g.vertex_count
    if n == 0:
        return TreeDecomposition(bags=(frozenset(),), parent=(-1,), root=0)
    work: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in range(n)}
    elim_order: list[int] = []
    snapshots: list[set[int]] = []
    while work:
        best_v = -1
        best_fill = None
        for v in sorted(work):
            nbrs = sorted(work[v])
            fill = 0
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    if nbrs[j] not in work[nbrs[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_v = v
            if fill == 0:
                break
        nbrs = set(work[best_v])
        elim_order.append(best_v)
        snapshots.append(nbrs)
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    work[a].add(b)
        for a in nbrs:
            work[a].discard(best_v)
        del work[best_v]
    position = {v: i for i, v in enumerate(elim_order)}
    bags = [frozenset({v} | nbrs) for v, nbrs in zip(elim_order, snapshots)]
    parent = [-1] * n
    roots = []
    for i, nbrs in enumerate(snapshots):
        if nbrs:
            parent[i] = min(position[x] for x in nbrs)
        else:
            roots.append(i)
    root = roots[-1]  # last eliminated vertex ends a component
    for r in roots[:-1]:
        parent[r] = root
    return TreeDecomposition(bags=tuple(bags), parent=tuple(parent), root=root)


def make_nice(td: TreeDecomposition, g: Graph) -> NiceTreeDecomposition:
    """Rebuild td as a nice decomposition of the same width.

    Root and leaf bags are empty; every graph edge is introduced exactly
    once, immediately above the introduce-vertex node where its later
    endpoint joins a bag already holding the other one.
    """
    if not validate_decomposition(g, td):
        raise ValidationError("invalid tree decomposition")
    nodes: list[NiceNode] = []
    introduced: set[Edge] = set()

    def add(kind: str, bag: Iterable[int], children: tuple[int, ...], vertex: int = -1, edge: Edge | None = None) -> int:
        nodes.append(NiceNode(kind, tuple(sorted(bag)), children, vertex, edge))
        return len(nodes) - 1

    def raise_chain(top: int, from_bag: frozenset[int], to_bag: frozenset[int]) -> int:
        cur = top
        bag = set(from_bag)
        for v in sorted(from_bag - to_bag):
            bag.remove(v)
            cur = add(FORGET, bag, (cur,), vertex=v)
        for v in sorted(to_bag - from_bag):
            bag.add(v)
            cur = add(INTRODUCE_VERTEX, bag, (cur,), vertex=v)
            for u in sorted(bag):
                e = edge_key(u, v)
                if u != v and g.has_edge(u, v) and e not in introduced:
                    introduced.add(e)
                    cur = add(INTRODUCE_EDGE, bag, (cur,), edge=e)
        return cur

    children = td.children()
    # Iterative post-order over the rooted input tree.
    tops: dict[int, int] = {}
    stack: list[tuple[int, bool]] = [(td.root, False)]
    while stack:
        t, expanded = stack.pop()
        if not expanded:
            stack.append((t, True))
            for c in children[t]:
                stack.append((c, False))
            continue
        kids = [raise_chain(tops[c], td.bags[c], td.bags[t]) for c in children[t]]
        if not kids:
            leaf = add(LEAF, (), ())
            tops[t] = raise_chain(leaf, frozenset(), td.bags[t])
        else:
            cur = kids[0]
            for other in kids[1:]:
                cur = add(JOIN, td.bags[t], (cur, other))
            tops[t] = cur
    root = raise_chain(tops[td.root], td.bags[td.root], frozenset())
    width = max(len(node.bag) for node in nodes) - 1
    return NiceTreeDecomposition(nodes=tuple(nodes), root=root, width=width)


def validate_nice(g: Graph, ntd: NiceTreeDecomposition) -> None:
    """Raise ValidationError unless ntd is a well-formed nice decomposition of g."""
    nodes = ntd.nodes
    if not nodes or not (0 <= ntd.root < len(nodes)):
        raise ValidationError("bad root")
    seen_parent = [0] * len(nodes)
    for node in nodes:
        for c in node.children:
            if not (0 <= c < len(nodes)):
                raise ValidationError("child index out of range")
            seen_parent[c] += 1
    if seen_parent[ntd.root] != 0 or any(count != 1 for i, count in enumerate(seen_parent) if i != ntd.root):
        raise ValidationError("nodes do not form a tree rooted at the root")
    if nodes[ntd.root].bag:
        raise ValidationError("root bag must be empty")
    introduced: dict[Edge, int] = {}
    vertices_seen: set[int] = set()
    for i, node in enumerate(nodes):
        bag = set(node.bag)
        vertices_seen |= bag
        if node.kind == LEAF:
            if node.children or node.bag:
                raise ValidationError("leaf nodes have no children and empty bags")
        elif node.kind == INTRODUCE_VERTEX:
            (c,) = node.children
            child = set(nodes[c].bag)
            if node.vertex in child or bag != child | {node.vertex}:
                raise ValidationError(f"bad introduce-vertex node {i}")
        elif node.kind == INTRODUCE_EDGE:
            (c,) = node.children
            if node.edge is None or node.edge not in g.edge_index:
                raise ValidationError(f"introduce-edge node {i} names no graph edge")
            if set(nodes[c].bag) != bag or not set(node.edge) <= bag:
                raise ValidationError(f"bad introduce-edge node {i}")
            introduced[node.edge] = introduced.get(node.edge, 0) + 1
        elif node.kind == FORGET:
            (c,) = node.children
            child = set(nodes[c].bag)
            if node.vertex not in child or bag != child - {node.vertex}:
                raise ValidationError(f"bad forget node {i}")
        elif node.kind == JOIN:
            if len(node.children) != 2:
                raise ValidationError(f"join node {i} needs two children")
            if any(set(nodes[c].bag) != bag for c in node.children):
                raise ValidationError(f"join node {i} has mismatched child bags")
        else:
            raise ValidationError(f"unknown node kind {node.kind!r}")
    if vertices_seen != set(range(g.vertex_count)):
        raise ValidationError("bags do not cover the vertex set")
    for e in g.edges:
        if introduced.get(e, 0) != 1:
            raise ValidationError(f"edge {e} introduced {introduced.get(e, 0)} times")
    # Occurrence connectivity: each vertex has exactly one top occurrence.
    parent = [-1] * len(nodes)
    for i, node in enumerate(nodes):
        for c in node.children:
            parent[c] = i
    tops = {v: 0 for v in vertices_seen}
    for i, node in enumerate(nodes):
        for v in node.bag:
            if parent[i] < 0 or v not in nodes[parent[i]].bag:
                tops[v] += 1
    if any(count != 1 for count in tops.values()):
        raise ValidationError("vertex occurrences are not connected")


def postorder(ntd: NiceTreeDecomposition) -> list[int]:
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(ntd.root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
        else:
            stack.append((t, True))
            for c in ntd.nodes[t].children:
                stack.append((c, False))
    return order


def subtree_edge_sets(ntd: NiceTreeDecomposition) -> list[frozenset[Edge]]:
    out: list[frozenset[Edge] | None] = [None] * len(ntd.nodes)
    for t in postorder(ntd):
        node = ntd.nodes[t]
        acc: set[Edge] = set()
        for c in node.children:
            acc |= out[c]
        if node.kind == INTRODUCE_EDGE:
            acc.add(node.edge)
        out[t] = frozenset(acc)
    return out  # type: ignore[return-value]


def run_dp(
    g: Graph,
    ntd: NiceTreeDecomposition,
    pre: PartialWeightAssignment | None = None,
    *,
    check_invariants: bool = False,
) -> DPRun:
    """Execute the table computation bottom-up and return the root entry
    plus per-node stored-state counts.

    On top of the five transitions, states that cannot survive any later
    forget are dropped eagerly: once fd(v) - cd(v) exceeds the number of
    v-incident edges not yet introduced in the subtree, no extension can
    close the gap.  Dead states only ever produce dead states, so the live
    tables, the decision, and the reconstructed witness are unchanged.

    Raises CapacityError when a packed state would need more than 63 bits,
    and ContractViolationError when check_invariants finds a stored row
    whose decoded partial solution fails check_partial_solution.
    """
    pre = pre or {}
    validate_nice(g, ntd)
    validate_partial(g, pre)
    bits = max(1, g.max_degree().bit_length())  # every fd and cd fits
    need = 2 * bits * (ntd.width + 1)
    if need > STATE_BITS:
        raise CapacityError(
            f"a DP state needs {need} bits (width {ntd.width}, {bits}-bit degree fields); "
            f"the packed tables hold {STATE_BITS}"
        )
    from vcew import _dp_tables  # numpy loads with the first DP run, not with the CLI

    ids, state_counts = _dp_tables.run(g, ntd, pre, bits, check_invariants)
    return DPRun(ids, state_counts)


def dp_solve(
    g: Graph,
    ntd: NiceTreeDecomposition,
    pre: PartialWeightAssignment | None = None,
    *,
    check_invariants: bool = False,
) -> WeightAssignment | None:
    """A proper assignment extending pre, reconstructed from the root entry."""
    run = run_dp(g, ntd, pre, check_invariants=check_invariants)
    if run.solution_edge_ids is None:
        return None
    return from_subgraph(g, (g.edges[i] for i in run.solution_edge_ids))


def check_partial_solution(g: Graph, ntd: NiceTreeDecomposition, node_id: int, state: tuple, h_edges) -> bool:
    """Independent checker for the two partial-solution conditions.

    `state` is the flat (fd, cd) tuple over the node's sorted bag; `h_edges`
    is an edge set within the node's subtree graph.
    """
    return _check_partial(g, ntd.nodes[node_id].bag, subtree_edge_sets(ntd)[node_id], state, h_edges)


def _check_partial(g: Graph, bag: tuple[int, ...], e_t: frozenset[Edge], state: tuple, h_edges) -> bool:
    """check_partial_solution with the node's subtree edge set `e_t` given."""
    if len(state) != 2 * len(bag):
        return False
    h = {edge_key(*e) for e in h_edges}
    if not h <= e_t:
        return False
    deg: dict[int, int] = {}
    for u, v in h:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    fd = {v: state[2 * i] for i, v in enumerate(bag)}
    cd = {v: state[2 * i + 1] for i, v in enumerate(bag)}
    for v in bag:
        if not (0 <= cd[v] <= fd[v] <= g.degree(v)):
            return False
        if deg.get(v, 0) != cd[v]:
            return False
    for u, v in e_t:
        if u in fd and v in fd:
            if fd[u] == fd[v]:
                return False
        elif u in fd:
            if deg.get(v, 0) == fd[u]:
                return False
        elif v in fd:
            if deg.get(u, 0) == fd[v]:
                return False
        else:
            if deg.get(u, 0) == deg.get(v, 0):
                return False
    return True
