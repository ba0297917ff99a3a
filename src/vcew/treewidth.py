"""Dynamic programming over nice tree decompositions.

The solver works on the solution-subgraph view: a weighting is proper exactly
when adjacent vertices have distinct degrees in the subgraph of weight-1
edges.  Per bag vertex the DP tracks a feasible pair (fd, cd): the intended
final degree in the solution subgraph and the current degree in the partial
solution built so far.  Pre-weighted edges restrict the introduce-edge
transition: a pre-weight of 1 removes the keep-it-out branch, a pre-weight
of 0 removes the add-it branch.

Tables are computed a whole node at a time (vcew._dp_tables, which loads
with the first DP run).  Numpy computes a transition whose child has more
than 64 rows (at a join, whose children's row counts multiply to more than
64^2; at an introduce-vertex, which writes more than 64 rows); below that,
numpy's per-call overhead outweighs the table work, and a pure-Python twin
of the transition computes it on lists of ints instead.
A twin gives the same rows, in the same order, with the same provenance, so
the switch never changes a witness or a state count:

* State packing.  A node's table holds one packed state per row, as an
  int64 array or, where a twin built it, a list of ints.  Slot i, the i-th
  vertex of the sorted bag, holds fd in bits [2bi, 2bi + b) and cd in bits
  [2bi + b, 2bi + 2b), where b = max(1, max_v hi(v)).bit_length() fits
  every colour a vertex can take (hi(v) = deg(v) minus v's edges
  pre-weighted 0; see run_dp).  When
  2b(width + 1) exceeds 63 bits run_dp raises CapacityError instead of
  letting a state wrap.  Key order never enters the tie-break (first
  occurrences are kept by index, and join groups keep child-2 row order),
  so b never changes a witness.
* Provenance.  Each row records where it came from: the child row (child-1
  row at a join), the child-2 row at a join, and at an introduce-edge node
  whether the row takes the edge.  The witness is decoded by walking these
  index arrays down from the root row; no partial solutions are stored.
  Check mode (run_dp's check_invariants) decodes every stored row with the
  same walker, so the code that builds the witness is the code it checks.
* Tie-break.  Rows stay in order of first derivation, as a dict filled
  child row by child row would keep them.  Introduce-vertex expands each
  child row into fd = lo(v)..hi(v), the colours v's pre-weights allow,
  or up to lo(v) + gain under a colour gain (see run_dp); introduce-edge
  emits each child row's weight-1 row before its weight-0 row; join pairs
  rows in (child-1 row, child-2 row) order.
  Join matches a pair on the fd fields and, for each tight bag vertex (no
  free edge left to introduce, so need(v) == room(v)), also on cd: child 2
  is keyed on fd - need - cd2 there, the cd1 a partner must have, and only
  the other slots are checked on the matched pairs.  Matching on more
  fields keeps a subset of the fd-matched pairs in the same order, so the
  rows and their provenance are those of matching on fd and filtering.
  When two derivations give the same state, the row keeps the earlier
  position and the first derivation's provenance, except at introduce-edge,
  where the weight-0 derivation beats the weight-1 one.
  The witness therefore depends only on the decomposition and the input.
* Chunks.  On the numpy path, introduce-edge reads its child rows, and join
  probes its child-1 rows and expands their pairs, in chunks of a fixed
  number of rows or pairs, and the first-occurrence pass then runs once
  over what the chunks kept.  Besides join's sorted keys and row order for
  child 2, a transition's temporaries are bounded by the chunk size and by
  the rows it keeps, not by the larger child table or by the pairs a join
  drops.  Chunking never changes a row or its order.  The twins take whole
  tables, which the size switch keeps at most 64 rows (64^2 pairs), and an
  introduce-vertex twin writes at most 64 rows.

run_dp checks its tree decomposition once, in make_nice, and trusts
make_nice's output.  validate_nice checks a nice decomposition as a tree
decomposition (via validate_decomposition) plus each node kind's rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator

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

_ARITY = {LEAF: 0, INTRODUCE_VERTEX: 1, INTRODUCE_EDGE: 1, FORGET: 1, JOIN: 2}  # children per node kind


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


def _postorder(children, root: int) -> Iterator[int]:
    """Post-order from root; the last child's subtree comes first, an order
    that make_nice's node ids, and so the DP's witnesses, depend on."""
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            yield t
        else:
            stack.append((t, True))
            stack.extend((c, False) for c in children[t])


def validate_decomposition(g: Graph, td: TreeDecomposition) -> bool:
    """All three decomposition conditions on a tree rooted at td.root: edges
    covered, occurrences form a nonempty connected subtree per vertex, bags
    cover the vertex set."""
    n = g.vertex_count
    count = len(td.bags)
    if len(td.parent) != count or not (0 <= td.root < count) or td.parent[td.root] != -1:
        return False
    # Every node has one parent, so the nodes form a tree rooted at td.root
    # exactly when every other parent is in range and the root reaches all.
    if any(not (0 <= p < count) for t, p in enumerate(td.parent) if t != td.root):
        return False
    if sum(1 for _ in _postorder(td.children(), td.root)) != count:
        return False
    occ: list[set[int]] = [set() for _ in range(n)]
    for node, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < n):
                return False
            occ[v].add(node)
    if any(occ[u].isdisjoint(occ[v]) for u, v in g.edges):
        return False
    # The occurrences of v are nonempty and connected iff exactly one of them
    # has its parent outside them.
    return all(sum(td.parent[t] not in ts for t in ts) == 1 for ts in occ)


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
    tops: dict[int, int] = {}
    for t in _postorder(children, td.root):
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
    """Raise ValidationError unless ntd is a nice decomposition of g: a tree
    decomposition of g (validate_decomposition, with the parents its child
    lists give) whose root bag is empty, whose nodes keep their kind's child
    count and bag rule, and which introduces every edge exactly once."""
    nodes = ntd.nodes
    count = len(nodes)
    if not (0 <= ntd.root < count):
        raise ValidationError("bad root")
    parent = [-1] * count
    for i, node in enumerate(nodes):
        arity = _ARITY.get(node.kind)
        if arity is None:
            raise ValidationError(f"unknown node kind {node.kind!r}")
        if len(node.children) != arity:
            raise ValidationError(f"{node.kind} node {i} has {len(node.children)} children, not {arity}")
        for c in node.children:
            if not (0 <= c < count):
                raise ValidationError(f"node {i} has child index {c} out of range")
            if parent[c] != -1:
                raise ValidationError(f"node {c} is a child of nodes {parent[c]} and {i}")
            parent[c] = i
    if nodes[ntd.root].bag:
        raise ValidationError("root bag must be empty")
    bags = tuple(frozenset(node.bag) for node in nodes)
    if not validate_decomposition(g, TreeDecomposition(bags, tuple(parent), ntd.root)):
        raise ValidationError("not a tree decomposition of the graph")
    introduced: dict[Edge, int] = {}
    for i, node in enumerate(nodes):
        bag = bags[i]
        child = bags[node.children[0]] if node.children else bag
        if node.kind == LEAF:
            if bag:
                raise ValidationError(f"leaf node {i} has a nonempty bag")
        elif node.kind == INTRODUCE_VERTEX:
            if node.vertex in child or bag != child | {node.vertex}:
                raise ValidationError(f"bad introduce-vertex node {i}")
        elif node.kind == INTRODUCE_EDGE:
            if node.edge is None or node.edge not in g.edge_index:
                raise ValidationError(f"introduce-edge node {i} names no graph edge")
            if child != bag or not set(node.edge) <= bag:
                raise ValidationError(f"bad introduce-edge node {i}")
            introduced[node.edge] = introduced.get(node.edge, 0) + 1
        elif node.kind == FORGET:
            if node.vertex not in child or bag != child - {node.vertex}:
                raise ValidationError(f"bad forget node {i}")
        elif any(bags[c] != bag for c in node.children):  # join
            raise ValidationError(f"join node {i} has mismatched child bags")
    for e in g.edges:
        if introduced.get(e, 0) != 1:
            raise ValidationError(f"edge {e} introduced {introduced.get(e, 0)} times")


def postorder(ntd: NiceTreeDecomposition) -> list[int]:
    return list(_postorder([node.children for node in ntd.nodes], ntd.root))


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
    td: TreeDecomposition,
    pre: PartialWeightAssignment | None = None,
    *,
    gain: int | None = None,
    check_invariants: bool = False,
) -> DPRun:
    """Execute the table computation bottom-up over make_nice(td, g) and
    return the root entry plus per-node stored-state counts.

    The pre-weights bound every vertex's final colour: lo(v) = pre1(v) <=
    fd(v) <= deg(v) - pre0(v) = hi(v), where pre1(v) and pre0(v) count v's
    edges pre-weighted 1 and 0.  Introduce-vertex opens fd(v) = lo..hi only.
    Introduce-edge and join also drop a row unless, for every bag vertex,
    need(v) <= fd(v) - cd(v) <= room(v): need counts v's pre-weight-1 edges
    not yet introduced in the subtree, and room counts v's edges not yet
    introduced that are not pre-weighted 0.  The edges still to come add at
    least need and at most room to cd(v), and v's forget requires fd = cd,
    so a dropped row has no extension to the root.  Every row at a node has
    the same edges still to come, so rows with equal keys share that fate:
    the rows that reach the root keep their derivations, their relative
    order and their provenance, and the decision and the reconstructed
    witness are those of the unpruned tables.

    `gain` caps how far a final colour may rise over its pre-weighted
    colour lo(v), the form of the vertex-cover colour bound (every colour
    at most lo(v) + 8k^2 + 8k).  Introduce-vertex then opens
    fd(v) = lo..min(hi, lo + gain), so at most `gain` free edges at v weigh
    1, and only such witnesses survive; a negative gain opens no fd value,
    and None caps nothing.  need, room and the field width b keep the
    uncapped hi.  need and room count v's edges still to come, which a cap
    does not change: room from a capped hi can fall below need, and
    introduce-edge then gets a negative (need, room) width.  b must hold
    those counts too, as introduce-edge compares them in integers sized
    by b.

    The transitions work on fixed-size chunks of child rows and join pairs
    (see the module docstring), so their temporaries grow with the rows
    they keep, not with the largest child table.  Under check_invariants every
    row reaching a forget node must have fd == cd at the forgotten vertex,
    and every stored row is decoded into its partial solution by the walker
    that decodes the witness, then tested by check_partial_solution.

    Raises TypeError for a gain that is not an integer (a bool included),
    ValidationError when make_nice rejects td (its one check),
    CapacityError when a packed state would need more than 63 bits, and
    ContractViolationError when check_invariants finds a stored row whose
    decoded partial solution fails check_partial_solution, or a row
    reaching a forget node with fd != cd.
    """
    if gain is not None and (isinstance(gain, bool) or not isinstance(gain, Integral)):
        raise TypeError(f"gain must be an integer, not {type(gain).__name__}")
    pre = pre or {}
    ntd = make_nice(td, g)
    validate_partial(g, pre)
    lo = [0] * g.vertex_count
    hi = [g.degree(v) for v in range(g.vertex_count)]
    for e, value in pre.items():
        for v in e:
            if value:
                lo[v] += 1
            else:
                hi[v] -= 1
    top = hi if gain is None else [min(h, low + int(gain)) for low, h in zip(lo, hi)]
    bits = max(1, max(hi, default=0)).bit_length()  # every fd and cd fits
    need = 2 * bits * (ntd.width + 1)
    if need > STATE_BITS:
        raise CapacityError(
            f"a DP state needs {need} bits (width {ntd.width}, {bits}-bit colour fields); "
            f"the packed tables hold {STATE_BITS}"
        )
    from vcew import _dp_tables  # numpy loads with the first DP run, not with the CLI

    ids, state_counts = _dp_tables.run(g, ntd, pre, lo, hi, top, bits, check_invariants)
    return DPRun(ids, state_counts)


def exists_with_color_bound(g: Graph, pre: PartialWeightAssignment | None, gain: int | None) -> bool:
    """Whether some proper extension of pre keeps colour(v) <= lo(v) + gain
    at every vertex, lo(v) being v's count of edges pre-weighted 1, decided
    by run_dp over compute_decomposition(g) (None caps nothing)."""
    return run_dp(g, compute_decomposition(g), pre, gain=gain).solution_edge_ids is not None


def dp_solve(
    g: Graph,
    td: TreeDecomposition,
    pre: PartialWeightAssignment | None = None,
    *,
    check_invariants: bool = False,
    stats: dict[str, int] | None = None,
) -> WeightAssignment | None:
    """A proper assignment extending pre, reconstructed from run_dp's root
    entry; `stats` gets `width`, `dp_nodes`, `states_stored`, `max_states`."""
    run = run_dp(g, td, pre, check_invariants=check_invariants)
    if stats is not None:
        stats.update(width=td.width(), dp_nodes=len(run.state_counts))
        stats.update(states_stored=run.states_stored, max_states=run.max_states)
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
