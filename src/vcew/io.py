"""Parsers and emitters for the on-disk formats.

Vertices are 1-indexed on the wire and shifted to dense 0-indexed ids at
this boundary.  Formats:

* ``.gr``: ``c`` comments, header ``p vcew <n> <m>``, then m edge lines
  ``u v`` with an optional third token in {0, 1} for a pre-weight.
* ``.td`` (PACE style): header ``s td <bags> <maxbagsize> <n>``, bag lines
  ``b <id> v1 v2 ...``, then tree edge lines ``i j``.  Bag 1 is the root.
* ``.lc``: header ``p lc <n> <m>``, m edge lines, then one list line
  ``l <v> c1 c2 ...`` per vertex.
* results: canonical JSON text with a stable key order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from vcew.errors import ParseError
from vcew.graph import (
    Edge,
    Graph,
    PartialWeightAssignment,
    WeightAssignment,
    edge_key,
)
from vcew.listcolor import ListColoringInstance
from vcew.treewidth import TreeDecomposition


@dataclass(frozen=True)
class ResultRecord:
    """Machine-readable outcome of one solver run."""

    status: str  # "yes" | "no" | "unknown"
    algorithm: str
    verified: bool = False
    witness: tuple[tuple[int, int, int], ...] | None = None  # (u, v, weight), 0-indexed
    colors: tuple[int, ...] | None = None
    stats: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in ("yes", "no", "unknown"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "yes" and self.witness is None:
            raise ValueError("yes-results must carry a witness")

    def without_stats(self) -> "ResultRecord":
        return replace(self, stats={})


def _tokens(text: str):
    """Yield (line_number, tokens) for non-comment, non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line.split()


def parse_graph(text: str) -> tuple[Graph, PartialWeightAssignment]:
    """Parse a .gr instance; pre-weighted edges go into the partial map."""
    n = m = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    pre: PartialWeightAssignment = {}
    for lineno, parts in _tokens(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "vcew":
                raise ParseError("expected header 'p vcew <n> <m>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer counts in header", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative counts in header", lineno)
            continue
        if n is None:
            raise ParseError("edge line before header", lineno)
        if len(parts) not in (2, 3):
            raise ParseError("expected 'u v' or 'u v w'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer vertex id", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range 1..{n}", lineno)
        if u == v:
            raise ParseError("self-loop", lineno)
        e = edge_key(u - 1, v - 1)
        if e in seen:
            raise ParseError(f"duplicate edge {u} {v}", lineno)
        seen.add(e)
        edges.append(e)
        if len(parts) == 3:
            if parts[2] not in ("0", "1"):
                raise ParseError("pre-weight not in {0, 1}", lineno)
            pre[e] = int(parts[2])
    if n is None:
        raise ParseError("missing 'p vcew' header")
    if m != len(edges):
        raise ParseError(f"header declares {m} edges but {len(edges)} were given")
    return Graph.build(n, edges), pre


def emit_graph(g: Graph, pre: PartialWeightAssignment | None = None) -> str:
    pre = pre or {}
    lines = [f"p vcew {g.vertex_count} {len(g.edges)}"]
    lines += [
        f"{u + 1} {v + 1} {pre[u, v]}" if pre and (u, v) in pre else f"{u + 1} {v + 1}"
        for u, v in g.edges
    ]
    return "\n".join(lines) + "\n"


def parse_td(text: str) -> TreeDecomposition:
    """Parse a PACE-style .td file, rooted at bag 1.

    Structural tree-ness is enforced here; the decomposition conditions are
    checked separately by vcew.treewidth.validate_decomposition.
    """
    header = None
    bags: dict[int, frozenset[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    for lineno, parts in _tokens(text):
        if parts[0] == "s":
            if header is not None:
                raise ParseError("duplicate 's td' header", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError("expected header 's td <bags> <maxbagsize> <n>'", lineno)
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise ParseError("non-integer counts in header", lineno) from None
            continue
        if header is None:
            raise ParseError("content before 's td' header", lineno)
        num_bags, _, n = header
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError("bag line needs an id", lineno)
            try:
                bag_id = int(parts[1])
                vertices = [int(tok) for tok in parts[2:]]
            except ValueError:
                raise ParseError("non-integer token in bag line", lineno) from None
            if not (1 <= bag_id <= num_bags):
                raise ParseError(f"bag id {bag_id} out of range 1..{num_bags}", lineno)
            if bag_id in bags:
                raise ParseError(f"duplicate bag {bag_id}", lineno)
            if any(not (1 <= v <= n) for v in vertices):
                raise ParseError(f"bag vertex out of range 1..{n}", lineno)
            bags[bag_id] = frozenset(v - 1 for v in vertices)
        else:
            if len(parts) != 2:
                raise ParseError("expected tree edge 'i j'", lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("non-integer bag id in tree edge", lineno) from None
            if not (1 <= a <= num_bags and 1 <= b <= num_bags):
                raise ParseError("unknown bag id in tree edge", lineno)
            tree_edges.append((a - 1, b - 1))
    if header is None:
        raise ParseError("missing 's td' header")
    num_bags = header[0]
    if num_bags == 0:
        raise ParseError("decomposition needs at least one bag")
    bag_list = [bags.get(i + 1, frozenset()) for i in range(num_bags)]
    if len(tree_edges) != num_bags - 1:
        raise ParseError(f"{num_bags} bags need {num_bags - 1} tree edges, got {len(tree_edges)}")
    # Orient the tree away from the root (bag 1) and reject cycles.
    adjacency: list[list[int]] = [[] for _ in range(num_bags)]
    for a, b in tree_edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent = [-2] * num_bags
    parent[0] = -1
    stack = [0]
    order = 0
    while stack:
        node = stack.pop()
        order += 1
        for nbr in adjacency[node]:
            if parent[nbr] == -2:
                parent[nbr] = node
                stack.append(nbr)
    if order != num_bags:
        raise ParseError("tree edges do not connect all bags")
    return TreeDecomposition(bags=tuple(bag_list), parent=tuple(parent), root=0)


def emit_td(td: TreeDecomposition) -> str:
    num_bags = len(td.bags)
    max_bag = max((len(b) for b in td.bags), default=0)
    n = max((v for bag in td.bags for v in bag), default=-1) + 1
    lines = [f"s td {num_bags} {max_bag} {n}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    for i, p in enumerate(td.parent):
        if p >= 0:
            lines.append(f"{p + 1} {i + 1}")
    return "\n".join(lines) + "\n"


def parse_listcoloring(text: str) -> ListColoringInstance:
    n = m = None
    edges: list[Edge] = []
    lists: dict[int, list[int]] = {}
    for lineno, parts in _tokens(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "lc":
                raise ParseError("expected header 'p lc <n> <m>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer counts in header", lineno) from None
            continue
        if n is None:
            raise ParseError("content before header", lineno)
        if parts[0] == "l":
            if len(parts) < 3:
                raise ParseError("empty color list", lineno)
            try:
                v = int(parts[1])
                colors = [int(tok) for tok in parts[2:]]
            except ValueError:
                raise ParseError("non-integer token in list line", lineno) from None
            if not (1 <= v <= n):
                raise ParseError(f"vertex out of range 1..{n}", lineno)
            if v - 1 in lists:
                raise ParseError(f"duplicate list for vertex {v}", lineno)
            if any(c < 1 for c in colors):
                raise ParseError("colors must be positive", lineno)
            lists[v - 1] = colors
        else:
            if len(parts) != 2:
                raise ParseError("expected edge 'u v'", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("non-integer vertex id", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ParseError("bad edge", lineno)
            edges.append(edge_key(u - 1, v - 1))
    if n is None:
        raise ParseError("missing 'p lc' header")
    if m != len(edges):
        raise ParseError(f"header declares {m} edges but {len(edges)} were given")
    missing = [v for v in range(n) if v not in lists]
    if missing:
        raise ParseError(f"vertex {missing[0] + 1} has no color list")
    return ListColoringInstance.build(Graph.build(n, edges), [lists[v] for v in range(n)])


def emit_listcoloring(inst: ListColoringInstance) -> str:
    g = inst.graph
    lines = [f"p lc {g.vertex_count} {len(g.edges)}"]
    for u, v in g.edges:
        lines.append(f"{u + 1} {v + 1}")
    for v in range(g.vertex_count):
        lines.append(" ".join(["l", str(v + 1)] + [str(c) for c in inst.lists[v]]))
    return "\n".join(lines) + "\n"


def emit_result(record: ResultRecord) -> str:
    """Canonical single-line JSON; witnesses are 1-indexed on the wire."""
    payload: dict = {
        "status": record.status,
        "algorithm": record.algorithm,
        "verified": record.verified,
    }
    if record.witness is not None:
        payload["witness"] = [[u + 1, v + 1, w] for u, v, w in record.witness]
    if record.colors is not None:
        payload["colors"] = list(record.colors)
    payload["stats"] = dict(sorted(record.stats.items()))
    return json.dumps(payload, separators=(",", ":")) + "\n"


def parse_result(text: str) -> ResultRecord:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad result JSON: {exc}") from None
    witness = payload.get("witness")
    if witness is not None:
        witness = tuple((u - 1, v - 1, w) for u, v, w in witness)
    colors = payload.get("colors")
    if colors is not None:
        colors = tuple(colors)
    return ResultRecord(
        status=payload["status"],
        algorithm=payload["algorithm"],
        verified=payload["verified"],
        witness=witness,
        colors=colors,
        stats=dict(payload.get("stats", {})),
    )


def witness_from_assignment(g: Graph, w: WeightAssignment) -> tuple[tuple[int, int, int], ...]:
    return tuple((u, v, w[(u, v)]) for u, v in g.edges)


def assignment_from_witness(witness) -> WeightAssignment:
    return {edge_key(u, v): weight for u, v, weight in witness}


def parse_weights(text: str, g: Graph) -> WeightAssignment:
    """Parse a 'u v w' certificate file (1-indexed) covering every edge."""
    w: WeightAssignment = {}
    for lineno, parts in _tokens(text):
        if len(parts) != 3:
            raise ParseError("expected 'u v w'", lineno)
        try:
            u, v, value = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("non-integer token", lineno) from None
        if value not in (0, 1):
            raise ParseError("weight not in {0, 1}", lineno)
        if not (1 <= u <= g.vertex_count and 1 <= v <= g.vertex_count):
            raise ParseError("vertex out of range", lineno)
        e = edge_key(u - 1, v - 1)
        if e not in g.edge_index:
            raise ParseError(f"edge {u} {v} not in the graph", lineno)
        if e in w:
            raise ParseError(f"duplicate weight for edge {u} {v}", lineno)
        w[e] = value
    missing = [e for e in g.edges if e not in w]
    if missing:
        u, v = missing[0]
        raise ParseError(f"no weight given for edge {u + 1} {v + 1}")
    return w


def emit_weights(g: Graph, w: WeightAssignment) -> str:
    return "".join(f"{u + 1} {v + 1} {w[(u, v)]}\n" for u, v in g.edges)
