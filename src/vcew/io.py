"""Parsers and emitters for the on-disk formats.

Vertices are 1-indexed on the wire and shifted to dense 0-indexed ids at
this boundary.  Formats:

* ``.gr``: ``c`` comments, header ``p vcew <n> <m>``, then m edge lines
  ``u v`` with an optional third token in {0, 1} for a pre-weight.
* ``.td`` (PACE style): header ``s td <bags> <maxbagsize> <n>``, bag lines
  ``b <id> v1 v2 ...``, then tree edge lines ``i j``.  Bag 1 is the root.
* ``.lc``: header ``p lc <n> <m>``, m edge lines, then one list line
  ``l <v> c1 c2 ...`` per vertex.
* weights: one ``u v w`` line per edge of a given graph, w in {0, 1}.
* results: canonical JSON text with a stable key order.

The three headers share one reader (`_header`): a second header, a wrong
shape, non-integer counts and negative counts are rejected.  The vertex
pairs of ``.gr``, ``.lc`` and weights lines share another (`_edge`): both
ids are integers in 1..n, distinct, and the pair is not a repeat.  Each of
these rejections is a ParseError that names the line and the ids as
written, 1-indexed.

Large files are formatted as they are written: `graph_chunks` (like
`vcew.reduction.role_chunks` and `dot_chunks`) yields the text in blocks
of BLOCK lines, which `write_chunks` writes one at a time, so that no
file's whole text is held at once.

`emit_td`, `emit_listcoloring`, `emit_weights`, `parse_result` and
`assignment_from_witness` have no caller in the package.  They are kept as
the inverses of the formats the CLI reads (``.td``, ``.lc``, weights) and
writes (results), each with a round-trip test in tests/test_io.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

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

BLOCK = 4096  # lines per block of a file written by write_chunks


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


def _ints(tokens, lineno: int, what: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ParseError(f"non-integer {what}", lineno) from None


def _header(parts: list[str], lineno: int, known: bool, expected: str) -> list[int]:
    """The counts of a header line shaped like `expected`, e.g. 'p vcew <n> <m>'."""
    if known:
        raise ParseError("duplicate header", lineno)
    shape = expected.split()
    if len(parts) != len(shape) or parts[1] != shape[1]:
        raise ParseError(f"expected header '{expected}'", lineno)
    counts = _ints(parts[2:], lineno, "counts in header")
    if any(c < 0 for c in counts):
        raise ParseError("negative counts in header", lineno)
    return counts


def _edge(parts: list[str], lineno: int, n: int, seen) -> Edge:
    """The canonical 0-indexed edge of the 1-indexed pair parts[0], parts[1],
    which must name two distinct vertices in 1..n and not be in `seen`."""
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("non-integer vertex id", lineno) from None
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(f"vertex out of range 1..{n}", lineno)
    if u == v:
        raise ParseError("self-loop", lineno)
    e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
    if e in seen:
        raise ParseError(f"duplicate edge {u} {v}", lineno)
    return e


def parse_graph(text: str) -> tuple[Graph, PartialWeightAssignment]:
    """Parse a .gr instance; pre-weighted edges go into the partial map."""
    n = m = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    pre: PartialWeightAssignment = {}
    for lineno, parts in _tokens(text):
        if parts[0] == "p":
            n, m = _header(parts, lineno, n is not None, "p vcew <n> <m>")
            continue
        if n is None:
            raise ParseError("edge line before header", lineno)
        if len(parts) not in (2, 3):
            raise ParseError("expected 'u v' or 'u v w'", lineno)
        e = _edge(parts, lineno, n, seen)
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


def graph_chunks(g: Graph, pre: PartialWeightAssignment | None = None) -> Iterator[str]:
    """The .gr text of g: the header line, then the edge lines in blocks of
    BLOCK, each line newline-terminated."""
    pre = pre or {}
    edges = g.edges
    yield f"p vcew {g.vertex_count} {len(edges)}\n"
    ids = [str(v) for v in range(1, g.vertex_count + 1)]
    for start in range(0, len(edges), BLOCK):
        block = edges[start:start + BLOCK]
        if pre:
            yield "".join([
                f"{ids[u]} {ids[v]} {pre[u, v]}\n" if (u, v) in pre else f"{ids[u]} {ids[v]}\n"
                for u, v in block
            ])
        else:
            yield "".join([f"{ids[u]} {ids[v]}\n" for u, v in block])


def emit_graph(g: Graph, pre: PartialWeightAssignment | None = None) -> str:
    """The .gr text of g (see graph_chunks)."""
    return "".join(graph_chunks(g, pre))


def write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write a file's text block by block, so that only one block of it is
    held at a time."""
    with open(path, "w") as fh:
        fh.writelines(chunks)


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
            header = _header(parts, lineno, header is not None, "s td <bags> <maxbagsize> <n>")
            continue
        if header is None:
            raise ParseError("content before 's td' header", lineno)
        num_bags, _, n = header
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError("bag line needs an id", lineno)
            bag_id, *vertices = _ints(parts[1:], lineno, "token in bag line")
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
            a, b = _ints(parts, lineno, "bag id in tree edge")
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
    seen: set[Edge] = set()
    lists: dict[int, list[int]] = {}
    for lineno, parts in _tokens(text):
        if parts[0] == "p":
            n, m = _header(parts, lineno, n is not None, "p lc <n> <m>")
            continue
        if n is None:
            raise ParseError("content before header", lineno)
        if parts[0] == "l":
            if len(parts) < 3:
                raise ParseError("empty color list", lineno)
            v, *colors = _ints(parts[1:], lineno, "token in list line")
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
            e = _edge(parts, lineno, n, seen)
            seen.add(e)
            edges.append(e)
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
        e = _edge(parts, lineno, g.vertex_count, w)
        if e not in g.edge_index:
            raise ParseError(f"edge {parts[0]} {parts[1]} not in the graph", lineno)
        (value,) = _ints(parts[2:], lineno, "weight")
        if value not in (0, 1):
            raise ParseError("weight not in {0, 1}", lineno)
        w[e] = value
    missing = [e for e in g.edges if e not in w]
    if missing:
        u, v = missing[0]
        raise ParseError(f"no weight given for edge {u + 1} {v + 1}")
    return w


def emit_weights(g: Graph, w: WeightAssignment) -> str:
    return "".join(f"{u + 1} {v + 1} {w[(u, v)]}\n" for u, v in g.edges)
