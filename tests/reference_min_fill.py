"""The min-fill elimination of ``vcew.treewidth.compute_decomposition``
before it stopped re-sorting the remaining vertices at every step, kept
verbatim as the reference of the equality tests in test_treewidth.py: the
new loop must return an equal decomposition, with ties going to the
smallest vertex id and the same fill count.
"""

from vcew.graph import Graph
from vcew.treewidth import TreeDecomposition


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
