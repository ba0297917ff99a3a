import itertools
import random
import shutil
import subprocess
from pathlib import Path

import pytest

from vcew import _search_c, oracle
from vcew.graph import Graph


def brute_force_solve(g: Graph, pre=None):
    """Independent reference: plain product enumeration, no pruning.

    Kept deliberately simple so oracle tests do not lean on the code they
    check.  Returns (first proper assignment in the oracle's documented
    order, count of proper assignments).
    """
    pre = pre or {}
    free = [e for e in g.edges if e not in pre]
    first = None
    count = 0
    candidates = sorted(
        itertools.product([0, 1], repeat=len(free)),
        key=lambda bits: (sum(bits), tuple(i for i, b in enumerate(bits) if b)),
    )
    for bits in candidates:
        w = dict(pre)
        w.update(zip(free, bits))
        colors = [0] * g.vertex_count
        for (u, v), value in w.items():
            if value:
                colors[u] += 1
                colors[v] += 1
        if all(colors[u] != colors[v] for u, v in g.edges):
            count += 1
            if first is None:
                first = w
    return first, count


def random_small_graph(rng: random.Random, max_n: int = 7, p: float | None = None) -> Graph:
    n = rng.randint(1, max_n)
    p = p if p is not None else rng.choice([0.25, 0.4, 0.55])
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.build(n, edges)


@pytest.fixture(scope="session")
def atlas():
    """Connected graphs on at most 7 vertices, one per isomorphism class."""
    networkx = pytest.importorskip("networkx")
    graphs: list[Graph] = []
    for G in networkx.graph_atlas_g():
        n = G.number_of_nodes()
        if n < 1 or n > 7:
            continue
        if n > 1 and not networkx.is_connected(G):
            continue
        mapping = {node: i for i, node in enumerate(sorted(G.nodes()))}
        graphs.append(Graph.build(n, [(mapping[u], mapping[v]) for u, v in G.edges()]))
    assert len(graphs) == 996
    return graphs


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The C search kernel, compiled from the package source into a temporary
    directory and loaded, whether or not a built library sits in the package."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    source = Path(oracle.__file__).with_name("_search.c")
    library = tmp_path_factory.mktemp("kernel") / "_search.so"
    subprocess.run(["cc", "-O2", "-std=c99", "-shared", "-fPIC", "-o", str(library), str(source)], check=True)
    return _search_c.load(library)
