"""Every exact route against the brute-force reference, on graphs that
hypothesis draws.

The draws are derandomized (every run sees the same cases, and no example
database is kept) and cover n = 0, isolated vertices and four pre-weightings:
none, every edge, some edges with 0 or 1, and some edges with 1.  The
reference enumerates all 2^F completions of the F free edges, so a graph
keeps at most 12 edges.  Each draw also runs both search kernels, the
Python one and the compiled one, on the oracle's prepared instance, and
the MILP reference on draws of at most 10 edges (it slows past that).
Graphs that small never reach a reduction rule, so stars of 18-40 leaves
check the two reductions against the DP: the prewt rule strips edges once
more than 17 leaves are unweighted, and the kernel drops leaves once more
than 33 share the centre.
"""

import itertools
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcew import _search_py, oracle
from vcew.graph import Graph, extends, is_proper
from vcew.preweight import apply_reduction, solve_prewt
from vcew.treewidth import compute_decomposition, dp_solve, exists_with_color_bound
from vcew.vertex_cover import kernelize, lift, minimum_vertex_cover, solve_vc
from tests.conftest import brute_force_solve
from tests.milp_reference import milp_solve

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

P3 = Graph.build(3, [(0, 1), (1, 2)])
C4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@st.composite
def instances(draw):
    """(graph, pre-weights) with n <= 7 and at most 12 edges."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    g = Graph.build(n, edges)
    kind = draw(st.sampled_from(["none", "every edge", "mixed", "ones"]))
    if kind == "none":
        return g, {}
    if kind == "every edge":
        return g, {e: draw(st.integers(0, 1)) for e in g.edges}
    chosen = [e for e in g.edges if draw(st.booleans())]
    return g, {e: draw(st.integers(0, 1)) if kind == "mixed" else 1 for e in chosen}


def _check_witness(g, pre, w):
    assert is_proper(g, w) and extends(w, pre) and set(w) == set(g.edges)


@DRAWS
@given(instances())
@example((Graph.build(0, []), {}))
@example((Graph.build(5, [(0, 1), (1, 2)]), {}))  # two isolated vertices
@example((C4, {(0, 1): 1, (1, 2): 1, (2, 3): 0, (0, 3): 0}))  # every edge pre-weighted
@example((C4, {(0, 1): 1, (2, 3): 0}))  # mixed
@example((P3, {(0, 1): 1}))  # all ones
def test_routes_agree_with_brute_force(compiled_kernel, instance):
    g, pre = instance
    first, _ = brute_force_solve(g, pre)
    assert oracle.solve_exhaustive(g, pre) == first
    inst = oracle._prepare(g, pre)
    assert compiled_kernel.solve_ones(inst, len(inst.free)) == _search_py.solve_ones(inst, len(inst.free))
    answers = {"dp": dp_solve(g, compute_decomposition(g), pre)}
    if len(g.edges) <= 10:
        answers["milp"] = milp_solve(g.vertex_count, g.edges, pre)
    if not pre:
        answers["vc"] = solve_vc(g)
    if all(pre.values()):  # all-ones, or none
        answers["prewt"] = solve_prewt(g, pre, minimum_vertex_cover(g)[1])
    for route, w in answers.items():
        assert (w is None) == (first is None), route
        if w is not None:
            _check_witness(g, pre, w)
    if first is not None:
        _check_witness(g, pre, first)


def _bounded_exists(g, pre, ceiling):
    """Whether some proper completion keeps colour(v) <= ceiling[v]: every
    completion of the free edges, no pruning."""
    free = [e for e in g.edges if e not in pre]
    for bits in itertools.product([0, 1], repeat=len(free)):
        colors = [0] * g.vertex_count
        for (u, v), value in itertools.chain(pre.items(), zip(free, bits)):
            colors[u] += value
            colors[v] += value
        if all(colors[u] != colors[v] for u, v in g.edges) and all(c <= b for c, b in zip(colors, ceiling)):
            return True
    return False


@DRAWS
@given(instances(), st.data())
def test_color_bound_agrees_with_brute_force(instance, data):
    g, pre = instance
    gain = data.draw(st.integers(-1, 5))
    lo = [sum(pre.get(e, 0) for e in g.edges if v in e) for v in range(g.vertex_count)]
    assert exists_with_color_bound(g, pre, gain) == _bounded_exists(g, pre, [c + gain for c in lo])


@st.composite
def stars(draw):
    """A star of 18-40 leaves with all-ones pre-weights on some of its edges."""
    leaves = draw(st.integers(18, 40))
    g = Graph.build(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    return g, {e: 1 for e in g.edges if draw(st.booleans())}


def _dp(g, pre=None):
    return dp_solve(g, compute_decomposition(g), pre)


def test_reductions_agree_on_stars():
    reached = Counter()

    @settings(DRAWS, max_examples=40)
    @given(stars())
    def check(instance):
        g, pre = instance
        _, k = minimum_vertex_cover(g)
        reached["rule deletions"] += bool(apply_reduction(g, pre, k).deletions)
        w = solve_prewt(g, pre, k)
        assert (w is None) == (_dp(g, pre) is None)
        if len(g.edges) - len(pre) <= 24:
            assert (w is None) == (oracle.solve_exhaustive(g, pre) is None)
        if w is not None:
            _check_witness(g, pre, w)
        kernel = kernelize(g)
        reached["kernel removals"] += bool(kernel.removed)
        w_kernel = _dp(kernel.graph)
        assert (w_kernel is None) == (_dp(g) is None)
        if w_kernel is not None:
            assert is_proper(g, lift(g, kernel, w_kernel))

    check()
    assert reached["rule deletions"] and reached["kernel removals"], reached
