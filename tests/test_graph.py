import random

import pytest

from vcew.errors import ValidationError
from vcew.graph import (
    Graph,
    GraphBuilder,
    find_conflicts,
    from_subgraph,
    induced_colors,
    is_proper,
    isolated_edges,
    solution_subgraph,
    validate_assignment,
    validate_partial,
)
from vcew.listcolor import ListColoringInstance
from tests.conftest import random_small_graph

P3 = Graph.build(3, [(0, 1), (1, 2)])
K2 = Graph.build(2, [(0, 1)])
C3 = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def all_assignments(g):
    import itertools

    for bits in itertools.product([0, 1], repeat=len(g.edges)):
        yield dict(zip(g.edges, bits))


def test_build_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Graph.build(2, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph.build(2, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        Graph.build(2, [(0, 2)])


@pytest.mark.parametrize(
    "n, edges, message",
    [
        # the first duplicate in input order, not in sorted order
        (7, [(5, 6), (1, 2), (6, 5), (2, 1)], "duplicate edge (5, 6)"),
        # a duplicate, a self-loop and an out-of-range edge: the first one wins
        (3, [(0, 1), (1, 0), (2, 2)], "duplicate edge (0, 1)"),
        (3, [(2, 2), (0, 1), (1, 0)], "self-loop at vertex 2"),
        (3, [(0, 1), (5, 0), (1, 0)], "edge (5, 0) out of range [0, 3)"),
        (3, [(1, 2), (0, -1)], "edge (0, -1) out of range [0, 3)"),
        (3, [(4, 4)], "self-loop at vertex 4"),
    ],
)
def test_build_reports_first_bad_edge_in_input_order(n, edges, message):
    with pytest.raises(ValidationError) as info:
        Graph.build(n, edges)
    assert str(info.value) == message
    with pytest.raises(ValidationError) as info:
        Graph.build(n, iter(edges))
    assert str(info.value) == message


def test_adjacency_matches_sorted_reference():
    rng = random.Random(11)
    for trial in range(300):
        n = trial % 9  # n = 0 included; sparse draws leave isolated vertices
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(given)
        g = Graph.build(n, given)
        assert g.edges == tuple(sorted(pairs))
        reference = [sorted({v for e in pairs if x in e for v in e} - {x}) for x in range(n)]
        assert g.adjacency == tuple(tuple(nbrs) for nbrs in reference)
        for x in range(n):
            assert g.neighbors(x) == tuple(reference[x])
            assert g.degree(x) == len(reference[x])
        assert g.max_degree() == max(map(len, reference), default=0)


def test_equal_edge_sets_build_equal_graphs():
    rng = random.Random(12)
    for _ in range(50):
        g = random_small_graph(rng)
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(given)
        h = Graph.build(g.vertex_count, given)
        # the cached adjacency must not take part in equality or hashing
        assert len(g.adjacency) == g.vertex_count
        assert h == g and hash(h) == hash(g)
    # edges given as lists are stored as canonical tuples
    assert Graph.build(3, [[0, 1], [2, 1]]) == Graph.build(3, [(0, 1), (1, 2)])
    assert Graph.build(3, [(0, 1)]) != Graph.build(3, [(1, 2)])
    assert Graph.build(3, [(0, 1)]) != Graph.build(4, [(0, 1)])


@pytest.mark.parametrize(
    "check,message",
    [
        (lambda: Graph.build(-1, []), "vertex count must be nonnegative"),
        (lambda: validate_assignment(P3, {(0, 1): 1}), "assignment missing weight for edge (1, 2)"),
        (lambda: validate_assignment(K2, {(0, 1): 1, (1, 2): 0}), "assignment has weights for edges not in the graph"),
        (lambda: validate_assignment(P3, {(0, 1): 1, (0, 2): 0}), "assignment weights unknown edge (0, 2)"),
        (lambda: validate_assignment(K2, {(0, 1): 2}), "weight 2 for edge (0, 1) not in {0, 1}"),
        (lambda: validate_partial(P3, {(0, 2): 1}), "pre-weighted edge (0, 2) not in the graph"),
        (lambda: validate_partial(P3, {(1, 2): 2}), "pre-weight 2 for edge (1, 2) not in {0, 1}"),
        (lambda: ListColoringInstance.build(P3, [[2], [3]]), "one color list required per vertex"),
        (lambda: ListColoringInstance.build(P3, [[2], [], [3]]), "vertex 1 has an empty color list"),
    ],
)
def test_validation_rejections(check, message):
    with pytest.raises(ValidationError) as info:
        check()
    assert str(info.value) == message


def test_graph_builder_rejects_bad_edges():
    # a duplicate, a self-loop and an out-of-range edge each fail by build()
    for bad in ((1, 0), (1, 1), (0, 2)):
        b = GraphBuilder(2)
        b.add_edge(0, 1)
        with pytest.raises(ValidationError):
            b.add_edge(*bad)
            b.build()


def test_induced_colors_path():
    w = {(0, 1): 1, (1, 2): 1}
    assert induced_colors(P3, w) == [1, 2, 1]


def test_induced_colors_all_zero():
    w = {e: 0 for e in C4.edges}
    assert induced_colors(C4, w) == [0, 0, 0, 0]


def test_induced_colors_star():
    star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
    w = {e: 1 for e in star.edges}
    assert induced_colors(star, w) == [3, 1, 1, 1]


def test_induced_colors_rejects_partial():
    with pytest.raises(ValidationError):
        induced_colors(P3, {(0, 1): 1})


def test_triangle_always_conflicts():
    for w in all_assignments(C3):
        assert find_conflicts(C3, w)


def test_path_11_has_no_conflicts():
    assert find_conflicts(P3, {(0, 1): 1, (1, 2): 1}) == []


def test_single_edge_always_conflicts():
    for w in all_assignments(K2):
        assert find_conflicts(K2, w) == [(0, 1)]
        assert not is_proper(K2, w)


def test_c4_proper_example():
    w = {(0, 1): 1, (1, 2): 1, (2, 3): 0, (0, 3): 0}
    assert is_proper(C4, w)
    assert induced_colors(C4, w) == [1, 2, 1, 0]


def test_solution_subgraph_views():
    assert solution_subgraph(C4, {e: 0 for e in C4.edges}) == frozenset()
    w = {(0, 1): 1, (1, 2): 1}
    assert solution_subgraph(P3, w) == {(0, 1), (1, 2)}
    w4 = {(0, 1): 1, (1, 2): 1, (2, 3): 0, (0, 3): 0}
    assert solution_subgraph(C4, w4) == {(0, 1), (1, 2)}


def test_from_subgraph_examples():
    assert from_subgraph(C4, []) == {e: 0 for e in C4.edges}
    assert from_subgraph(C4, C4.edges) == {e: 1 for e in C4.edges}
    with pytest.raises(ValidationError):
        from_subgraph(P3, [(0, 2)])


def test_subgraph_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        g = random_small_graph(rng)
        w = {e: rng.randint(0, 1) for e in g.edges}
        assert from_subgraph(g, solution_subgraph(g, w)) == w
        h = frozenset(e for e in g.edges if rng.random() < 0.5)
        assert solution_subgraph(g, from_subgraph(g, h)) == h


def test_proper_iff_distinct_subgraph_degrees():
    rng = random.Random(2)
    for _ in range(150):
        g = random_small_graph(rng, max_n=10)
        w = {e: rng.randint(0, 1) for e in g.edges}
        h = solution_subgraph(g, w)
        deg = [0] * g.vertex_count
        for u, v in h:
            deg[u] += 1
            deg[v] += 1
        assert is_proper(g, w) == all(deg[u] != deg[v] for u, v in g.edges)


def test_colors_bounded_by_degree():
    rng = random.Random(3)
    for _ in range(100):
        g = random_small_graph(rng)
        w = {e: rng.randint(0, 1) for e in g.edges}
        colors = induced_colors(g, w)
        for v in range(g.vertex_count):
            assert 0 <= colors[v] <= g.degree(v)
            if colors[v] == g.degree(v) and g.degree(v) > 0:
                assert all(w[e] for e in g.edges if v in e)


def test_isolated_edges():
    assert isolated_edges(K2) == [(0, 1)]
    assert isolated_edges(P3) == []
    both = Graph.build(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)])
    assert isolated_edges(both) == [(0, 1)]
