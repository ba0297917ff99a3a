import random
from dataclasses import replace

import pytest

from vcew import oracle
from vcew.errors import ContractViolationError
from vcew.generators import planted_twin_graph
from vcew.graph import Graph, induced_colors, is_proper
from vcew.vertex_cover import (
    _assert_kernel_bounds,
    class_cap,
    color_budget,
    cover_within,
    edge_budget,
    exact_vertex_cover,
    export_kernel_mapping,
    kernelize,
    lift,
    maximal_matching_cover,
    minimum_vertex_cover,
    solve_kernel,
    solve_vc,
)
from tests.conftest import random_small_graph


def is_cover(g, cover):
    return all(u in cover or v in cover for u, v in g.edges)


def test_matching_cover_examples():
    assert maximal_matching_cover(Graph.build(3, [])) == ()
    assert maximal_matching_cover(Graph.build(2, [(0, 1)])) == (0, 1)
    star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
    assert maximal_matching_cover(star) == (0, 1)


def test_matching_cover_is_within_factor_two():
    rng = random.Random(1)
    for _ in range(60):
        g = random_small_graph(rng, max_n=8)
        cover = maximal_matching_cover(g)
        assert is_cover(g, set(cover))
        _, opt = minimum_vertex_cover(g)
        assert len(cover) <= 2 * opt


def test_exact_cover_examples():
    c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cover = exact_vertex_cover(c4, 2)
    assert cover is not None and len(cover) <= 2 and is_cover(c4, cover)
    c3 = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    assert exact_vertex_cover(c3, 1) is None
    assert exact_vertex_cover(Graph.build(3, []), 0) == frozenset()


def test_budget_formulas():
    assert color_budget(1) == 16
    assert color_budget(2) == 48
    assert edge_budget(1) == 16
    assert edge_budget(2) == 96
    assert class_cap(2) == 193


def test_kernelize_truncates_big_class():
    g = planted_twin_graph(2, [500], seed=1, full_sig=True)
    kernel = kernelize(g)
    assert kernel.k_matching == 2
    assert kernel.cap == 193
    assert max(kernel.class_sizes_after) == 193
    assert not kernel.identity
    limit = 2 * kernel.k_matching + 4**kernel.k_matching * kernel.cap
    assert kernel.graph.vertex_count <= limit


def test_kernelize_identity_when_small():
    g = planted_twin_graph(2, [5], seed=2, full_sig=True)
    kernel = kernelize(g)
    assert kernel.identity
    assert kernel.graph.vertex_count == g.vertex_count
    assert kernel.graph.edges == g.edges


def test_kernel_mapping_sidecar():
    g = planted_twin_graph(1, [40], seed=3, full_sig=True)
    kernel = kernelize(g)
    lines = export_kernel_mapping(kernel).splitlines()
    assert len(lines) == kernel.graph.vertex_count
    assert lines[0].split() == ["1", "1"]


def test_kernel_preserves_decision_planted():
    rng = random.Random(7)
    for trial in range(60):
        k = rng.randint(1, 2)
        sizes = [rng.randint(1, 9) for _ in range(rng.randint(1, 2))]
        g = planted_twin_graph(k, sizes, seed=100 + trial, cover_edge_p=0.4, max_edges=24)
        if g.vertex_count > 12:
            continue
        kernel = kernelize(g)
        a = oracle.solve_exhaustive(g) is not None
        b = oracle.solve_exhaustive(kernel.graph) is not None
        assert a == b


def test_lift_identity_kernel():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    kernel = kernelize(g)
    assert kernel.identity
    w = oracle.solve_exhaustive(kernel.graph)
    assert lift(g, kernel, w) == w


def test_lift_rejects_improper():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    kernel = kernelize(g)
    with pytest.raises(ContractViolationError):
        lift(g, kernel, {e: 0 for e in kernel.graph.edges})


def test_lift_gives_removed_vertices_color_zero():
    # k=1 cap is 33: 40 twins force a real truncation; the kernel still has
    # 34 free edges, so the budgeted search needs one extra cutoff bit
    g = planted_twin_graph(1, [40], seed=5, full_sig=True)
    kernel = kernelize(g)
    assert kernel.removed
    w_kernel = solve_kernel(kernel, 1, cutoff=34)
    assert w_kernel is not None
    w = lift(g, kernel, w_kernel)
    assert is_proper(g, w)
    colors = induced_colors(g, w)
    for v in kernel.removed:
        assert colors[v] == 0
        assert all(colors[u] != 0 for u in g.neighbors(v))
    # decision survives truncation: the original solves too (raised cutoff)
    assert oracle.solve_exhaustive(g, cutoff=len(g.edges)) is not None


def test_pipeline_matches_oracle_small():
    rng = random.Random(11)
    for _ in range(120):
        g = random_small_graph(rng, max_n=7)
        a = solve_vc(g)
        b = oracle.solve_exhaustive(g)
        assert (a is None) == (b is None)
        if a is not None:
            assert is_proper(g, a)


def test_pipeline_rejects_wrong_k():
    c3 = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        solve_vc(c3, k=1)


def test_cover_within():
    c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for k in (2, 3):
        cover = cover_within(c4, k)
        assert is_cover(c4, cover) and len(cover) <= k
    with pytest.raises(ValueError, match="no vertex cover of size <= 1"):
        cover_within(c4, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        cover_within(c4, -1)


def test_solve_kernel_budget_is_a_ceiling():
    # a witness within budget is found; an override below the needed ones count hides it
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    kernel = kernelize(g)
    _, k = minimum_vertex_cover(g)
    assert solve_kernel(kernel, k) is not None
    assert solve_kernel(kernel, k, budget_override=0) is None


def test_kernel_bound_violations_raise_contract_error():
    # K_{1,5}: matching cover {0, 1}, k = 1, one class of four leaves, six vertices
    kernel = kernelize(Graph.build(6, [(0, v) for v in range(1, 6)]))
    assert (kernel.k_matching, kernel.class_sizes_after, kernel.graph.vertex_count) == (1, (4,), 6)
    _assert_kernel_bounds(kernel)
    for broken, message in (
        (replace(kernel, class_sizes_before=(1,) * 5), "class count"),
        (replace(kernel, cap=3), "class size"),
        (replace(kernel, k_matching=0, cap=4), "vertices"),
    ):
        with pytest.raises(ContractViolationError, match=message):
            _assert_kernel_bounds(broken)
