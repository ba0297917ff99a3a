import hashlib
import json
import random
import tracemalloc
from dataclasses import replace
from itertools import islice

import pytest

from vcew import cli, io, oracle, preweight, vertex_cover
from vcew.errors import CapacityError, ContractViolationError
from vcew.generators import planted_twin_graph, random_graph
from vcew.graph import Graph, edge_key, extends, induced_colors, is_proper
from vcew.vertex_cover import (
    Kernel,
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


def reference_exact_vertex_cover(g, k):
    """A copy of the recursive branch-on-edge search that the iterative
    search replaced, kept as the reference whose covers it must return."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    taken: set[int] = set()

    def uncovered_edge():
        for u, v in g.edges:
            if u not in taken and v not in taken:
                return (u, v)
        return None

    def branch(budget: int) -> bool:
        e = uncovered_edge()
        if e is None:
            return True
        if budget == 0:
            return False
        for pick in e:
            taken.add(pick)
            if branch(budget - 1):
                return True
            taken.remove(pick)
        return False

    if branch(k):
        return frozenset(taken)
    return None


def test_exact_cover_matches_reference_search():
    # every k from 0 to the first success, so that failing searches, which
    # the matching bound cuts short, are compared too
    queries = 0

    def compare(seed, g):
        nonlocal queries
        for k in range(g.vertex_count + 1):
            want = reference_exact_vertex_cover(g, k)
            assert exact_vertex_cover(g, k) == want, (seed, k)
            queries += 1
            if want is not None:
                break

    for seed in range(1200):
        rng = random.Random(seed)
        n = rng.randint(0, 20)
        g, _ = random_graph(n, rng.choice((0.1, 0.15, 0.2, 0.25, 0.3)), seed)
        compare(seed, g)
        # and a budget with room to spare above the cover number
        assert exact_vertex_cover(g, n) == reference_exact_vertex_cover(g, n), seed
    # denser draws, where a matching that fills the budget often has an
    # edge on a triangle or an augmenting path, which cuts the node
    for seed in range(1200, 1600):
        rng = random.Random(seed)
        g, _ = random_graph(rng.randint(0, 12), rng.choice((0.4, 0.45, 0.5, 0.55, 0.6)), seed)
        compare(seed, g)
    assert queries > 7000


def test_large_star_with_centre_last():
    # the cover vertex has the highest id, so every edge's larger end is
    # the same vertex: the search needs one flag per vertex, no structure
    # whose size grows with the vertex ids of each edge
    n = 100_000
    g = Graph.build(n, [(v, n - 1) for v in range(n - 1)])
    tracemalloc.start()
    try:
        assert exact_vertex_cover(g, 0) is None
        assert exact_vertex_cover(g, 1) == frozenset({n - 1})
        spare = exact_vertex_cover(g, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n, peak
    # depth first takes leaves 0..3 before the centre
    assert spare == reference_exact_vertex_cover(g, 5) == frozenset({0, 1, 2, 3, n - 1})


def test_exact_cover_results_are_kept_per_graph(monkeypatch):
    searches = []
    search = vertex_cover._search
    monkeypatch.setattr(vertex_cover, "_search", lambda g, k: searches.append((id(g), k)) or search(g, k))
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    g, twin = Graph.build(4, edges), Graph.build(4, edges)
    assert g == twin and g is not twin
    cover = exact_vertex_cover(g, 2)
    assert cover == frozenset({0, 2})
    # an equal graph built separately runs its own search
    assert exact_vertex_cover(twin, 2) == cover
    # a repeat (graph, budget) is answered without searching
    assert exact_vertex_cover(g, 2) == cover
    assert exact_vertex_cover(g, 1) is None and exact_vertex_cover(g, 1) is None
    assert searches == [(id(g), 2), (id(twin), 2), (id(g), 1)]


def prewt_instances():
    """All-ones pre-weighted G(n, 3.5/n) draws, n = 16..24, with their
    pre-weights; ten have cover number above 12."""
    for s in range(120):
        n = 16 + s % 9
        yield random_graph(n, round(3.5 / n, 4), s, pre_fraction=0.4, pre_ones_only=True)


def prewt_draws():
    """The graphs of prewt_instances, as the prewt route sees them."""
    for g, _ in prewt_instances():
        yield g


def planted_kernels():
    """Kernels of planted twin graphs: stars, three classes on one cover
    vertex, and six small classes on two to four cover vertices."""
    for s in range(20):
        yield kernelize(planted_twin_graph(1, [150 + (37 * s) % 251], s, full_sig=True)).graph
        leaves = 150 + (53 * s) % 251
        yield kernelize(planted_twin_graph(1, [leaves // 2, leaves // 3, leaves - leaves // 2 - leaves // 3], 100 + s)).graph
    for s in range(60):
        classes = [3 + (7 * s + 5 * i) % 5 for i in range(6)]
        yield kernelize(planted_twin_graph(2 + s % 3, classes, 200 + s, max_edges=25 + s % 6)).graph


# sha256 over each set's minimum covers (None for a k_max refusal), recorded
# with the recursive search, so the prewt deletions and witnesses built on
# these covers cannot move
GOLDEN_COVERS = {
    prewt_draws: ("442b636c9bd76ae22585a63b9442685db12cbf0499afe999bbb4fca4e86760b5", 10),
    planted_kernels: ("93d1f7af9021e068d4cdf2602660870aa6560f24ae4107d73e307a69a32e364c", 0),
}


@pytest.mark.parametrize("graphs", list(GOLDEN_COVERS), ids=lambda f: f.__name__)
def test_minimum_covers_match_golden(graphs):
    h = hashlib.sha256()
    refused = 0
    for g in graphs():
        try:
            cover = sorted(minimum_vertex_cover(g)[0])
        except CapacityError:
            cover = None
            refused += 1
        h.update(repr(cover).encode() + b"\n")
    assert (h.hexdigest(), refused) == GOLDEN_COVERS[graphs]


def test_cover_number_above_k_max_is_refused():
    g, _ = random_graph(30, 0.1, 2)  # cover number 15
    with pytest.raises(CapacityError, match="k_max=12"):
        minimum_vertex_cover(g)
    cover, k = minimum_vertex_cover(g, k_max=15)
    assert k == 15 and is_cover(g, cover)


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
    assert kernel.removed
    limit = 2 * kernel.k_matching + 4**kernel.k_matching * kernel.cap
    assert kernel.graph.vertex_count <= limit


def test_kernelize_identity_when_small():
    g = planted_twin_graph(2, [5], seed=2, full_sig=True)
    kernel = kernelize(g)
    assert kernel.removed == ()
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


def to_original_ids(kernel, w_kernel):
    """A kernel witness on the input graph's ids, through kernel.kept."""
    return {edge_key(kernel.kept[u], kernel.kept[v]): value for (u, v), value in w_kernel.items()}


def test_lift_identity_kernel():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    kernel = kernelize(g)
    assert kernel.removed == ()
    w = oracle.solve_exhaustive(kernel.graph)
    assert lift(g, to_original_ids(kernel, w)) == w


def test_lift_rejects_improper():
    # a conflict inside the reduced instance survives the extension
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    kernel = kernelize(g)
    with pytest.raises(ContractViolationError):
        lift(g, to_original_ids(kernel, {e: 0 for e in kernel.graph.edges}))


def test_lift_rejects_a_failed_reverification():
    # the kernel P4 0-1-2-3 is properly weighted with colours 1, 2, 1, 0; the
    # removed leaf 4 at vertex 3 gets colour 0 too, so the lifted weighting fails
    g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    p4 = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    kernel = Kernel(p4, kept=(0, 1, 2, 3), cover=(1, 2), k_matching=1, cap=1,
                    class_sizes_before=(), class_sizes_after=(), removed=(4,))
    with pytest.raises(ContractViolationError) as info:
        lift(g, to_original_ids(kernel, {(0, 1): 1, (1, 2): 1, (2, 3): 0}))
    assert str(info.value) == "lifted assignment failed re-verification"


def test_lift_gives_removed_vertices_color_zero(monkeypatch):
    # k=1 cap is 33: 40 twins force a real truncation; the kernel still has
    # 34 free edges, so the budgeted search needs a ceiling above 2^30 (the
    # 40-edge original needs 2^40)
    g = planted_twin_graph(1, [40], seed=5, full_sig=True)
    monkeypatch.setattr(oracle, "CUTOFF", len(g.edges))
    kernel = kernelize(g)
    assert kernel.removed
    w_kernel = oracle.solve_exhaustive(kernel.graph, budget=edge_budget(1))
    assert w_kernel is not None
    w = lift(g, to_original_ids(kernel, w_kernel))
    assert is_proper(g, w)
    colors = induced_colors(g, w)
    for v in kernel.removed:
        assert colors[v] == 0
        assert all(colors[u] != 0 for u in g.neighbors(v))
    # decision survives truncation: the original solves too
    assert oracle.solve_exhaustive(g) is not None


def test_pipeline_matches_oracle_small():
    rng = random.Random(11)
    for _ in range(120):
        g = random_small_graph(rng, max_n=7)
        a = preweight.solve_prewt(g, (), minimum_vertex_cover(g)[1])
        b = oracle.solve_exhaustive(g)
        assert (a is None) == (b is None)
        if a is not None:
            assert is_proper(g, a)


def test_budgeted_witness_lifts():
    # the prewt search returns the decide walk's first completion, not the
    # fewest-ones witness: it stays within the weight-1 budget of H*, and a
    # reduction that stripped members still lifts to a proper weighting of
    # the input graph that keeps the pre-weights
    found = lifted = refused = 0
    for g, pre in [*prewt_instances(), *((g, {}) for g in planted_kernels())]:
        try:
            k = minimum_vertex_cover(g)[1]
            red = preweight.apply_reduction(g, pre, k)
            w_star = oracle.solve_exhaustive(red.graph, pre, budget=edge_budget(k), fewest=False)
        except CapacityError:
            refused += 1
            continue
        w = preweight.solve_prewt(g, pre, k)
        if w_star is None:
            assert w is None
            continue
        assert sum(value for e, value in w_star.items() if e not in pre) <= edge_budget(k)
        assert w == lift(g, w_star)
        found += 1
        if red.deletions:
            assert is_proper(g, w) and extends(w, pre)
            lifted += 1
    # ten draws have cover number above k_max, and two searches pass the ceiling
    assert (found, lifted, refused) == (188, 40, 12)


def test_cover_within():
    c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for k in (2, 3):
        cover = cover_within(c4, k)
        assert is_cover(c4, cover) and len(cover) <= k
    with pytest.raises(ValueError, match="no vertex cover of size <= 1"):
        cover_within(c4, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        cover_within(c4, -1)


def test_cover_number_past_recursion_limit():
    # 1,100 disjoint paths on 3 vertices: cover number 1,100, deeper than
    # Python's default recursion limit
    g = Graph.build(3300, [e for i in range(1100) for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2))])
    cover = exact_vertex_cover(g, 1100)
    assert cover is not None and len(cover) == 1100 and is_cover(g, cover)
    assert exact_vertex_cover(g, 1099) is None
    with pytest.raises(ValueError, match="no vertex cover of size <= 1099"):
        cover_within(g, 1099)
    # the budgeted search is refused, and the refusal names the candidate
    # count by its exponent
    with pytest.raises(CapacityError) as exc:
        preweight.solve_prewt(g, set(), 1100)
    assert "2^" in str(exc.value) and len(str(exc.value).encode()) < 200


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


@pytest.mark.parametrize("instance", ["star-40", "prewt-draw-3"])
def test_prewt_route_searches_each_budget_once(tmp_path, capsys, monkeypatch, instance):
    # the route asks for the cover of size k three times: at the end of the
    # deepening and in each of its two reductions; only the deepening's
    # k + 1 budgets are searched
    if instance == "star-40":  # the benchmark self-test's all-ones star
        g = Graph.build(41, [(0, i) for i in range(1, 41)])
        pre = {(0, i): 1 for i in range(1, 41, 2)}
        k = 1
    else:
        g, pre = next(islice(prewt_instances(), 3, None))
        k = 10
    path = tmp_path / "g.gr"
    path.write_text(io.emit_graph(g, pre))
    calls, searches = [], []
    exact, search = vertex_cover.exact_vertex_cover, vertex_cover._search
    monkeypatch.setattr(vertex_cover, "exact_vertex_cover", lambda g, k: calls.append(k) or exact(g, k))
    monkeypatch.setattr(vertex_cover, "_search", lambda g, k: searches.append(k) or search(g, k))
    assert cli.main(["solve", str(path)]) == 0
    out, err = capsys.readouterr()
    assert io.parse_result(out).algorithm == "prewt"
    assert json.loads(err.split("stats: ", 1)[1])["k"] == k
    assert calls == [*range(k + 1), k, k]
    assert searches == list(range(k + 1))
