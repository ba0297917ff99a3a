import ctypes
import hashlib
import random
import shutil
import subprocess
import tracemalloc

import pytest

from vcew import _search_c, _search_py, oracle, treewidth
from vcew.errors import CapacityError
from vcew.graph import Graph, extends, is_proper
from tests import reference_solve_ones
from tests.reference_first_completion import first_completion
from tests.conftest import brute_force_solve, random_small_graph

C3 = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P3 = Graph.build(3, [(0, 1), (1, 2)])
K2 = Graph.build(2, [(0, 1)])


def test_triangle_unsolvable():
    assert oracle.solve_exhaustive(C3) is None


def test_c4_witness_pattern():
    w = oracle.solve_exhaustive(C4)
    assert w is not None and is_proper(C4, w)
    # two adjacent cycle edges carry the ones
    ones = sorted(e for e, value in w.items() if value)
    assert len(ones) == 2 and len(set(ones[0]) & set(ones[1])) == 1
    # without the popcount passes the witness is the walk's first
    # completion: the lex-least proper vector over (0,1), (0,3), (1,2),
    # (2,3) is 0011, where the fewest-ones witness is 1100
    w = oracle.solve_exhaustive(C4, fewest=False)
    assert sorted(e for e, value in w.items() if value) == [(1, 2), (2, 3)]
    inst = oracle._prepare(C4, {}, floor=False)
    assert inst.lo == 0 and oracle._prepare(C4, {}).lo == 1
    assert _search_py.solve_ones(inst, 4, False) == ([2, 3], 7)
    assert _search_py.solve_ones(oracle._prepare(C4, {}), 4) == ([0, 1], 15)


def test_k2_preweighted_unsolvable():
    assert oracle.solve_exhaustive(K2, {(0, 1): 1}) is None
    assert oracle.solve_exhaustive(K2, {(0, 1): 0}) is None


def _count(g, pre=None):
    """Proper total assignments extending pre, counted by the active kernel."""
    return oracle._kernel.count_all(oracle._prepare(g, pre or {}))[0]


def test_count_proper_frozen_values():
    assert _count(K2) == 0
    # P3 has exactly one proper weighting out of its 4: both edges at 1
    assert _count(P3) == 1


def test_matches_plain_enumeration():
    rng = random.Random(17)
    for _ in range(150):
        g = random_small_graph(rng, max_n=6)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.3}
        expect_first, expect_count = brute_force_solve(g, pre)
        got = oracle.solve_exhaustive(g, pre)
        assert got == expect_first
        assert _count(g, pre) == expect_count


def test_budget_equivalence_small():
    # budget b succeeds iff the unbudgeted search succeeds with at most b
    # ones; the unbudgeted witness is ones-minimal by enumeration order
    rng = random.Random(23)
    for _ in range(60):
        g = random_small_graph(rng, max_n=6)
        free = len(g.edges)
        full = oracle.solve_exhaustive(g)
        for budget in range(free + 1):
            budgeted = oracle.solve_exhaustive(g, budget=budget)
            if full is None or sum(full.values()) > budget:
                assert budgeted is None
            else:
                assert budgeted == full


def test_witness_is_deterministic():
    g, _ = random_small_graph(random.Random(4), max_n=7), None
    assert oracle.solve_exhaustive(g) == oracle.solve_exhaustive(g)


def test_monotone_in_preweighting():
    rng = random.Random(31)
    for _ in range(80):
        g = random_small_graph(rng, max_n=6)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.4}
        sub = {e: v for e, v in pre.items() if rng.random() < 0.5}
        if oracle.solve_exhaustive(g, pre) is not None:
            assert oracle.solve_exhaustive(g, sub) is not None


def test_witness_extends_pre():
    rng = random.Random(37)
    for _ in range(60):
        g = random_small_graph(rng, max_n=7)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.5}
        w = oracle.solve_exhaustive(g, pre)
        if w is not None:
            assert is_proper(g, w) and extends(w, pre)


def test_capacity_refusal():
    big = Graph.build(40, [(i, j) for i in range(40) for j in range(i + 1, 40) if (i + j) % 3][:35])
    with pytest.raises(CapacityError):
        oracle.solve_exhaustive(big)
    with pytest.raises(CapacityError):
        oracle.solve_exhaustive(big, budget=20)
    # a narrow budget brings the work under the ceiling, and this graph has a
    # proper weighting with at most two weight-1 edges
    w = oracle.solve_exhaustive(big, budget=2)
    assert w is not None and is_proper(big, w) and sum(w.values()) <= 2


def test_capacity_cutoff_flag(monkeypatch):
    def star(leaves):
        return Graph.build(leaves + 1, [(0, v) for v in range(1, leaves + 1)])

    def refused(free_count, budget):
        try:
            oracle._check_capacity(free_count, budget)
        except CapacityError:
            return True
        return False

    # one rule: refuse above 2^CUTOFF candidates, so 30 free edges run and 31
    # refuse; a budget of at least F counts all 2^F candidates, as unbudgeted
    assert oracle.CUTOFF == 30
    for free_count in range(40):
        for budget in (free_count, free_count + 3):
            assert refused(free_count, budget) == refused(free_count, None) == (free_count > 30)
    w = oracle.solve_exhaustive(star(30))
    assert w is not None and sum(w.values()) == 2 and is_proper(star(30), w)
    assert oracle.solve_exhaustive(star(30), budget=30) == w
    message = r"^search would visit about 2\^31\.0 candidates, above the 2\^30 ceiling$"
    for search in (
        lambda: oracle.solve_exhaustive(star(31)),
        lambda: oracle.solve_exhaustive(star(31), budget=31),
    ):
        with pytest.raises(CapacityError, match=message):
            search()
    # the DP decides a colour bound on the same star (no pre-weights, so the
    # gain is the bound): two leaf edges at 1 give the centre colour 2, which
    # no leaf has
    assert treewidth.exists_with_color_bound(star(31), None, 3)
    assert not treewidth.exists_with_color_bound(star(31), None, 1)
    # a higher ceiling lets the run proceed; the witness needs only 2 ones
    monkeypatch.setattr(oracle, "CUTOFF", 32)
    w = oracle.solve_exhaustive(star(32))
    assert w is not None and sum(w.values()) == 2 and is_proper(star(32), w)


def test_exists_with_color_bound():
    assert not treewidth.exists_with_color_bound(C4, {}, 0)
    assert treewidth.exists_with_color_bound(C4, {}, 2)


@pytest.mark.parametrize(
    "search,error,message",
    [
        (lambda: treewidth.exists_with_color_bound(P3, None, 1.5), TypeError, "gain must be an integer, not float"),
        (lambda: oracle.solve_exhaustive(P3, budget=-1), ValueError, "budget must be nonnegative"),
    ],
)
def test_search_argument_rejections(search, error, message):
    with pytest.raises(error) as info:
        search()
    assert str(info.value) == message


def test_exists_bound_matches_enumeration():
    rng = random.Random(41)
    for _ in range(80):
        g = random_small_graph(rng, max_n=6)
        bound = rng.randint(0, 3)
        _, count = brute_force_solve(g)
        import itertools as it

        feasible = False
        for bits in it.product([0, 1], repeat=len(g.edges)):
            colors = [0] * g.vertex_count
            w = dict(zip(g.edges, bits))
            for (u, v), value in w.items():
                if value:
                    colors[u] += 1
                    colors[v] += 1
            if all(colors[u] != colors[v] for u, v in g.edges) and all(c <= bound for c in colors):
                feasible = True
                break
        assert treewidth.exists_with_color_bound(g, {}, bound) == feasible


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _small_atlas(atlas):
    return [g for g in atlas if g.vertex_count <= 6]


def _seeded_draws(graphs):
    """Each graph with seeded pre-weights, as (graph, pre-weights)."""
    rng = random.Random(59)
    out = []
    for g in graphs:
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.3}
        rng.choice([None, 0, 1, 2, 3])  # was a colour bound; still drawn so each graph keeps its pre-weights
        out.append((g, pre))
    return out


def _seeded_instances(graphs):
    """Each graph with seeded pre-weights, prepared."""
    return [oracle._prepare(g, pre) for g, pre in _seeded_draws(graphs)]


# The atlas digest was recorded with the kernel that kept its search state
# in a _State object, before the settle-table rewrite; solve_ones node
# totals are those of the capped walk plus the combination passes (82,973
# with the passes alone).  The seeded pins were recorded when the kernels
# lost their colour bounds: the 30 instances drawn without a bound kept
# their values and node counts, and the other 113 are now unbounded.  The
# solve_ones totals fell from 71,896 and 13,962 when the walk took the twin
# order and the passes the popcount floor; the digests did not move.
ATLAS_SOLVE_ONES = (49_701, "5b6d1c7524c2d2ad")
SEEDED_SOLVE_ONES = (13_263, "2a6c5e6dbb60ebd1")
SEEDED_COUNT_ALL = (21_561, "575d4cec7af43d6a")
SEEDED_EXISTS_PROPER = (10_502, "297d4a18616e1002")


def _summary(results):
    """Total nodes and a digest of the values of (value, nodes) results."""
    return sum(nodes for _, nodes in results), _digest([value for value, _ in results])


def test_solve_ones_golden_over_atlas(atlas):
    graphs = _small_atlas(atlas)
    assert len(graphs) == 143
    results = [_search_py.solve_ones(oracle._prepare(g, {}), len(g.edges)) for g in graphs]
    assert _summary(results) == ATLAS_SOLVE_ONES


def test_seeded_traversals_golden(atlas):
    insts = _seeded_instances(_small_atlas(atlas))
    assert _summary([_search_py.solve_ones(inst, len(inst.free) // 2) for inst in insts]) == SEEDED_SOLVE_ONES
    assert _summary([_search_py.count_all(inst) for inst in insts]) == SEEDED_COUNT_ALL
    assert _summary([_search_py.exists_proper(inst) for inst in insts]) == SEEDED_EXISTS_PROPER


DEGENERATE = [
    # (name, graph, pre-weights, maxc)
    ("no vertices", Graph.build(0, []), {}, 0),
    ("no free edges, proper", P3, {(0, 1): 1, (1, 2): 1}, 2),
    ("no free edges, improper", C3, {(0, 1): 1, (1, 2): 0, (0, 2): 1}, 0),
    ("maxc 0, ones needed", C4, {}, 0),
    ("root conflict from pre-weights", Graph.build(5, [(0, 1), (2, 3), (3, 4)]), {(0, 1): 1}, 2),
]
# (solve_ones, count_all, exists_proper), each as (value, nodes)
DEGENERATE_EXPECTED = {
    "no vertices": (([], 2), (1, 1), (True, 1)),
    "no free edges, proper": (([], 2), (1, 1), (True, 1)),
    "no free edges, improper": ((None, 1), (0, 1), (False, 1)),
    "maxc 0, ones needed": ((None, 4), (4, 23), (True, 7)),
    "root conflict from pre-weights": ((None, 1), (0, 1), (False, 1)),
}


@pytest.mark.parametrize("name, g, pre, maxc", DEGENERATE, ids=[case[0] for case in DEGENERATE])
def test_degenerate_instances(name, g, pre, maxc):
    inst = oracle._prepare(g, pre)
    got = (_search_py.solve_ones(inst, maxc), _search_py.count_all(inst), _search_py.exists_proper(inst))
    assert got == DEGENERATE_EXPECTED[name]


def _assert_settle_table(g, inst):
    # Recomputed from the graph and the free edges: an edge settles at the
    # last free position at either endpoint, or at the root when there is none.
    f = len(inst.free)
    assert inst.fu == tuple(g.edges[i][0] for i in inst.free)
    assert inst.fv == tuple(g.edges[i][1] for i in inst.free)
    last = [-1] * g.vertex_count
    for p, i in enumerate(inst.free):
        for v in g.edges[i]:
            last[v] = p
    pairs, end = inst.pairs, inst.end
    assert sorted(pairs) == list(g.edges)
    assert len(end) == f + 1 and end[-1] == len(g.edges)
    assert all(a <= b for a, b in zip(end, end[1:]))
    groups = [pairs[:end[0]]] + [pairs[end[p]:end[p + 1]] for p in range(f)]
    for u, v in g.edges:
        assert (u, v) in groups[max(last[u], last[v]) + 1]
    for group in groups:
        assert list(group) == sorted(group)


def _assert_twin_table(g, pre, inst):
    # Recomputed from the definition: a and b, both with a free edge, are
    # twins when every other vertex is joined to both the same way (not at
    # all, free, or pre-weighted with one value) and any edge ab is free;
    # each class lists its consecutive members, ordered where both settle.
    f = len(inst.free)
    joined = {e: pre.get(e, "free") for e in g.edges}
    last = [-1] * g.vertex_count
    for p, i in enumerate(inst.free):
        for v in g.edges[i]:
            last[v] = p

    def twins(a, b):
        if joined.get((a, b), "free") != "free":
            return False
        others = (x for x in range(g.vertex_count) if x not in (a, b))
        return all(joined.get(tuple(sorted((a, x)))) == joined.get(tuple(sorted((b, x)))) for x in others)

    expected = []
    candidates = [v for v in range(g.vertex_count) if last[v] >= 0]
    for i, a in enumerate(candidates):
        later = [b for b in candidates[i + 1:] if twins(a, b)]
        if later:  # the next member of a's class
            expected.append((max(last[a], last[later[0]]), (a, later[0])))
    twins_, tend = inst.twins, inst.tend
    assert len(tend) == f + 1 and tend[0] == 0 and tend[-1] == len(twins_)
    got = [(p, pair) for p in range(f) for pair in twins_[tend[p]:tend[p + 1]]]
    assert sorted(got) == sorted(expected)


def test_settle_table_matches_the_graph(atlas):
    for g, inst in zip(atlas, _seeded_instances(atlas), strict=True):
        _assert_settle_table(g, inst)
    for _, g, pre, _ in DEGENERATE:
        _assert_settle_table(g, oracle._prepare(g, pre))


def test_twin_table_matches_the_graph(atlas):
    for g, pre in _seeded_draws(atlas) + [(g, {}) for g in atlas]:
        _assert_twin_table(g, pre, oracle._prepare(g, pre))
    for _, g, pre, _ in DEGENERATE:
        _assert_twin_table(g, pre, oracle._prepare(g, pre))
    # a triangle is one class of true twins; pre-weighting the edge of 0
    # and 1 splits them, and so does one pre-weighted edge to 2, but the
    # same pre-weight on both edges to 2 keeps them twins
    assert oracle._prepare(C3, {}).twins == ((0, 1), (1, 2))
    assert oracle._prepare(C3, {(0, 1): 1}).twins == ()
    assert oracle._prepare(C3, {(0, 2): 0}).twins == ()
    assert oracle._prepare(C3, {(0, 2): 0, (1, 2): 0}).twins == ((0, 1),)


def test_budgeted_search_on_many_free_edges_stays_linear():
    # A path with 3000 free edges and one weight-1 edge allowed: the kernel's
    # per-call tables must stay O(m), where f * m is 9 million here.  The
    # capped walk decides "no" after 7 nodes, so no combination pass runs.
    f = 3000
    inst = oracle._prepare(Graph.build(f + 1, [(i, i + 1) for i in range(f)]), {})
    tracemalloc.start()
    try:
        got = _search_py.solve_ones(inst, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (None, 7)
    assert peak < 2_000_000


def _disjoint_paths(count, tail):
    """`count` disjoint paths a-b-c-d with a-b free and b-c, c-d pre-weighted 1
    (proper with a-b at 0), and with `tail`, a last path x-y-z-w with x-y
    pre-weighted 0, y-z free and z-w pre-weighted 1, proper only with y-z at 1."""
    edges, pre = [], {}
    for a in range(0, 4 * count + 4 * tail, 4):
        edges += [(a, a + 1), (a + 1, a + 2), (a + 2, a + 3)]
        pre[(a + 2, a + 3)] = 1
        pre[(a + 1, a + 2)] = 1
    if tail:
        del pre[(a + 1, a + 2)]
        pre[(a, a + 1)] = 0
    return oracle._prepare(Graph.build(4 * (count + tail), edges), pre)


@pytest.mark.parametrize("tail", [False, True], ids=["all zero", "last edge one"])
def test_deep_walk_stays_shallow_and_linear(tail):
    # 3000 free edges at maxc 1: the walk decides along a weight-0 run of 3000
    # positions in a loop, not a recursion, and with the tail the combination
    # pass places its one weight-1 edge on each of the 3001 positions.
    count = 3000
    inst = _disjoint_paths(count, tail)
    tracemalloc.start()
    try:
        got = _search_py.solve_ones(inst, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    f = len(inst.free)
    assert got == (([f - 1], 2 * f + 4) if tail else ([], f + 2))
    assert peak < 250 * len(inst.pairs)
    # the walk's first completion is the same witness, without the pass
    assert _search_py.solve_ones(inst, 1, False) == (([f - 1], f + 2) if tail else ([], f + 1))
    assert _search_py.count_all(inst) == (1, 2 * f + 1)
    assert _search_py.exists_proper(inst) == (True, f + 1 + tail)


def _complete(n):
    return Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


K7 = _complete(7)
K8 = _complete(8)
# The capped walk alone, in the twin order; the popcount passes visited
# 1,289,487 on K7, and the walk in every order 483,711 on K7 and 21,908,527
# on K8 (6.2 s in Python).
K7_NODES = 66_743
K8_NODES = 1_259_539


def test_k7_decided_by_the_walk():
    assert _search_py.solve_ones(oracle._prepare(K7, {}), 21) == (None, K7_NODES)


def test_k8_decided_by_the_walk(compiled_kernel):
    # K8 reaches the oracle through the vc route (28 free edges, width 7),
    # whose weight-1 budget edge_budget(7) covers all 28 edges
    inst = oracle._prepare(K8, {})
    assert _search_py.solve_ones(inst, 3136) == (None, K8_NODES)
    assert compiled_kernel.solve_ones(inst, 3136) == (None, K8_NODES)


@pytest.mark.parametrize(
    "g, pre, lo",
    [
        (K2, {}, 1),  # one clique, colors 0 and 1
        (C3, {(0, 1): 1}, 1),  # start colors 1, 1, 0: distinct at 1, 2, 0
        (C4, {}, 1),  # cliques {0, 1} and {2, 3}: 1 + 1 over 2
        (P3, {(0, 1): 1, (1, 2): 1}, 0),  # no free edge
        (K7, {}, 11),  # colors 0..6 sum to 21
        (K8, {}, 14),
    ],
    ids=["K2", "C3-one", "C4", "P3-all-pre", "K7", "K8"],
)
def test_popcount_floor_values(g, pre, lo):
    assert oracle._prepare(g, pre).lo == lo


def test_popcount_floor_is_sound(atlas):
    # the floor is at most the fewest weight-1 free edges, by the reference
    # enumeration, on every atlas graph unweighted and with seeded pre-weights
    tight = 0
    for g, pre in [(g, {}) for g in atlas] + _seeded_draws(atlas):
        inst = oracle._prepare(g, pre)
        best = reference_solve_ones.solve_ones(inst, len(inst.free))[0]
        if best is not None:
            assert inst.lo <= len(best)
            tight += inst.lo == len(best)
    assert tight > 0


def test_backend_names_the_active_kernel(monkeypatch, compiled_kernel):
    monkeypatch.setattr(oracle, "_kernel", _search_py)
    assert oracle.backend() == "python"
    monkeypatch.setattr(oracle, "_kernel", compiled_kernel)
    assert oracle.backend() == "compiled"


def test_k7_compiled(compiled_kernel):
    assert compiled_kernel.solve_ones(oracle._prepare(K7, {}), 21) == (None, K7_NODES)


@pytest.mark.parametrize(
    "source",
    [
        "int search_record_size(void) { return 1; }",  # another record layout
        "int solve_ones(void) { return 0; }",  # built before the size was exported
    ],
)
def test_load_refuses_another_record_layout(tmp_path, source):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    (tmp_path / "stale.c").write_text(source + "\n")
    library = tmp_path / "stale.so"
    subprocess.run(["cc", "-shared", "-fPIC", "-o", str(library), str(tmp_path / "stale.c")], check=True)
    with pytest.raises(ImportError, match=r"rebuild it with: python setup\.py build_ext --inplace$"):
        _search_c.load(library)


def test_library_exports_only_solve_ones(compiled_library, compiled_kernel):
    # The C source holds the decide walk and its passes; the counting walks
    # the tracer still wraps are the Python kernel's on both backends.
    library = ctypes.CDLL(str(compiled_library))
    assert hasattr(library, "solve_ones") and hasattr(library, "search_record_size")
    assert not hasattr(library, "count_all") and not hasattr(library, "exists_proper")
    assert compiled_kernel.count_all is _search_py.count_all
    assert compiled_kernel.exists_proper is _search_py.exists_proper


def _assert_same_choice(inst, budgets):
    for maxc in budgets:
        assert _search_py.solve_ones(inst, maxc)[0] == reference_solve_ones.solve_ones(inst, maxc)[0]


def test_same_witnesses_as_the_popcount_passes(atlas):
    # Against a verbatim copy of the kernel that enumerated popcount levels
    # only: every atlas graph unbudgeted, and seeded pre-weights at budgets
    # 0, c* - 1, c* and f, where c* is the fewest weight-1 edges.
    for g in atlas:
        _assert_same_choice(oracle._prepare(g, {}), [len(g.edges)])
    for inst in _seeded_instances(atlas):
        free = len(inst.free)
        best = reference_solve_ones.solve_ones(inst, free)[0]
        budgets = {0, free} if best is None else {0, max(len(best) - 1, 0), len(best), free}
        _assert_same_choice(inst, budgets)


@pytest.fixture(scope="module")
def first_completions(atlas):
    """(instance, {cap: the reference's positions}) for every atlas graph
    unweighted and with seeded pre-weights, at caps 0, free // 2 and free."""
    out = []
    for g, pre in [(g, {}) for g in atlas] + _seeded_draws(atlas):
        inst = oracle._prepare(g, pre)
        free = len(inst.free)
        out.append((inst, {cap: first_completion(g, pre, cap) for cap in {0, free // 2, free}}))
    return out


def _assert_first_completions(kernel, first_completions):
    for inst, want in first_completions:
        for cap, chosen in want.items():
            assert kernel.solve_ones(inst, cap, False)[0] == chosen


def test_first_completion_matches_the_reference(first_completions):
    _assert_first_completions(_search_py, first_completions)


def _assert_kernels_agree(compiled, inst, budgets):
    # Every kernel call returns (value, nodes visited): node counts must
    # agree too, with the popcount passes and without them.
    for maxc in budgets:
        for fewest in (True, False):
            assert compiled.solve_ones(inst, maxc, fewest) == _search_py.solve_ones(inst, maxc, fewest)


def test_backends_agree(compiled_kernel, atlas, first_completions):
    _assert_first_completions(compiled_kernel, first_completions)
    rng = random.Random(53)
    for _ in range(120):
        g = random_small_graph(rng, max_n=7)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.3}
        rng.choice([0, 1, 2, 3, 1 << 70])  # was a colour bound; still drawn so the graphs stay the same
        inst = oracle._prepare(g, pre)
        free = len(inst.free)
        _assert_kernels_agree(compiled_kernel, inst, {free, rng.randrange(free) if free else 0})
    for inst in _seeded_instances(_small_atlas(atlas)):
        free = len(inst.free)
        _assert_kernels_agree(compiled_kernel, inst, {free, free // 2, 0})
    for _, g, pre, maxc in DEGENERATE:
        _assert_kernels_agree(compiled_kernel, oracle._prepare(g, pre), {maxc})
    for tail in (False, True):
        _assert_kernels_agree(compiled_kernel, _disjoint_paths(3000, tail), {0, 1})
