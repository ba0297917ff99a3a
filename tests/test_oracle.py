import random

import pytest

from vcew import _search_py, oracle
from vcew.errors import CapacityError
from vcew.graph import Graph, extends, is_proper
from tests.conftest import brute_force_solve, random_small_graph

C3 = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
P3 = Graph.build(3, [(0, 1), (1, 2)])
K2 = Graph.build(2, [(0, 1)])


def test_triangle_unsolvable():
    assert oracle.solve_exhaustive(C3) is None
    assert oracle.count_proper(C3) == 0


def test_c4_witness_pattern():
    w = oracle.solve_exhaustive(C4)
    assert w is not None and is_proper(C4, w)
    # two adjacent cycle edges carry the ones
    ones = sorted(e for e, value in w.items() if value)
    assert len(ones) == 2 and len(set(ones[0]) & set(ones[1])) == 1


def test_k2_preweighted_unsolvable():
    assert oracle.solve_exhaustive(K2, {(0, 1): 1}) is None
    assert oracle.solve_exhaustive(K2, {(0, 1): 0}) is None


def test_count_proper_frozen_values():
    assert oracle.count_proper(K2) == 0
    # P3 has exactly one proper weighting out of its 4: both edges at 1
    assert oracle.count_proper(P3) == 1


def test_matches_plain_enumeration():
    rng = random.Random(17)
    for _ in range(150):
        g = random_small_graph(rng, max_n=6)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.3}
        expect_first, expect_count = brute_force_solve(g, pre)
        got = oracle.solve_exhaustive(g, pre)
        assert got == expect_first
        assert oracle.count_proper(g, pre) == expect_count


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
    # a narrow budget brings the work under the ceiling
    assert oracle.solve_exhaustive(big, budget=2) is None or True


def test_capacity_cutoff_flag():
    star = Graph.build(33, [(0, v) for v in range(1, 33)])  # 32 free edges
    with pytest.raises(CapacityError):
        oracle.solve_exhaustive(star)
    # raising the cutoff lets the run proceed; the witness needs only 2 ones
    w = oracle.solve_exhaustive(star, cutoff=32)
    assert w is not None and sum(w.values()) == 2 and is_proper(star, w)


def test_exists_with_color_bound():
    assert not oracle.exists_with_color_bound(C4, {}, 0)
    assert oracle.exists_with_color_bound(C4, {}, 2)
    # per-vertex map form
    assert oracle.exists_with_color_bound(C4, {}, {0: 2, 1: 2, 2: 2, 3: 2})
    assert not oracle.exists_with_color_bound(C4, {}, [0, 0, 0, 0])


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
        assert oracle.exists_with_color_bound(g, {}, bound) == feasible


def test_backends_agree(compiled_kernel):
    # Every kernel call returns (value, nodes visited): node counts must agree too.
    rng = random.Random(53)
    for _ in range(120):
        g = random_small_graph(rng, max_n=7)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.3}
        plain = oracle._prepare(g, pre, None)
        bounded = oracle._prepare(g, pre, rng.choice([0, 1, 2, 3, 1 << 70]))
        free = len(plain.free)
        for inst in (plain, bounded):
            for maxc in {free, rng.randrange(free) if free else 0}:
                assert compiled_kernel.solve_ones(inst, maxc) == _search_py.solve_ones(inst, maxc)
            assert compiled_kernel.count_all(inst) == _search_py.count_all(inst)
            assert compiled_kernel.exists_proper(inst) == _search_py.exists_proper(inst)
