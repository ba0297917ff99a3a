import hashlib
import itertools
import random
from dataclasses import replace

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vcew import _dp_tables, oracle
from vcew.errors import CapacityError, ContractViolationError, ValidationError
from vcew.generators import planted_twin_graph, random_graph
from vcew.graph import Graph, extends, from_subgraph, is_proper
from vcew.listcolor import ListColoringInstance
from vcew.reduction import build_reduction, small_chain_scale
from vcew.treewidth import (
    FORGET,
    INTRODUCE_VERTEX,
    JOIN,
    LEAF,
    NiceNode,
    NiceTreeDecomposition,
    TreeDecomposition,
    check_partial_solution,
    compute_decomposition,
    dp_solve,
    exists_with_color_bound,
    make_nice,
    run_dp,
    subtree_edge_sets,
    validate_decomposition,
    validate_nice,
)
from tests import reference_min_fill
from tests.conftest import brute_force_solve, random_small_graph

P3 = Graph.build(3, [(0, 1), (1, 2)])
C3 = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def nice_for(g):
    return make_nice(compute_decomposition(g), g)


def test_validate_decomposition_examples():
    single = TreeDecomposition(bags=(frozenset({0, 1, 2}),), parent=(-1,), root=0)
    assert validate_decomposition(C3, single)
    two = TreeDecomposition(bags=(frozenset({0, 1}), frozenset({1, 2})), parent=(-1, 0), root=0)
    assert validate_decomposition(P3, two)
    uncovered = TreeDecomposition(bags=(frozenset({0}), frozenset({2})), parent=(-1, 0), root=0)
    assert not validate_decomposition(P3, uncovered)


def test_validate_decomposition_disconnected_occurrence():
    bad = TreeDecomposition(
        bags=(frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        parent=(-1, 0, 1),
        root=0,
    )
    # vertex 0 appears in bags 0 and 2 but not 1
    assert not validate_decomposition(C3, bad)


@pytest.mark.parametrize(
    "bags,parent,root",
    [
        (({0, 1, 2}, {1}, {1}), (-1, 2, 1), 0),  # two-node cycle below a valid root
        (({0, 1}, {1, 2}), (-1, 2), 0),  # parent index >= count
        (({0, 1}, {1, 2}), (-1, -1), 0),  # a second node with parent -1
        (({0, 1}, {1, 2}), (1, 0), 0),  # the root has a parent
        (({0, 1}, {1, 2}), (-1,), 0),  # parent tuple of the wrong length
        (({0, 1}, {1, 2, -1}), (-1, 0), 0),  # bag vertex < 0
        (({0, 1}, {1, 2, 3}), (-1, 0), 0),  # bag vertex >= n
        (({0, 1}, {2}), (-1, 0), 0),  # edge (1, 2) in no bag
    ],
    ids=["cycle", "parent-range", "two-roots", "root-parent", "parent-length", "vertex-negative",
         "vertex-range", "uncovered-edge"],
)
def test_validate_decomposition_rejects_malformed(bags, parent, root):
    td = TreeDecomposition(bags=tuple(frozenset(b) for b in bags), parent=parent, root=root)
    assert not validate_decomposition(P3, td)


def test_min_fill_widths():
    tree = Graph.build(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    assert compute_decomposition(tree).width() == 1
    assert compute_decomposition(C4).width() == 2
    k4 = Graph.build(4, list(itertools.combinations(range(4), 2)))
    assert compute_decomposition(k4).width() == 3


def test_min_fill_valid_on_random(atlas):
    rng = random.Random(3)
    for _ in range(100):
        g = random_small_graph(rng, max_n=9)
        td = compute_decomposition(g)
        assert validate_decomposition(g, td)


def _min_fill_corpus(atlas):
    """Every connected atlas graph, the golden G(n, p) graphs below, seeded
    planted twin graphs and one list-colouring reduction."""
    yield from atlas
    for seed in range(len(GOLDEN_GNP_WITNESSES)):
        yield random_graph(8 + seed % 5, (0.3, 0.4, 0.5)[seed % 3], seed, pre_fraction=0.35)[0]
    for seed in range(40):
        rng = random.Random(seed)
        sizes = [rng.randint(2, 12) for _ in range(rng.randint(1, 4))]
        yield planted_twin_graph(rng.randint(1, 4), sizes, seed, cover_edge_p=0.4)
    triangle = ListColoringInstance.build(C3, [[2, 3], [3, 4], [2, 4]])
    yield build_reduction(triangle, small_chain_scale(triangle)).graph


def test_min_fill_matches_the_reference(atlas):
    # equal bags, parents and root: the same elimination order, with ties
    # going to the smallest id and the same fill counts
    for g in _min_fill_corpus(atlas):
        assert compute_decomposition(g) == reference_min_fill.compute_decomposition(g), g.edges


def test_make_nice_structure_c3():
    ntd = nice_for(C3)
    validate_nice(C3, ntd)
    listed = [(n.vertex, e) for n in ntd.nodes for e in n.edges]
    assert sorted(e for _, e in listed) == list(C3.edges)
    assert all(v in e for v, e in listed)


def test_make_nice_p3_two_bags():
    td = TreeDecomposition(bags=(frozenset({0, 1}), frozenset({1, 2})), parent=(-1, 0), root=0)
    ntd = make_nice(td, P3)
    validate_nice(P3, ntd)
    assert sum(len(n.edges) for n in ntd.nodes) == 2


def test_make_nice_preserves_width():
    rng = random.Random(5)
    for _ in range(100):
        g = random_small_graph(rng, max_n=8)
        td = compute_decomposition(g)
        ntd = make_nice(td, g)
        validate_nice(g, ntd)
        assert ntd.width == td.width()
        # node count stays linear-ish in width * n
        assert len(ntd.nodes) <= 4 * (td.width() + 2) * max(g.vertex_count, 1) + 4


def test_make_nice_rejects_invalid():
    bad = TreeDecomposition(bags=(frozenset({0}),), parent=(-1,), root=0)
    with pytest.raises(ValidationError):
        make_nice(bad, P3)


def test_dp_examples():
    assert dp_solve(P3, compute_decomposition(P3)) == {(0, 1): 1, (1, 2): 1}
    assert dp_solve(C3, compute_decomposition(C3)) is None
    pre = {(0, 1): 1}
    w = dp_solve(C4, compute_decomposition(C4), pre)
    w_oracle = oracle.solve_exhaustive(C4, pre)
    assert (w is None) == (w_oracle is None)
    assert w is not None and extends(w, pre)


def test_dp_rejects_invalid_td():
    uncovered = TreeDecomposition(bags=(frozenset({0, 1}), frozenset({2})), parent=(-1, 0), root=0)
    for solve in (run_dp, dp_solve):
        with pytest.raises(ValidationError):
            solve(P3, uncovered)


IV = INTRODUCE_VERTEX


def chain(*steps, width=1):
    """A path-shaped nice decomposition: a leaf, then one node per (kind,
    vertex) step or (introduce-vertex, vertex, edges) step."""
    nodes = [NiceNode(LEAF, (), ())]
    bag = set()
    for kind, x, *edges in steps:
        if kind == IV:
            bag.add(x)
        elif kind == FORGET:
            bag.discard(x)
        nodes.append(NiceNode(kind, tuple(sorted(bag)), (len(nodes) - 1,), x, *edges))
    return NiceTreeDecomposition(nodes=tuple(nodes), root=len(nodes) - 1, width=width)


def edit(ntd, i, **fields):
    nodes = list(ntd.nodes)
    nodes[i] = replace(nodes[i], **fields)
    return replace(ntd, nodes=tuple(nodes))


def detached_ring():
    """make_nice of the P3 part of P3 + triangle, plus a ring of six nodes that
    introduces and forgets the triangle and that no path from the root reaches."""
    g = Graph.build(6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)])
    base = nice_for(P3)
    ring = chain(
        (IV, 3), (IV, 4, ((3, 4),)), (IV, 5, ((3, 5), (4, 5))), (FORGET, 3), (FORGET, 4), (FORGET, 5),
    ).nodes[1:]
    first = len(base.nodes)
    ring = [replace(node, children=(first + i - 1,)) for i, node in enumerate(ring)]
    ring[0] = replace(ring[0], children=(first + len(ring) - 1,))
    return g, NiceTreeDecomposition(nodes=base.nodes + tuple(ring), root=base.root, width=2)


K2 = Graph.build(2, [(0, 1)])
K2_NICE = chain((IV, 0), (IV, 1, ((0, 1),)), (FORGET, 0), (FORGET, 1))  # root 4


@pytest.mark.parametrize(
    "g,ntd",
    [
        detached_ring(),
        (Graph.build(1, []), NiceTreeDecomposition(  # introduce-vertex with two children
            nodes=(NiceNode(LEAF, (), ()), NiceNode(LEAF, (), ()), NiceNode(IV, (0,), (0, 1), 0),
                   NiceNode(FORGET, (), (2,), 0)), root=3, width=0)),
        (K2, chain((IV, 0), (IV, 1, ((0, 1),)), (FORGET, 0))),  # root bag (1,)
        (K2, edit(K2_NICE, 4, children=(5,))),  # child index out of range
        (K2, edit(K2_NICE, 4, children=(2,))),  # node 2 under nodes 3 and 4
        (K2, edit(K2_NICE, 1, children=(4,))),  # the root listed as a child
        (Graph.build(2, []), K2_NICE),
        (K2, chain((IV, 0), (IV, 1, ((0, 1), (0, 1))), (FORGET, 0), (FORGET, 1))),
        (K2, chain((IV, 0), (IV, 1), (FORGET, 0), (FORGET, 1))),  # edge never introduced
        (K2, chain((IV, 0), (IV, 1, ((0, 1),)), (FORGET, 0), (FORGET, 0), (FORGET, 1))),
        (Graph.build(2, []), NiceTreeDecomposition(  # join of bags (0,) and (1,)
            nodes=(NiceNode(LEAF, (), ()), NiceNode(IV, (0,), (0,), 0), NiceNode(LEAF, (), ()),
                   NiceNode(IV, (1,), (2,), 1), NiceNode(JOIN, (0,), (1, 3)), NiceNode(FORGET, (), (4,), 0)),
            root=5, width=0)),
        (K2, edit(K2_NICE, 3, kind="bogus")),
        (Graph.build(3, [(0, 1)]), K2_NICE),  # vertex 2 in no bag
        (K2, chain((IV, 0), (IV, 1, ((0, 1),)), (FORGET, 0), (IV, 0), (FORGET, 0), (FORGET, 1))),
        (K2, replace(K2_NICE, root=5)),  # root index out of range
        (K2, edit(K2_NICE, 0, bag=(0,))),  # a leaf whose bag holds vertex 0
        (K2, edit(K2_NICE, 2, vertex=0)),  # introduces 0, already in its child's bag
        (P3, chain((IV, 0), (IV, 1, ((0, 1), (1, 2))), (FORGET, 0), (IV, 2), (FORGET, 1), (FORGET, 2))),
        # introducing 2 lists (0, 1), an edge between two other bag vertices
        (C3, chain((IV, 0), (IV, 1), (IV, 2, ((0, 1), (0, 2), (1, 2))), (FORGET, 0), (FORGET, 1), (FORGET, 2))),
        (K2, NiceTreeDecomposition(  # a join, not an introduce, lists the edge
            nodes=(NiceNode(LEAF, (), ()), NiceNode(IV, (0,), (0,), 0), NiceNode(IV, (0, 1), (1,), 1),
                   NiceNode(LEAF, (), ()), NiceNode(IV, (0,), (3,), 0), NiceNode(IV, (0, 1), (4,), 1),
                   NiceNode(JOIN, (0, 1), (2, 5), 1, ((0, 1),)), NiceNode(FORGET, (1,), (6,), 0),
                   NiceNode(FORGET, (), (7,), 1)), root=8, width=1)),
    ],
    ids=["detached-ring", "introduce-two-children", "root-bag", "child-range", "two-parents",
         "root-is-child", "non-edge", "edge-twice", "edge-never", "forget-missing", "join-mismatch",
         "unknown-kind", "vertex-in-no-bag", "disconnected-occurrences", "root-range", "leaf-bag",
         "introduce-vertex-present", "edge-outside-bag", "edge-not-at-vertex", "edge-at-join"],
)
def test_validate_nice_rejects_malformed(g, ntd):
    validate_nice(K2, K2_NICE)  # the decomposition the edits start from is valid
    with pytest.raises(ValidationError):
        validate_nice(g, ntd)


def test_dp_matches_oracle_with_preweights():
    rng = random.Random(9)
    for _ in range(120):
        g = random_small_graph(rng, max_n=7)
        td = compute_decomposition(g)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.35}
        w_dp = dp_solve(g, td, pre)
        w_or = oracle.solve_exhaustive(g, pre)
        assert (w_dp is None) == (w_or is None)
        if w_dp is not None:
            assert is_proper(g, w_dp) and extends(w_dp, pre)


def test_dp_invariant_checks_pass():
    rng = random.Random(13)
    for _ in range(25):
        g = random_small_graph(rng, max_n=6)
        dp_solve(g, compute_decomposition(g), check_invariants=True)


def test_dp_invariant_checks_pass_with_preweights():
    # The pre-weights narrow each vertex's colour range and the gap checks;
    # every row the narrowed tables keep must still be a partial solution.
    rng = random.Random(19)
    k5 = Graph.build(5, list(itertools.combinations(range(5), 2)))
    cases = [
        (k5, {e: 1 for e in k5.edges if 0 in e}),  # vertex 0: every edge pre-weighted 1
        (C4, {(0, 1): 1, (1, 2): 0, (2, 3): 1, (0, 3): 0}),  # fully pre-weighted, proper
    ]
    for _ in range(30):
        g = random_small_graph(rng, max_n=6, p=0.55)
        cases.append((g, {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.4}))
        cases.append((g, {e: rng.randint(0, 1) for e in g.edges}))  # fully pre-weighted
        if g.edges:
            v = rng.choice([x for x in range(g.vertex_count) if g.degree(x)])
            cases.append((g, {e: 1 if v in e else rng.randint(0, 1) for e in g.edges if v in e or rng.random() < 0.3}))
    for g, pre in cases:
        w = dp_solve(g, compute_decomposition(g), pre, check_invariants=True)
        w_oracle = oracle.solve_exhaustive(g, pre)
        assert (w is None) == (w_oracle is None), (g.edges, pre)
        if w is not None:
            assert is_proper(g, w) and extends(w, pre)


def test_dp_field_width_follows_preweights():
    # K8 plus the pendant edge (0, 8): vertex 0 has degree 8, so 4-bit fields
    # over 8 slots need 64 bits.  Pre-weighting the pendant 0 caps vertex 0's
    # colour at 7, and 3-bit fields need 48.  The answer is no: the eight
    # clique vertices need eight distinct colours in 0..7, so one has colour
    # 7, adjacent to all the others by weight 1, and one has colour 0.
    g = Graph.build(9, list(itertools.combinations(range(8), 2)) + [(0, 8)])
    td = compute_decomposition(g)
    assert td.width() == 7
    with pytest.raises(CapacityError, match="64 bits"):
        run_dp(g, td)
    assert run_dp(g, td, {(0, 8): 0}).solution_edge_ids is None


def test_max_built_counts_the_tables_an_introduce_drops():
    # an introduce builds one table per listed edge and stores the last; on
    # K8 the largest table built, 8x the largest stored, is one it drops
    g = Graph.build(8, list(itertools.combinations(range(8), 2)))
    run = run_dp(g, compute_decomposition(g))
    assert (run.max_states, run.max_built, run.states_stored) == (70_560, 564_480, 138_249)


def test_state_counts_within_bound():
    rng = random.Random(17)
    for _ in range(40):
        g = random_small_graph(rng, max_n=7)
        td = compute_decomposition(g)
        run = run_dp(g, td)
        bound = (g.max_degree() + 1) ** (2 * (td.width() + 1))
        assert run.max_states <= run.max_built <= bound


def test_check_partial_solution_examples():
    ntd = nice_for(P3)
    leaves = [i for i, n in enumerate(ntd.nodes) if n.kind == "leaf"]
    assert check_partial_solution(P3, ntd, leaves[0], (), frozenset())
    # root holds the full solution subgraph with empty state
    assert check_partial_solution(P3, ntd, ntd.root, (), {(0, 1), (1, 2)})
    # an introduce node that lists edges, with all of them in h: corrupting
    # cd by +1 must fail
    for t, node in enumerate(ntd.nodes):
        if not node.edges:
            continue
        h = set(node.edges)
        state = []
        for v in node.bag:
            cd = sum(v in e for e in h)
            state.extend((P3.degree(v) if cd else 0, cd))  # P3's degrees differ across each edge
        if check_partial_solution(P3, ntd, t, tuple(state), h):
            corrupt = list(state)
            corrupt[1] += 1
            assert not check_partial_solution(P3, ntd, t, tuple(corrupt), h)
            break
    else:
        pytest.fail("no introduce node with edges accepted the probe state")


def test_check_partial_solution_rejects_foreign_edges():
    ntd = nice_for(C4)
    edge_sets = subtree_edge_sets(ntd)
    # find a node whose subtree misses some edge
    for t, node in enumerate(ntd.nodes):
        missing = set(C4.edges) - edge_sets[t]
        if missing and not node.bag:
            assert not check_partial_solution(C4, ntd, t, (), missing)
            break


# P3 = 0-1-2 eliminated from vertex 2: node 2 introduces 1 with (1, 2), node
# 3 has bag (1,) with 2 forgotten, node 4 introduces 0 with (0, 1), node 5
# has bag (0,) with 1 and 2 forgotten.
P3_FROM_2 = chain((IV, 2), (IV, 1, ((1, 2),)), (FORGET, 2), (IV, 0, ((0, 1),)), (FORGET, 1), (FORGET, 0))


@pytest.mark.parametrize(
    "node,state,h,ok",
    [
        (3, (2, 1), {(1, 2)}, True),
        (3, (), {(1, 2)}, False),  # a state of the wrong length
        (3, (2, 1, 0, 0), {(1, 2)}, False),
        (3, (1, 1), {(1, 2)}, False),  # fd(1) equals the h-degree of forgotten 2
        (5, (1, 1), {(0, 1), (1, 2)}, True),
        (5, (0, 0), {(1, 2)}, False),  # forgotten 1 and 2 both have h-degree 1
        # the introduce nodes, whose subtree edges include the edges they list
        (2, (2, 1, 1, 1), {(1, 2)}, True),
        (2, (2, 0, 1, 0), set(), True),  # the edge left out of h
        (2, (1, 1, 1, 1), {(1, 2)}, False),  # fd(1) equals fd(2) across (1, 2)
        (2, (2, 1, 1, 0), {(1, 2)}, False),  # cd(2) is not its h-degree
        (4, (1, 1, 2, 2), {(0, 1), (1, 2)}, True),
        (4, (1, 1, 1, 2), {(0, 1), (1, 2)}, False),  # fd(0) equals fd(1) across (0, 1)
        (4, (1, 1, 2, 1), {(0, 1), (1, 2)}, False),  # cd(1) is not its h-degree
    ],
)
def test_check_partial_solution_hand_built(node, state, h, ok):
    validate_nice(P3, P3_FROM_2)  # raises unless the hand-built decomposition is nice
    assert check_partial_solution(P3, P3_FROM_2, node, state, h) is ok


def test_dp_invariant_failure_is_a_contract_violation(monkeypatch):
    monkeypatch.setattr(_dp_tables, "_check_partial", lambda *args: False)
    with pytest.raises(ContractViolationError):
        run_dp(P3, compute_decomposition(P3), check_invariants=True)


def test_dp_invariant_checks_decode_rows_with_the_witness_walker(monkeypatch):
    # check mode decodes every stored row with the walker that builds the
    # witness, so a walker that loses an edge fails the check
    p4 = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    assert dp_solve(p4, compute_decomposition(p4), check_invariants=True) is not None
    walk = _dp_tables._witness_ids

    def dropping(*args):
        ids = walk(*args)
        return ids - {min(ids)} if ids else ids

    monkeypatch.setattr(_dp_tables, "_witness_ids", dropping)
    with pytest.raises(ContractViolationError):
        dp_solve(p4, compute_decomposition(p4), check_invariants=True)


def test_dp_degenerate_cases_match_brute_force():
    k4 = Graph.build(4, list(itertools.combinations(range(4), 2)))
    isolated = Graph.build(6, [(0, 1), (1, 2), (2, 3)])  # vertices 4 and 5 isolated
    cases = [
        (Graph.build(0, []), {}),
        (Graph.build(3, []), {}),
        (isolated, {}),
        (isolated, {(1, 2): 0}),
        (C4, {e: 1 for e in C4.edges}),  # every edge pre-weighted, improper
        (P3, {(0, 1): 1, (1, 2): 0}),  # every edge pre-weighted, proper
        (C4, {e: 0 for e in C4.edges}),
        (k4, {e: 0 for e in k4.edges[:3]}),  # all-0 pre-weights
        (k4, {k4.edges[0]: 0, k4.edges[5]: 1}),  # mixed pre-weights
        (C4, {(0, 1): 1, (2, 3): 0}),
    ]
    for g, pre in cases:
        w = dp_solve(g, compute_decomposition(g), pre, check_invariants=True)
        first, _ = brute_force_solve(g, pre)
        assert (w is None) == (first is None), (g.edges, pre)
        if w is not None:
            assert is_proper(g, w) and extends(w, pre)


# Sorted solution_edge_ids of random_graph(8 + s % 5, (0.3, 0.4, 0.5)[s % 3], s,
# pre_fraction=0.35) for s = 0..39, recorded from the dict-of-tuples engine
# this one replaced: the tie-break rule makes witnesses engine-independent.
GOLDEN_GNP_WITNESSES = [
    None,
    (3, 4, 8, 9, 10, 11, 12, 13, 15, 16),
    (0, 1, 2, 6, 8, 12, 16, 17),
    (0, 1, 3, 4, 5, 7, 8, 9),
    (5, 6, 9, 11, 13, 18, 25, 26, 27),
    None,
    (3, 6, 7, 8, 9),
    (1, 2, 5, 6, 7, 10, 11, 12, 13, 15, 19, 22, 23),
    (0, 1, 5, 6, 9, 13, 16, 18, 24, 25, 26, 29),
    (0, 1, 2, 3, 4, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 22, 24),
    (1, 2, 4, 6),
    (2, 3, 5, 8, 10, 13, 14, 16),
    (6, 7, 9, 10, 11, 13),
    (2, 3, 4, 7, 9, 12, 13, 14, 15, 16, 17, 18, 20),
    (4, 5, 8, 10, 11, 12, 13, 15, 18, 19, 22, 25, 26, 30, 31, 32, 34),
    (0, 6),
    (0, 1, 3, 5, 6, 7, 8, 11, 14, 15),
    None,
    (5, 6, 7, 9, 10, 13, 14, 15),
    (1, 5, 6, 8, 11, 12, 13, 15, 21, 22, 25, 27, 28, 30, 31),
    (0, 1, 5, 7, 8, 11, 12),
    (1, 5, 6, 7, 10),
    (0, 4, 5, 6, 9, 10, 11),
    (5, 6, 8, 9, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 27, 28, 30),
    (5, 7, 8, 10, 12, 13, 14),
    None,
    (0, 1, 2, 3, 4, 12, 13),
    None,
    (0, 1, 3, 4, 9, 12, 17, 18, 20, 23, 24, 25, 27, 30),
    (0, 3, 6, 15, 21, 22, 25, 26, 27, 28, 29, 32),
    (1, 2, 4, 5, 7),
    (2, 3, 5, 6, 7, 15, 16),
    (2, 5, 7, 8, 14, 16, 17, 19, 20, 21),
    (0, 5, 7, 8, 9, 11, 18),
    (3, 5, 8, 10, 12, 15, 20, 21, 24, 25),
    (4, 6, 9, 10, 11, 12),
    (0, 2, 3, 5),
    (0, 1, 3, 5, 7),
    (12, 16, 17, 18, 20, 22, 24, 25, 26),
    (0, 3, 4, 5, 6, 7, 13, 15, 18, 20),
]


def test_dp_witnesses_match_golden():
    for seed, expected in enumerate(GOLDEN_GNP_WITNESSES):
        g, pre = random_graph(8 + seed % 5, (0.3, 0.4, 0.5)[seed % 3], seed, pre_fraction=0.35)
        ids = run_dp(g, compute_decomposition(g), pre).solution_edge_ids
        assert (None if ids is None else tuple(sorted(ids))) == expected, seed


# (states_stored, max_states) of the same 40 runs, over the stored tables (an
# introduce's per-edge tables are built and dropped): a change to the pruning
# or to which tables are kept moves these, while the witnesses above must
# stay the same.
GOLDEN_GNP_COUNTS = [
    (23, 2),
    (2547, 720),
    (3542, 1116),
    (199, 40),
    (20617, 4290),
    (120, 24),
    (465, 60),
    (8475, 3716),
    (4293, 930),
    (10763, 4176),
    (39, 4),
    (4557, 1215),
    (1571, 160),
    (4844, 1455),
    (198507, 44160),
    (311, 69),
    (540, 144),
    (238, 21),
    (250, 32),
    (8619, 1470),
    (169, 48),
    (110, 12),
    (2801, 1316),
    (27076, 7704),
    (438, 42),
    (52, 8),
    (471, 105),
    (22, 6),
    (159163, 42960),
    (373305, 100464),
    (82, 18),
    (2965, 1152),
    (7812, 974),
    (7397, 2229),
    (24787, 5280),
    (2172, 342),
    (44, 2),
    (341, 40),
    (29939, 7983),
    (5861, 1440),
]


def test_dp_state_counts_match_golden():
    for seed, expected in enumerate(GOLDEN_GNP_COUNTS):
        g, pre = random_graph(8 + seed % 5, (0.3, 0.4, 0.5)[seed % 3], seed, pre_fraction=0.35)
        run = run_dp(g, compute_decomposition(g), pre)
        assert (run.states_stored, run.max_states) == expected, seed


def naive_introduce_edge(lay, keys, iu, iv, span_u, span_v, allow0, allow1):
    """Reference introduce-edge: both branches of every row as full arrays, then filter."""
    fd_u, cd_u = lay.fd(keys, iu), lay.cd(keys, iu)
    fd_v, cd_v = lay.fd(keys, iv), lay.cd(keys, iv)
    differ = fd_u != fd_v
    gap_u, gap_v = fd_u - cd_u, fd_v - cd_v
    (need_u, room_u), (need_v, room_v) = span_u, span_v
    cand = np.empty(2 * len(keys), dtype=np.int64)
    valid = np.zeros(2 * len(keys), dtype=bool)
    if allow1:
        cand[0::2] = keys + ((1 << (lay.slot * iu + lay.bits)) + (1 << (lay.slot * iv + lay.bits)))
        valid[0::2] = (differ & (gap_u > need_u) & (gap_v > need_v)
                       & (gap_u <= room_u + 1) & (gap_v <= room_v + 1))
    if allow0:
        cand[1::2] = keys
        valid[1::2] = differ & (gap_u >= need_u) & (gap_v >= need_v) & (gap_u <= room_u) & (gap_v <= room_v)
    picked = np.flatnonzero(valid)
    if allow0 and allow1 and len(picked) > 1:
        ck = cand[picked]
        order = np.argsort(ck)
        pair = np.flatnonzero(ck[order[1:]] == ck[order[:-1]])
        a, b = order[pair], order[pair + 1]
        winner = np.where(picked[a] & 1, picked[a], picked[b])
        keep = np.ones(len(picked), dtype=bool)
        keep[np.maximum(a, b)] = False
        picked[np.minimum(a, b)] = winner
        picked = picked[keep]
    return cand[picked], (picked >> 1).astype(np.int32), (1 - (picked & 1)).astype(np.int8)


def naive_join(lay, k1, k2, spans):
    """Reference join: every fd-matching (child-1, child-2) pair, then filter."""
    fdm = lay.fd_mask(len(spans))
    f2 = k2 & fdm
    order2 = np.argsort(f2, kind="stable")
    sorted2 = f2[order2]
    f1 = k1 & fdm
    lo = np.searchsorted(sorted2, f1, side="left")
    counts = np.searchsorted(sorted2, f1, side="right") - lo
    total = int(counts.sum())
    r1 = np.repeat(np.arange(len(k1), dtype=np.int32), counts)
    starts = np.cumsum(counts) - counts
    r2 = order2[np.arange(total) - np.repeat(starts - lo, counts)].astype(np.int32)
    a, b = k1[r1], k2[r2]
    ok = np.ones(total, dtype=bool)
    for i, (need, room) in enumerate(spans):
        gap = lay.fd(a, i) - lay.cd(a, i) - lay.cd(b, i)
        ok &= (gap >= need) & (gap <= room)
    rows = np.flatnonzero(ok)
    merged = a[rows] + (b[rows] & ~fdm)
    first = _dp_tables._first_occurrences(merged)
    rows = rows[first]
    return merged[first], r1[rows], r2[rows]


def random_table(rng, lay, size, rows, fd_values):
    """Distinct packed keys over `size` slots; fd drawn from `fd_values`, cd from 0..mask."""
    fields = [rng.choice(fd_values, (rows, size)), rng.integers(0, lay.mask + 1, (rows, size))]
    keys = sum((fields[0][:, i] << lay.fd_shift(i)) | (fields[1][:, i] << lay.cd_shift(i)) for i in range(size))
    keys = np.unique(np.asarray(keys, dtype=np.int64))
    return keys[rng.permutation(len(keys))]  # tables are not sorted


def assert_same_arrays(got, want):
    """Equal columns: an array in dtype and values, a list from a pure-Python twin in values."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(g, list):
            assert g == w.tolist()
        else:
            assert g.dtype == w.dtype and np.array_equal(g, w)


def twin(transition):
    """The pure-Python twin of a numpy transition, called with its tables as lists."""
    plain = getattr(_dp_tables, transition.__name__ + "_py")
    return lambda lay, *args: plain(lay, *(a.tolist() if isinstance(a, np.ndarray) else a for a in args))


# each transition test runs the numpy transition and its twin against one reference
JOINS = (_dp_tables._join, twin(_dp_tables._join))
INTRODUCE_EDGES = (_dp_tables._introduce_edge, twin(_dp_tables._introduce_edge))
INTRODUCE_VERTICES = (_dp_tables._introduce_vertex, twin(_dp_tables._introduce_vertex))


def random_spans(rng, size, mask, kind):
    spans = []
    for _ in range(size):
        need = int(rng.integers(0, mask + 1))
        tight = kind == "tight" or (kind == "mixed" and rng.random() < 0.5)
        spans.append((need, need if tight else int(rng.integers(need, mask + 1))))
    return spans


@pytest.mark.parametrize("chunk", [None, 1, 5])
@pytest.mark.parametrize("kind", ["tight", "loose", "mixed"])
def test_join_matches_naive(monkeypatch, kind, chunk):
    if chunk:
        monkeypatch.setattr(_dp_tables, "_CHUNK", chunk)
    rng = np.random.default_rng(["tight", "loose", "mixed"].index(kind))
    for trial in range(60):
        bits = int(rng.integers(1, 5))
        size = int(rng.integers(1, 4))
        lay = _dp_tables._Layout(bits)
        # few fd values make long runs of matching child-2 rows
        fd_values = rng.integers(0, lay.mask + 1, int(rng.integers(1, 3)))
        k1 = random_table(rng, lay, size, int(rng.integers(0, 40)), fd_values)
        k2 = random_table(rng, lay, size, int(rng.integers(0, 40)), fd_values)
        spans = random_spans(rng, size, lay.mask, kind)
        for join in JOINS:
            assert_same_arrays(join(lay, k1, k2, spans), naive_join(lay, k1, k2, spans))


def test_join_empty_children():
    lay = _dp_tables._Layout(2)
    rng = np.random.default_rng(7)
    table = random_table(rng, lay, 2, 20, [0, 1, 2, 3])
    empty = np.zeros(0, dtype=np.int64)
    for k1, k2 in ((empty, table), (table, empty), (empty, empty)):
        for spans, join in itertools.product(([(0, 0), (1, 1)], [(0, 3), (0, 2)]), JOINS):
            got = join(lay, k1, k2, spans)
            assert all(len(a) == 0 for a in got)
            assert_same_arrays(got, naive_join(lay, k1, k2, spans))


def test_join_chunk_boundary_inside_one_rows_matches(monkeypatch):
    # every child-1 row matches all 12 child-2 rows; 5-pair blocks end inside
    # a row's run, 1-row chunks hold one child-1 row each
    lay = _dp_tables._Layout(3)

    def key(cd0, cd1):
        return (2 << lay.fd_shift(0)) | (cd0 << lay.cd_shift(0)) | (7 << lay.fd_shift(1)) | (cd1 << lay.cd_shift(1))

    k1 = np.array([key(1, 0), key(0, 0), key(2, 0)], dtype=np.int64)
    k2 = np.array([key(c, j) for j in (2, 0, 3, 1) for c in (0, 2, 1)], dtype=np.int64)
    for spans in ([(0, 2), (0, 7)], [(0, 2), (4, 4)]):
        want = naive_join(lay, k1, k2, spans)
        assert len(want[0]) > 1
        for chunk in (1, 2, 5):
            monkeypatch.setattr(_dp_tables, "_CHUNK", chunk)
            for join in JOINS:
                assert_same_arrays(join(lay, k1, k2, spans), want)


def test_join_tight_slot_with_negative_wanted_cd1_matches_nothing():
    # one tight slot, need 2: child-2 row 0 (fd 3, cd2 2) would want cd1 = -1,
    # so it pairs with nothing, not with the cd1 = 7 row that -1 & mask names;
    # row 1 (cd2 0) wants cd1 = 1
    lay = _dp_tables._Layout(3)

    def key(cd):
        return (3 << lay.fd_shift(0)) | (cd << lay.cd_shift(0))

    k1 = np.array([key(7), key(1), key(0)], dtype=np.int64)
    k2 = np.array([key(2), key(0)], dtype=np.int64)
    want = (np.array([key(1)], dtype=np.int64), np.array([1], dtype=np.int32), np.array([1], dtype=np.int32))
    assert_same_arrays(naive_join(lay, k1, k2, [(2, 2)]), want)
    for join in JOINS:
        assert_same_arrays(join(lay, k1, k2, [(2, 2)]), want)


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("allow0,allow1", [(True, True), (True, False), (False, True), (False, False)])
def test_introduce_edge_matches_naive(monkeypatch, allow0, allow1, chunk):
    if chunk:
        monkeypatch.setattr(_dp_tables, "_CHUNK", chunk)
    rng = np.random.default_rng(2 * allow0 + allow1)
    for trial in range(80):
        bits = int(rng.integers(1, 8))
        size = int(rng.integers(2, 4))
        lay = _dp_tables._Layout(bits)
        keys = random_table(rng, lay, size, int(rng.integers(0, 60)), np.arange(lay.mask + 1))
        iu, iv = sorted(rng.choice(size, 2, replace=False).tolist())
        span_u, span_v = random_spans(rng, 2, lay.mask, "mixed")
        args = (lay, keys, iu, iv, span_u, span_v, allow0, allow1)
        for introduce_edge in INTRODUCE_EDGES:
            assert_same_arrays(introduce_edge(*args), naive_introduce_edge(*args))


def naive_introduce_vertex(lay, keys, pos, lo, hi):
    """Reference introduce-vertex: low and high parts as separate arrays."""
    shift = lay.slot * pos
    low = keys & ((1 << shift) - 1)
    high = (keys >> shift) << (shift + lay.slot)
    fds = np.arange(lo, hi + 1, dtype=np.int64) << shift
    out = ((low | high)[:, None] | fds[None, :]).ravel()
    return out, np.repeat(np.arange(len(keys), dtype=_dp_tables._ROW), hi - lo + 1)


def test_introduce_vertex_matches_naive():
    rng = np.random.default_rng(11)
    for trial in range(80):
        bits = int(rng.integers(1, 8))
        size = int(rng.integers(0, 4))
        lay = _dp_tables._Layout(bits)
        keys = random_table(rng, lay, size, int(rng.integers(0, 60)), np.arange(lay.mask + 1))
        pos = int(rng.integers(0, size + 1))
        lo = int(rng.integers(0, lay.mask + 1))
        hi = int(rng.integers(lo, lay.mask + 1))
        args = (lay, keys, pos, lo, hi)
        for introduce_vertex in INTRODUCE_VERTICES:
            assert_same_arrays(introduce_vertex(*args), naive_introduce_vertex(*args))


def test_introduce_edge_keeps_weight0_on_collision(monkeypatch):
    # row 0's weight-1 branch and row 1's weight-0 branch give the same key:
    # it keeps row 0's position and row 1's weight-0 derivation, also when
    # the two rows fall in different chunks.  In the other order, row 0's
    # weight-0 branch comes first and row 1's weight-1 duplicate is dropped
    lay = _dp_tables._Layout(3)
    base = (3 << lay.fd_shift(0)) | (1 << lay.fd_shift(1))
    step = (1 << lay.cd_shift(0)) | (1 << lay.cd_shift(1))
    cases = [
        # row 2 has cd_v > fd_v and row 1 no room for weight 1 at v
        ([base, base + step, base + 2 * step], [1, 0]),
        # row 0 has no room for weight 1 at v
        ([base + step, base], [0, 1]),
    ]
    for rows, src in cases:
        keys = np.array(rows, dtype=np.int64)
        want = (np.array([base + step, base], dtype=np.int64), np.array(src, dtype=np.int32),
                np.array([0, 0], dtype=np.int8))
        for chunk in (None, 1, 2):
            if chunk:
                monkeypatch.setattr(_dp_tables, "_CHUNK", chunk)
            for introduce_edge in INTRODUCE_EDGES:
                got = introduce_edge(lay, keys, 0, 1, (0, 3), (0, 1), True, True)
                assert_same_arrays(got, want)
                assert_same_arrays(got, naive_introduce_edge(lay, keys, 0, 1, (0, 3), (0, 1), True, True))


def test_dp_tables_match_under_small_chunks(monkeypatch):
    # whole runs with chunks of 3 rows or pairs: same witnesses and counts
    cases = [random_graph(8 + seed % 5, (0.3, 0.4, 0.5)[seed % 3], seed, pre_fraction=0.35) for seed in range(12)]
    want = [run_dp(g, compute_decomposition(g), pre) for g, pre in cases]
    monkeypatch.setattr(_dp_tables, "_CHUNK", 3)
    for (g, pre), run in zip(cases, want):
        got = run_dp(g, compute_decomposition(g), pre)
        assert (got.solution_edge_ids, got.state_counts) == (run.solution_edge_ids, run.state_counts)


# sha256 of the per-node state counts of the 40 golden runs, as JSON
GOLDEN_GNP_NODE_COUNTS_SHA = "5fc75b4cc747510c"


@pytest.mark.parametrize("small", [0, 1 << 40], ids=["numpy", "python"])
def test_dp_tables_match_across_the_size_switch(monkeypatch, small):
    # whole runs over the golden graphs (the small-chunk corpus is their first
    # 12), with every table on the numpy path (only empty ones reach a twin at
    # a cutoff of 0) or every table on the twins: same witnesses, same counts
    monkeypatch.setattr(_dp_tables, "_SMALL", small)
    counts = []
    for seed, (witness, stored_max) in enumerate(zip(GOLDEN_GNP_WITNESSES, GOLDEN_GNP_COUNTS)):
        g, pre = random_graph(8 + seed % 5, (0.3, 0.4, 0.5)[seed % 3], seed, pre_fraction=0.35)
        run = run_dp(g, compute_decomposition(g), pre)
        ids = run.solution_edge_ids
        assert (None if ids is None else tuple(sorted(ids))) == witness, seed
        assert (run.states_stored, run.max_states) == stored_max, seed
        counts.append(run.state_counts)
    assert hashlib.sha256(json.dumps(counts).encode()).hexdigest()[:16] == GOLDEN_GNP_NODE_COUNTS_SHA


def test_introduce_vertex_twin_writes_at_most_small_rows(monkeypatch):
    # the switch weighs the rows an introduce-vertex writes, the child's rows
    # times its fd values, not the child's rows alone: past _SMALL rows
    # written, the numpy form is the faster one
    written = []
    twin = _dp_tables._introduce_vertex_py

    def recorded(*args):
        out = twin(*args)
        written.append(len(out[0]))
        return out

    monkeypatch.setattr(_dp_tables, "_introduce_vertex_py", recorded)
    for seed in range(len(GOLDEN_GNP_WITNESSES)):
        g, pre = random_graph(8 + seed % 5, (0.3, 0.4, 0.5)[seed % 3], seed, pre_fraction=0.35)
        run_dp(g, compute_decomposition(g), pre)
    assert written and max(written) <= _dp_tables._SMALL


def test_forget_checks_fd_equals_cd_under_invariants(monkeypatch):
    # colour ranges wider than the degrees leave rows with fd > cd at a
    # forget; with the partial-solution check switched off, the forget's own
    # check must still catch them.  P3's tables are small, so they are lists
    # on the twins' path; at a cutoff of 0 they are arrays
    monkeypatch.setattr(_dp_tables, "_check_partial", lambda *args: True)
    ntd = nice_for(P3)
    for small in (_dp_tables._SMALL, 0):
        monkeypatch.setattr(_dp_tables, "_SMALL", small)
        _dp_tables.run(P3, ntd, {}, [0, 0, 0], [3, 3, 3], [3, 3, 3], 2, False)
        with pytest.raises(ContractViolationError, match="fd != cd"):
            _dp_tables.run(P3, ntd, {}, [0, 0, 0], [3, 3, 3], [3, 3, 3], 2, True)


def _colors(g, edge_ids):
    colors = [0] * g.vertex_count
    for i in edge_ids:
        for v in g.edges[i]:
            colors[v] += 1
    return colors


def _lo(g, pre):
    """Each vertex's pre-weighted colour: its count of edges pre-weighted 1."""
    return [sum(pre.get(e, 0) for e in g.edges if v in e) for v in range(g.vertex_count)]


def test_ceiling_caps_the_witness():
    # every witness of a run under a gain is proper, extends pre and keeps
    # each colour within the gain over its pre-weighted colour; check mode
    # decodes every stored row too
    rng = random.Random(83)
    for trial in range(150):
        g = random_small_graph(rng, max_n=7)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.3}
        gain = rng.randint(0, 4)
        run = run_dp(g, compute_decomposition(g), pre, gain=gain, check_invariants=trial % 5 == 0)
        if run.solution_edge_ids is not None:
            w = from_subgraph(g, (g.edges[i] for i in run.solution_edge_ids))
            assert is_proper(g, w) and extends(w, pre)
            assert all(c <= low + gain for c, low in zip(_colors(g, run.solution_edge_ids), _lo(g, pre)))


# (name, graph, pre-weights, gain, answer); a bound is a gain over the
# pre-weighted colour, which is 0 where there are no pre-weights
COLOR_BOUND_EDGES = [
    # pre-weighted ones give vertex 1 colour 1 (2 in the third case) before any
    # free edge: a cap below that opens no fd value there
    ("ceiling below the pre-weighted colour", P3, {(0, 1): 1}, -1, False),
    ("ceiling two below it", P3, {(0, 1): 1, (1, 2): 1}, -2, False),
    ("ceiling at the pre-weighted colour", P3, {(0, 1): 1}, 0, False),
    ("ceiling above it", P3, {(0, 1): 1}, 1, True),
    ("negative bound", P3, {}, -1, False),
    ("negative bound, one isolated vertex", Graph.build(1, []), {}, -3, False),
    ("negative bound, no vertices", Graph.build(0, []), {}, -1, True),
    ("bound of 2^70", C4, {}, 1 << 70, True),
    ("numpy integer bound", C4, {}, np.int64(2), True),
]


@pytest.mark.parametrize("name, g, pre, gain, answer", COLOR_BOUND_EDGES, ids=[case[0] for case in COLOR_BOUND_EDGES])
def test_color_bound_edge_cases(name, g, pre, gain, answer):
    assert exists_with_color_bound(g, pre, gain) is answer


# a list or a mapping of per-vertex caps is no gain, and fails loudly
@pytest.mark.parametrize(
    "gain, message",
    [
        (1.5, "gain must be an integer, not float"),
        (True, "gain must be an integer, not bool"),
        ("2", "gain must be an integer, not str"),
        ([2, 2, 2], "gain must be an integer, not list"),
        ({1: 2}, "gain must be an integer, not dict"),
    ],
)
def test_color_bound_rejects_non_integers(gain, message):
    for check in (lambda: exists_with_color_bound(P3, None, gain), lambda: run_dp(P3, compute_decomposition(P3), gain=gain)):
        with pytest.raises(TypeError) as info:
            check()
        assert str(info.value) == message


def test_ceiling_keeps_the_field_width():
    # the K8-plus-pendant graph of test_dp_field_width_follows_preweights:
    # a gain of 7 (a cap of 7, with no pre-weights) does not narrow the 4-bit
    # fields, which also hold the edge counts need and room
    g = Graph.build(9, list(itertools.combinations(range(8), 2)) + [(0, 8)])
    with pytest.raises(CapacityError, match="64 bits"):
        run_dp(g, compute_decomposition(g), gain=7)


_SEED_481 = """
import json, resource, sys
from vcew.graph import Graph
from vcew.treewidth import compute_decomposition, run_dp
n, edges = json.loads(sys.argv[1])
g = Graph.build(n, [tuple(e) for e in edges])
run = run_dp(g, compute_decomposition(g))
print(json.dumps([run.solution_edge_ids is not None, run.max_states, run.states_stored, run.max_built,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def test_dp_memory_on_largest_sweep_graph():
    # The seed-481 graph of the criterion-1 random corpus (9 vertices, 28
    # edges, width 6) has the largest DP tables of that sweep: 7.3M rows
    # built inside one introduce, 5.2M stored.  Its transitions used to
    # allocate 912 MB; a fresh process must now stay below 600 MB (ru_maxrss
    # is in KiB on Linux).
    from tests.test_acceptance import _random_corpus_n9

    g = _random_corpus_n9()[481]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _SEED_481, json.dumps([g.vertex_count, g.edges])],
                          env=env, capture_output=True, text=True, check=True)
    decided, max_states, stored, max_built, maxrss_kib = json.loads(proc.stdout)
    assert (decided, max_states, stored, max_built) == (True, 5_230_150, 7_526_017, 7_322_210)
    assert maxrss_kib < 600 * 1024, f"ru_maxrss {maxrss_kib // 1024} MiB"
