import hashlib
import random

import pytest

from vcew import oracle, preweight
from vcew.errors import UnsupportedVariantError
from vcew.graph import Graph, GraphBuilder, edge_key, extends, is_proper
from vcew.preweight import (
    apply_reduction,
    deletion_log_text,
    ones_only,
    refine_classes,
    solve_prewt,
)
from vcew.vertex_cover import color_budget, maximal_matching_cover, minimum_vertex_cover
from tests.conftest import random_small_graph


def twin_star(twins: int) -> Graph:
    b = GraphBuilder(1)
    for _ in range(twins):
        m = b.add_vertex()
        b.add_edge(0, m)
    return b.build()


def test_ones_only_rejects_zero_preweights():
    with pytest.raises(UnsupportedVariantError):
        ones_only({(0, 1): 0})
    assert ones_only({(0, 1): 1}) == frozenset({(0, 1)})


def test_refine_collapses_without_preweights():
    g = twin_star(4)
    classes = refine_classes(g, [], [0])
    assert len(classes) == 1
    assert classes[0].s2 == frozenset()
    assert classes[0].members == (1, 2, 3, 4)


def test_refine_separates_different_patterns():
    g = twin_star(2)
    classes = refine_classes(g, [(0, 1)], [0])
    assert len(classes) == 2
    keys = {(tuple(sorted(c.s1)), tuple(sorted(c.s2))) for c in classes}
    assert keys == {((0,), (0,)), ((0,), ())}


def test_class_count_bounded_by_3_to_k():
    rng = random.Random(3)
    for _ in range(60):
        g = random_small_graph(rng, max_n=9)
        cover = maximal_matching_cover(g)
        e1 = [e for e in g.edges if rng.random() < 0.4]
        classes = refine_classes(g, e1, cover)
        assert len(classes) <= 3 ** len(cover) if cover else len(classes) <= 1


def test_apply_reduction_identity_when_small():
    g = twin_star(5)
    red = apply_reduction(g, [], 1)
    assert red.deletions == ()
    assert red.graph.edges == g.edges


def test_apply_reduction_strips_oversized_class():
    # k=1: cap is 17; 20 fully-unweighted twins trigger the rule
    g = twin_star(20)
    red = apply_reduction(g, [], 1)
    assert len(red.deletions) == 3
    for u, gone in red.deletions:
        assert all(u in e for e in gone)
    # stripped members keep only pre-weighted edges (none here)
    assert len(red.graph.edges) == 17
    limit = 1 * 0 + 3 * (color_budget(1) + 1)
    assert len(red.graph.edges) <= limit


def test_apply_reduction_preserves_decision():
    rng = random.Random(9)
    for trial in range(40):
        g = twin_star(rng.randint(18, 24))
        e1 = frozenset(e for e in g.edges if rng.random() < 0.2)
        red = apply_reduction(g, e1, 1)
        pre = {e: 1 for e in e1}
        if len(g.edges) > 26:
            continue
        a = oracle.solve_exhaustive(g, pre) is not None
        b = oracle.solve_exhaustive(red.graph, {e: 1 for e in e1}) is not None
        assert a == b


def test_single_rule_application_is_safe():
    rng = random.Random(29)
    for trial in range(30):
        g = twin_star(rng.randint(18, 22))
        red = apply_reduction(g, [], 1)
        if not red.deletions:
            continue
        # replay only the first deletion
        first_gone = set(red.deletions[0][1])
        h = Graph.build(g.vertex_count, [e for e in g.edges if e not in first_gone])
        a = oracle.solve_exhaustive(g) is not None
        b = oracle.solve_exhaustive(h) is not None
        assert a == b


def test_solve_prewt_base_problem_degenerates():
    rng = random.Random(13)
    for _ in range(40):
        g = random_small_graph(rng, max_n=6)
        _, k = minimum_vertex_cover(g)
        a = solve_prewt(g, frozenset(), k)
        b = oracle.solve_exhaustive(g)
        assert (a is None) == (b is None)


def test_solve_prewt_k2_preweighted_no():
    k2 = Graph.build(2, [(0, 1)])
    assert solve_prewt(k2, [(0, 1)], 1) is None


def test_solve_prewt_matches_oracle_over_extensions():
    rng = random.Random(17)
    for _ in range(100):
        g = random_small_graph(rng, max_n=7)
        e1 = frozenset(e for e in g.edges if rng.random() < 0.35)
        _, k = minimum_vertex_cover(g)
        a = solve_prewt(g, e1, k)
        b = oracle.solve_exhaustive(g, {e: 1 for e in e1})
        assert (a is None) == (b is None)
        if a is not None:
            assert is_proper(g, a) and extends(a, {e: 1 for e in e1})


def test_solve_prewt_rejects_missing_edges():
    g = Graph.build(3, [(0, 1)])
    with pytest.raises(ValueError):
        solve_prewt(g, [(1, 2)], 1)


def test_deletion_log_text():
    g = twin_star(20)
    red = apply_reduction(g, [], 1)
    text = deletion_log_text(red)
    lines = text.splitlines()
    assert len(lines) == len(red.deletions)
    assert all(line.startswith("deleted ") for line in lines)
    # first pick is the smallest twin id (vertex 2 on the wire)
    assert lines[0].startswith("deleted 2: 1-2")


def planted_twins(seed: int, k: int, sizes: dict, cover_edge: int | None = None):
    """k cover vertices plus planted non-cover twins, with shuffled ids.

    ``sizes`` maps (s1, s2), tuples of cover positions with s2 inside s1, to
    a member count: each member is joined to the cover vertices of s1, and
    its edges to those of s2 are pre-weighted.  ``cover_edge`` adds an edge
    between the first two cover vertices, pre-weighted when it is 1.
    """
    rng = random.Random(seed)
    keys = [key for key, count in sizes.items() for _ in range(count)]
    ids = list(range(k + len(keys)))
    rng.shuffle(ids)
    cover = ids[:k]
    edges, e1 = [], []
    for v, (s1, s2) in zip(ids[k:], keys):
        for i in s1:
            edges.append(edge_key(v, cover[i]))
            if i in s2:
                e1.append(edge_key(v, cover[i]))
    if cover_edge is not None:
        edges.append(edge_key(cover[0], cover[1]))
        if cover_edge:
            e1.append(edge_key(cover[0], cover[1]))
    return Graph.build(len(ids), edges), e1, cover


# Recorded with the rule applied one member at a time, the refined classes
# recomputed after every deletion.  Caps: 17 for k = 1, 97 for k = 2.
# (seed, k, class sizes, cover edge, deletions, edges left, sha256[:16] of the log)
REDUCTION_GOLDEN = [
    # one oversized unweighted class; an oversized fully pre-weighted class
    # (s1 == s2) and isolated vertices are skipped
    (1, 1, {((0,), ()): 21, ((0,), (0,)): 25, ((), ()): 3}, None, 4, 42, "32855c831d26b7d6"),
    # a class of exactly cap members stays whole
    (2, 1, {((0,), ()): 17, ((0,), (0,)): 2}, None, 0, 19, "e3b0c44298fc1c14"),
    # several oversized classes, one of exactly cap, one with s1 == s2
    (3, 2, {((0,), ()): 97, ((1,), ()): 100, ((0, 1), ()): 103, ((0, 1), (0,)): 99,
            ((0, 1), (1,)): 98, ((0, 1), (0, 1)): 110, ((1,), (1,)): 5}, 1, 12, 1005, "e9176bcf71f076ec"),
    (4, 2, {((0,), ()): 120, ((0,), (0,)): 100, ((1,), ()): 96, ((0, 1), ()): 98,
            ((0, 1), (1,)): 130, ((), ()): 4}, 0, 57, 715, "62a618a64d0eafeb"),
    # pre-weights split one neighborhood class four ways
    (5, 2, {((0, 1), ()): 101, ((0, 1), (0,)): 102, ((0, 1), (1,)): 97, ((0, 1), (0, 1)): 104},
     None, 9, 795, "87d33a4fe527e2bd"),
]


@pytest.mark.parametrize("seed,k,sizes,cover_edge,deleted,edges_left,log_digest", REDUCTION_GOLDEN)
def test_apply_reduction_golden(seed, k, sizes, cover_edge, deleted, edges_left, log_digest):
    g, e1, cover = planted_twins(seed, k, sizes, cover_edge)
    red = apply_reduction(g, e1, k)
    assert red.cover == tuple(sorted(cover))
    assert red.e1 == frozenset(e1)
    assert len(red.deletions) == deleted
    assert len(red.graph.edges) == edges_left
    assert hashlib.sha256(deletion_log_text(red).encode()).hexdigest()[:16] == log_digest
    gone = {e for _, edges in red.deletions for e in edges}
    assert red.graph.edges == tuple(e for e in g.edges if e not in gone)
    # the rule is exhausted: no class with unweighted edges is above the cap
    cap = k * color_budget(k) + 1
    assert all(len(c.members) <= cap for c in refine_classes(red.graph, e1, cover) if c.s1 != c.s2)
    assert apply_reduction(g, e1, k, cover=cover) == red


def test_apply_reduction_refines_and_builds_once(monkeypatch):
    g, e1, cover = planted_twins(*REDUCTION_GOLDEN[3][:4])
    calls = {"refine": 0, "build": 0}
    refine, build = preweight.refine_classes, Graph.build

    def counted_refine(*args):
        calls["refine"] += 1
        return refine(*args)

    def counted_build(*args):
        calls["build"] += 1
        return build(*args)

    monkeypatch.setattr(preweight, "refine_classes", counted_refine)
    monkeypatch.setattr(Graph, "build", staticmethod(counted_build))
    red = apply_reduction(g, e1, 2, cover=cover)
    assert len(red.deletions) == 57
    assert calls == {"refine": 1, "build": 1}


def test_apply_reduction_rejects_a_set_that_is_not_a_cover():
    g = twin_star(20)
    with pytest.raises(ValueError):
        apply_reduction(g, [], 1, cover=[1])
