"""The MILP reference, which shares no code with any route, against the
exhaustive oracle and the treewidth DP."""

import pytest

from vcew import oracle
from vcew.generators import random_graph
from vcew.graph import extends, is_proper
from vcew.treewidth import compute_decomposition, dp_solve

pytest.importorskip("scipy")
from tests.milp_reference import milp_solve  # noqa: E402


def test_milp_agrees_with_the_oracle_on_atlas(atlas):
    graphs = [g for g in atlas if len(g.edges) <= 10]
    assert len(graphs) == 475
    answers = set()
    for g in graphs:
        w = milp_solve(g.vertex_count, g.edges)
        assert (w is None) == (oracle.solve_exhaustive(g) is None), g.edges
        if w is not None:
            assert is_proper(g, w)
        answers.add(w is None)
    assert answers == {True, False}


def test_milp_agrees_with_the_dp_on_mixed_preweights():
    answers = set()
    for seed in range(80):
        g, pre = random_graph(5 + seed % 6, (0.3, 0.45, 0.6)[seed % 3], seed, pre_fraction=0.4)
        w = milp_solve(g.vertex_count, g.edges, pre)
        w_dp = dp_solve(g, compute_decomposition(g), pre)
        assert (w is None) == (w_dp is None), (seed, g.edges, pre)
        if w is not None:
            assert is_proper(g, w) and extends(w, pre)
        answers.add(w is None)
    assert answers == {True, False}
