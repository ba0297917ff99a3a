"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Corpora are seeded and fixed; decision comparisons are
exact (tolerance zero).
"""

import itertools
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from vcew import io, oracle
from vcew.generators import pinned_chain_host, planted_twin_graph, random_graph
from vcew.graph import Graph, GraphBuilder, edge_key, extends, is_proper
from vcew.listcolor import (
    ListColoringInstance,
    brute_force_list_coloring,
    is_proper_list_coloring,
)
from vcew.preweight import apply_reduction, solve_prewt
from vcew.reduction import (
    add_suspended_path,
    add_type_a,
    build_reduction,
    extract_coloring,
    small_chain_scale,
    solve_reduced,
    verify_fvs_bound,
    witness_weighting,
)
from vcew.treewidth import (
    check_partial_solution,
    compute_decomposition,
    exists_with_color_bound,
    make_nice,
    run_dp,
    subtree_edge_sets,
    validate_nice,
)
from vcew.vertex_cover import (
    class_cap,
    color_budget,
    exact_vertex_cover,
    kernelize,
    solve_vc,
)


def _report(criterion: str, detail: str, started: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {time.time() - started:.1f}s)")


def _seeded_preweightings(g: Graph, seed: int, draws: int = 2):
    rng = random.Random(seed)
    pres = [{}]
    for _ in range(draws):
        pres.append({e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.35})
    return pres


def _random_corpus_n9():
    graphs = []
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        p = rng.choice([0.25, 0.4, 0.6])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        graphs.append(Graph.build(n, edges))
    return graphs


def _planted_corpus(count: int, seed_base: int):
    """Twin-class instances with n <= 15, sized to stay inside the oracle
    capacity so both pipeline and oracle can run them."""
    out = []
    for i in range(count):
        rng = random.Random(seed_base + i)
        k = rng.randint(1, 3)
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
        g = planted_twin_graph(
            k, sizes, seed=seed_base + i, cover_edge_p=0.3, max_edges=26
        )
        if g.vertex_count <= 15:
            out.append(g)
    assert len(out) >= count * 0.9
    return out


@pytest.fixture(scope="module")
def dp_sweep(atlas):
    """Criterion-1 sweep, shared with criterion 9's state-count assertion."""
    mismatches = []
    bound_violations = []
    runs = 0
    for idx, g in enumerate(atlas):
        td = compute_decomposition(g)
        bound = (g.max_degree() + 1) ** (2 * (td.width() + 1))
        for pre in _seeded_preweightings(g, seed=idx):
            run = run_dp(g, td, pre)
            runs += 1
            if run.max_states > bound:
                bound_violations.append(idx)
            w_or = oracle.solve_exhaustive(g, pre)
            dp_yes = run.solution_edge_ids is not None
            if dp_yes != (w_or is not None):
                mismatches.append(idx)
            if dp_yes:
                w = {e: 0 for e in g.edges}
                for i in run.solution_edge_ids:
                    w[g.edges[i]] = 1
                if not (is_proper(g, w) and extends(w, pre)):
                    mismatches.append(idx)
    for seed, g in enumerate(_random_corpus_n9()):
        td = compute_decomposition(g)
        bound = (g.max_degree() + 1) ** (2 * (td.width() + 1))
        for pre in _seeded_preweightings(g, seed=10_000 + seed, draws=1):
            run = run_dp(g, td, pre)
            runs += 1
            if run.max_states > bound:
                bound_violations.append(("rand", seed))
            w_or = oracle.solve_exhaustive(g, pre)
            dp_yes = run.solution_edge_ids is not None
            if dp_yes != (w_or is not None):
                mismatches.append(("rand", seed))
            if dp_yes:
                w = {e: 0 for e in g.edges}
                for i in run.solution_edge_ids:
                    w[g.edges[i]] = 1
                if not (is_proper(g, w) and extends(w, pre)):
                    mismatches.append(("rand", seed))
    return {"mismatches": mismatches, "bound_violations": bound_violations, "runs": runs}


def test_criterion_01_oracle_dp_equivalence(dp_sweep):
    started = time.time()
    assert dp_sweep["mismatches"] == []
    _report("1 oracle-dp-equivalence", f"{dp_sweep['runs']} runs", started)


def test_criterion_01_nice_decompositions_validate(atlas):
    # run_dp trusts make_nice's output; check that output on the whole
    # criterion-1 corpus instead
    corpus = atlas + _random_corpus_n9()
    for g in corpus:
        validate_nice(g, make_nice(compute_decomposition(g), g))
    assert len(corpus) == 996 + 500


@pytest.fixture(scope="module")
def vc_corpus(atlas):
    small = [g for g in atlas if exact_vertex_cover(g, 3) is not None]
    return small + _planted_corpus(200, seed_base=50_000)


def test_criterion_02_oracle_vc_equivalence(vc_corpus):
    started = time.time()
    for g in vc_corpus:
        w_vc = solve_vc(g)
        w_or = oracle.solve_exhaustive(g)
        assert (w_vc is None) == (w_or is None)
        if w_vc is not None:
            assert is_proper(g, w_vc)
    _report("2 oracle-vc-equivalence", f"{len(vc_corpus)} instances", started)


def test_criterion_03_kernel_bounds(vc_corpus):
    started = time.time()
    assert class_cap(2) == 193
    checked = 0
    for g in vc_corpus + [planted_twin_graph(2, [500], seed=1, full_sig=True)]:
        kernel = kernelize(g)
        k = kernel.k_matching
        assert all(size <= kernel.cap for size in kernel.class_sizes_after)
        assert kernel.graph.vertex_count <= 2 * k + 4**k * kernel.cap
        checked += 1
    _report("3 kernel-bounds", f"{checked} kernelizations", started)


def test_criterion_04_bounded_color_lemma(atlas):
    started = time.time()
    checked = 0
    for g in atlas:
        cover = exact_vertex_cover(g, 2)
        if cover is None:
            continue
        k = len(cover)
        for probe in range(k):
            if exact_vertex_cover(g, probe) is not None:
                k = probe
                break
        if k == 0 or k > 2:
            continue
        if oracle.solve_exhaustive(g) is None:
            continue
        assert exists_with_color_bound(g, {}, color_budget(k))
        checked += 1
    assert checked >= 40  # the atlas holds 49 such yes-instances
    _report("4 bounded-color-lemma", f"{checked} yes-instances with k<=2", started)


def _smallest_gain(g: Graph, pre) -> int | None:
    """The least max_v (colour(v) - lo(v)) over the proper extensions of
    pre, lo(v) being v's pre-weighted colour, by enumerating every
    completion of the free edges; None when no extension is proper."""
    free = [e for e in g.edges if e not in pre]
    lo = np.zeros(g.vertex_count, dtype=np.int64)
    for (u, v), value in pre.items():
        lo[[u, v]] += value
    completions = (np.arange(1 << len(free))[:, None] >> np.arange(len(free))) & 1
    incidence = np.zeros((len(free), g.vertex_count), dtype=np.int64)
    for i, (u, v) in enumerate(free):
        incidence[i, [u, v]] = 1
    gains = completions @ incidence  # colour(v) - lo(v), one row per completion
    colors = gains + lo
    eu, ev = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    proper = (colors[:, eu] != colors[:, ev]).all(axis=1)
    return int(gains[proper].max(axis=1).min()) if proper.any() else None


def test_criterion_05_preweighting_pipeline(atlas):
    started = time.time()
    checked = gain_checked = brute_checked = 0
    corpora = [(idx, g) for idx, g in enumerate(atlas)]
    corpora += [(90_000 + i, g) for i, g in enumerate(_planted_corpus(200, seed_base=90_000))]
    for idx, g in corpora:
        rng = random.Random(77_000 + idx)
        e1 = frozenset(e for e in g.edges if rng.random() < 0.35)
        k = None
        for probe in range(g.vertex_count + 1):
            if exact_vertex_cover(g, probe) is not None:
                k = probe
                break
        keff = max(k, 1)
        red = apply_reduction(g, e1, keff)
        residual = sum(1 for e in red.graph.edges if e not in red.e1)
        limit = keff * (keff - 1) + 3**keff * (keff * color_budget(keff) + 1)
        assert residual <= limit
        w_p = solve_prewt(g, e1, keff)
        w_o = oracle.solve_exhaustive(g, {e: 1 for e in e1})
        assert (w_p is None) == (w_o is None)
        checked += 1
        if w_p is not None:
            pre = {e: 1 for e in e1}
            assert is_proper(g, w_p) and extends(w_p, pre)
            # the least gain with a witness is at most 8k^2 + 8k (every colour at
            # most its pre-weighted colour plus that); the scan up from 0 has
            # seen "no" at every gain below it
            gain = next((c for c in range(color_budget(k) + 1) if exists_with_color_bound(g, pre, c)), None)
            assert gain is not None
            gain_checked += 1
            if len(g.edges) - len(pre) <= 16:
                assert gain == _smallest_gain(g, pre), idx
                brute_checked += 1
    assert brute_checked > 500
    detail = f"{checked} instances, {gain_checked} least gains, {brute_checked} against brute force"
    _report("5 preweighting-pipeline", detail, started)


def test_criterion_06_gadget_forcing():
    started = time.time()
    # suspended paths: hosts with up to 4 paths, inner edges forced to 1
    for q in range(1, 5):
        b = GraphBuilder(1)
        recs = [add_suspended_path(b, 0) for _ in range(q)]
        g = b.build()
        assert oracle.solve_exhaustive(g) is not None
        for rec in recs:
            assert oracle.solve_exhaustive(g, {rec.inner: 0}) is None
    # type-A: k in {2,3,4} never allows color k at the anchor, and exactly
    # one of the two anchor edges carries weight 1
    for k in (2, 3, 4):
        b = GraphBuilder(1)
        rec = add_type_a(b, 0, k)
        g = b.build()
        au, av = edge_key(0, rec.u), edge_key(0, rec.v)
        assert oracle.solve_exhaustive(g, {au: 0, av: 0}) is None
        assert oracle.solve_exhaustive(g, {au: 1, av: 1}) is None
        assert oracle.solve_exhaustive(g) is not None
        bh = GraphBuilder(1)
        add_type_a(bh, 0, k)
        for _ in range(k):
            p = bh.add_vertex()
            bh.add_edge(0, p)
        gh = bh.build()
        anchor_edges = [e for e in gh.edges if 0 in e]
        for ones in itertools.combinations(anchor_edges, k):
            pre = {e: (1 if e in ones else 0) for e in anchor_edges}
            assert oracle.solve_exhaustive(gh, pre) is None
    # type-B cascade with z pinned to N
    cascades = 0
    for big_n in (5, 6, 7):
        for k in range(2, big_n):
            host = pinned_chain_host(k, big_n)
            assert oracle.solve_exhaustive(host.graph, host.pre) is not None
            first, nxt, inners = host.first_vertex_free_edges()
            assert oracle.solve_exhaustive(host.graph, {**host.pre, first: 1}) is None
            assert oracle.solve_exhaustive(host.graph, {**host.pre, nxt: 1}) is None
            for e in inners:
                assert oracle.solve_exhaustive(host.graph, {**host.pre, e: 0}) is None
            cascades += 1
    _report("6 gadget-forcing", f"{cascades} cascades plus path/triangle sweeps", started)


@pytest.fixture(scope="module")
def lc_corpus():
    """Every list-coloring instance with n <= 2 and lists inside {2, 3, 4}."""
    instances = []
    palettes = [c for r in (1, 2, 3) for c in itertools.combinations((2, 3, 4), r)]
    for lst in palettes:
        instances.append(ListColoringInstance.build(Graph.build(1, []), [lst]))
    for l1 in palettes:
        for l2 in palettes:
            for edges in ([], [(0, 1)]):
                instances.append(
                    ListColoringInstance.build(Graph.build(2, edges), [l1, l2])
                )
    return instances


@pytest.fixture(scope="module")
def built_reductions(lc_corpus):
    return [(inst, build_reduction(inst, small_chain_scale(inst))) for inst in lc_corpus]


def test_criterion_07_reduction_biconditional(built_reductions):
    started = time.time()
    for inst, red in built_reductions:
        expected = brute_force_list_coloring(inst) is not None
        w = solve_reduced(red)
        assert (w is not None) == expected, inst
        if w is not None:
            c = extract_coloring(red, w)
            assert is_proper_list_coloring(inst, c)
    # forward-witness verification and extraction round trip, n <= 4
    forward = 0
    rng = random.Random(424)
    shapes = [
        (3, [(0, 1), (1, 2)]),
        (3, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (1, 2), (2, 3)]),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        (4, [(0, 1), (0, 2), (0, 3)]),
        (4, list(itertools.combinations(range(4), 2))),
    ]
    for n, edges in shapes:
        for _ in range(4):
            lists = [sorted(rng.sample(range(2, 6), rng.randint(1, 3))) for _ in range(n)]
            inst = ListColoringInstance.build(Graph.build(n, edges), lists)
            coloring = brute_force_list_coloring(inst)
            if coloring is None:
                continue
            red = build_reduction(inst, small_chain_scale(inst))
            w = witness_weighting(red, coloring)
            assert is_proper(red.graph, w)
            assert extract_coloring(red, w) == coloring
            forward += 1
    assert forward >= 10
    _report("7 reduction-biconditional", f"{len(built_reductions)} instances, {forward} forward witnesses", started)


def test_criterion_08_fvs_bound(built_reductions):
    started = time.time()
    for _, red in built_reductions:
        assert verify_fvs_bound(red)
    _report("8 fvs-bound", f"{len(built_reductions)} reductions", started)


def _exchange_property_holds(g: Graph) -> bool:
    """Bitmask check of the exchange property on one graph.

    For every node and state, the partial solutions of that state must
    either all extend to a full solution or none of them; extendability is
    decided by sweeping every total assignment."""
    n, m = g.vertex_count, len(g.edges)
    ntd = make_nice(compute_decomposition(g), g)
    inc = [0] * n
    for i, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    edge_sets = subtree_edge_sets(ntd)
    masks = []
    for edges in edge_sets:
        mask = 0
        for e in edges:
            mask |= 1 << g.edge_index[e]
        masks.append(mask)
    nodes = ntd.nodes
    extendable: list[dict] = [{} for _ in nodes]
    for w in range(1 << m):
        colors = [(w & inc[v]).bit_count() for v in range(n)]
        if any(colors[u] == colors[v] for u, v in g.edges):
            continue
        for t, node in enumerate(nodes):
            ht = w & masks[t]
            state = tuple(
                x for v in node.bag for x in (colors[v], (ht & inc[v]).bit_count())
            )
            extendable[t].setdefault(state, set()).add(ht)

    def partial_mask(t, state, x) -> bool:
        node = nodes[t]
        fd = {v: state[2 * i] for i, v in enumerate(node.bag)}
        cd = {v: state[2 * i + 1] for i, v in enumerate(node.bag)}
        for v in node.bag:
            if (x & inc[v]).bit_count() != cd[v]:
                return False
        for e in edge_sets[t]:
            u, v = e
            if u in fd and v in fd:
                if fd[u] == fd[v]:
                    return False
            elif u in fd:
                if (x & inc[v]).bit_count() == fd[u]:
                    return False
            elif v in fd:
                if (x & inc[u]).bit_count() == fd[v]:
                    return False
            else:
                if (x & inc[u]).bit_count() == (x & inc[v]).bit_count():
                    return False
        return True

    for t, node in enumerate(nodes):
        if not extendable[t]:
            continue
        by_cd: dict = {}
        for state in extendable[t]:
            by_cd.setdefault(state[1::2], []).append(state)
        # every recorded restriction really is a partial solution
        for state, hts in extendable[t].items():
            for ht in hts:
                if not partial_mask(t, state, ht):
                    return False
        # every partial solution of a witnessed state must be extendable
        emask = masks[t]
        x = emask
        while True:
            cd = tuple((x & inc[v]).bit_count() for v in node.bag)
            for state in by_cd.get(cd, ()):
                if partial_mask(t, state, x) and x not in extendable[t][state]:
                    return False
            if x == 0:
                break
            x = (x - 1) & emask
    return True


def test_criterion_09_state_bound_and_exchange(dp_sweep, atlas):
    started = time.time()
    assert dp_sweep["bound_violations"] == []
    networkx = pytest.importorskip("networkx")
    small = []  # every graph on at most 6 vertices, connected or not
    for G in networkx.graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= 6:
            mapping = {node: i for i, node in enumerate(sorted(G.nodes()))}
            small.append(Graph.build(n, [(mapping[u], mapping[v]) for u, v in G.edges()]))
    assert len(small) == 208
    for g in small:
        assert _exchange_property_holds(g), g.edges
    # the mask predicate agrees with the public checker on a sample
    g = small[40]
    ntd = make_nice(compute_decomposition(g), g)
    rng = random.Random(5)
    edge_sets = subtree_edge_sets(ntd)
    for t, node in enumerate(ntd.nodes):
        if len(node.bag) < 2 or not edge_sets[t]:
            continue
        state = []
        for v in node.bag:
            fd = rng.randint(0, g.degree(v))
            state.extend((fd, rng.randint(0, fd)))
        subset = frozenset(e for e in edge_sets[t] if rng.random() < 0.5)
        mask = 0
        for e in subset:
            mask |= 1 << g.edge_index[e]
        inc = [0] * g.vertex_count
        for i, (u, v) in enumerate(g.edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        public = check_partial_solution(g, ntd, t, tuple(state), subset)
        assert public == _mask_probe(g, ntd, t, tuple(state), mask, inc, edge_sets)
    _report("9 state-bound-and-exchange", f"{len(small)} graphs n<=6", started)


def _mask_probe(g, ntd, t, state, x, inc, edge_sets):
    node = ntd.nodes[t]
    fd = {v: state[2 * i] for i, v in enumerate(node.bag)}
    cd = {v: state[2 * i + 1] for i, v in enumerate(node.bag)}
    for v in node.bag:
        if not 0 <= cd[v] <= fd[v] <= g.degree(v):
            return False
        if (x & inc[v]).bit_count() != cd[v]:
            return False
    for u, v in edge_sets[t]:
        if u in fd and v in fd:
            if fd[u] == fd[v]:
                return False
        elif u in fd:
            if (x & inc[v]).bit_count() == fd[u]:
                return False
        elif v in fd:
            if (x & inc[u]).bit_count() == fd[v]:
                return False
        else:
            if (x & inc[u]).bit_count() == (x & inc[v]).bit_count():
                return False
    return True


def test_criterion_10_determinism(tmp_path):
    started = time.time()

    def run_twice(argv, outputs=()):
        results = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "vcew.cli", *argv], capture_output=True, text=True
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            results.append((proc.stdout, tuple((tmp_path / f).read_bytes() for f in outputs)))
        assert results[0] == results[1], argv

    g, pre = random_graph(7, 0.4, seed=11, pre_fraction=0.25)
    inst_path = tmp_path / "det.gr"
    inst_path.write_text(io.emit_graph(g, pre))
    run_twice(["solve", str(inst_path)])
    run_twice(["solve", str(inst_path), "--algo", "tw"])
    run_twice(["gen", "random", "--n", "10", "--p", "0.3", "--seed", "21"])
    planted = tmp_path / "planted.gr"
    run_twice(["gen", "planted", "--k", "2", "--classes", "40,9", "--seed", "3",
               "--full-sig", "-o", str(planted)], outputs=("planted.gr",))
    run_twice(["kernelize", str(planted), "-o", str(tmp_path / "ker")],
              outputs=("ker.gr", "ker.map"))
    lc = tmp_path / "det.lc"
    lc.write_text("p lc 2 1\n1 2\nl 1 2\nl 2 3\n")
    run_twice(["reduce-lc", str(lc), "--N", "7", "-o", str(tmp_path / "red")],
              outputs=("red.gr", "red.roles"))
    _report("10 determinism", "byte-identical reruns across 6 commands", started)
