import hashlib
import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest

from vcew import io, oracle, reduction
from vcew.errors import ContractViolationError, ValidationError
from vcew.generators import pinned_chain_host
from vcew.graph import Graph, GraphBuilder, edge_key, induced_colors, is_proper
from vcew.listcolor import (
    ListColoringInstance,
    brute_force_list_coloring,
    is_proper_list_coloring,
    normalize_instance,
)
from vcew.reduction import (
    add_suspended_path,
    add_type_a,
    add_type_b,
    build_reduction,
    default_chain_scale,
    dot_chunks,
    edge_role,
    emit_roles,
    extract_coloring,
    forced_preweights,
    role_chunks,
    small_chain_scale,
    solve_reduced,
    to_dot,
    verify_fvs_bound,
    witness_weighting,
)
from tests.conftest import random_small_graph


def make_inst(n, edges, lists):
    return ListColoringInstance.build(Graph.build(n, edges), lists)


# ---------- normalization ----------


def test_normalize_identity():
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    norm = normalize_instance(inst)
    assert norm.instance == inst and norm.removed_vertices == ()


def test_normalize_removes_oversized_lists():
    # one vertex with more colors than vertices: removable without changing the decision
    inst = make_inst(3, [(0, 1), (1, 2)], [[2, 3, 4, 5], [2], [3]])
    norm = normalize_instance(inst)
    assert norm.removed_vertices == (0,)
    assert norm.instance.graph.vertex_count == 2
    before = brute_force_list_coloring(inst) is not None
    after = brute_force_list_coloring(norm.instance) is not None
    assert before == after


def test_normalize_decision_preserved_random():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        lists = [sorted(rng.sample(range(2, 8), rng.randint(1, min(5, n + 1)))) for _ in range(n)]
        inst = make_inst(n, edges, lists)
        try:
            norm = normalize_instance(inst)
        except ValidationError:
            continue  # colors drifted out of range after removal; rejected by contract
        assert (brute_force_list_coloring(inst) is not None) == (
            brute_force_list_coloring(norm.instance) is not None
        )


def test_normalize_rejects_color_one():
    inst = make_inst(1, [], [[1]])
    with pytest.raises(ValidationError):
        normalize_instance(inst)


# ---------- gadget builders ----------


def assert_paths(g, host, paths, count):
    """The records name `count` distinct suspended paths host-mid-leaf of g."""
    assert len(paths) == count
    assert len({p.mid for p in paths} | {p.leaf for p in paths}) == 2 * count
    for p in paths:
        assert p.host == host and g.has_edge(*p.inner) and g.has_edge(*p.outer)
        assert g.degree(p.mid) == 2 and g.degree(p.leaf) == 1


def test_suspended_path_forces_inner_one():
    for q in range(1, 5):
        b = GraphBuilder(1)
        recs = [add_suspended_path(b, 0) for _ in range(q)]
        g = b.build()
        assert oracle.solve_exhaustive(g) is not None
        for rec in recs:
            assert oracle.solve_exhaustive(g, {rec.inner: 0}) is None


def test_suspended_path_zero_is_unconstrained():
    g = Graph.build(1, [])
    assert oracle.solve_exhaustive(g) == {}


def test_type_a_counts_and_forcing():
    for k in (2, 3, 4):
        b = GraphBuilder(1)
        rec = add_type_a(b, 0, k)
        g = b.build()
        assert g.vertex_count == 1 + 2 + 4 * (k - 1)
        assert_paths(g, rec.u, rec.paths_u, k - 1)
        assert_paths(g, rec.v, rec.paths_v, k - 1)
        au, av = edge_key(0, rec.u), edge_key(0, rec.v)
        assert oracle.solve_exhaustive(g, {au: 0, av: 0}) is None
        assert oracle.solve_exhaustive(g, {au: 1, av: 1}) is None
        assert oracle.solve_exhaustive(g) is not None


def test_type_a_disallows_color_k_with_headroom():
    for k in (2, 3, 4):
        b = GraphBuilder(1)
        add_type_a(b, 0, k)
        for _ in range(k):
            p = b.add_vertex()
            b.add_edge(0, p)
        g = b.build()
        anchor_edges = [e for e in g.edges if 0 in e]
        for ones in itertools.combinations(anchor_edges, k):
            pre = {e: (1 if e in ones else 0) for e in anchor_edges}
            assert oracle.solve_exhaustive(g, pre) is None


def test_type_a_rejects_small_k():
    with pytest.raises(ValueError):
        add_type_a(GraphBuilder(1), 0, 1)


def test_type_b_counts():
    big_n = 6
    for k in (2, 5):
        b = GraphBuilder(2)
        rec = add_type_b(b, 0, k, 1, big_n)
        assert len(rec.vertices) == big_n - k
        path_vertices = 2 * sum(range(k, big_n))
        g = b.build()
        assert g.vertex_count == 2 + (big_n - k) + path_vertices
        assert len(rec.paths) == len(rec.vertices)
        for i, (x, paths) in enumerate(zip(rec.vertices, rec.paths)):
            assert_paths(g, x, paths, k + i)
    with pytest.raises(ValueError):
        add_type_b(GraphBuilder(2), 0, 6, 1, 6)


def test_type_b_chains_share_only_endpoints():
    b = GraphBuilder(2)
    rec1 = add_type_b(b, 0, 2, 1, 5)
    rec2 = add_type_b(b, 0, 3, 1, 5)
    assert not (set(rec1.vertices) & set(rec2.vertices))


def test_type_b_cascade_forcing():
    for big_n in (5, 6, 7):
        for k in range(2, big_n):
            host = pinned_chain_host(k, big_n)
            assert oracle.solve_exhaustive(host.graph, host.pre) is not None
            first, nxt, inners = host.first_vertex_free_edges()
            assert oracle.solve_exhaustive(host.graph, {**host.pre, first: 1}) is None
            assert oracle.solve_exhaustive(host.graph, {**host.pre, nxt: 1}) is None
            for e in inners:
                assert oracle.solve_exhaustive(host.graph, {**host.pre, e: 0}) is None


# ---------- construction ----------


def test_default_scale_n3():
    assert default_chain_scale(3) == 33


def test_single_vertex_reduction():
    inst = make_inst(1, [], [[2]])
    red = build_reduction(inst)
    assert red.z is None
    assert red.graph.vertex_count == 5  # v plus two suspended paths
    assert len(red.graph.edges) == 4
    w = solve_reduced(red)
    assert w is not None
    assert induced_colors(red.graph, w)[0] == 2


def test_disallowed_sets_definition():
    inst = make_inst(2, [(0, 1)], [[2, 4], [3]])
    red = build_reduction(inst, small_chain_scale(inst))
    t = 4
    span = set(range(2, t + 2 - 1 + 1))  # colors 2..t+n-1
    assert set(red.disallowed(0)) == span - {2, 4}
    assert set(red.disallowed(1)) == span - {3}


def test_structural_counts():
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    red = build_reduction(inst, small_chain_scale(inst))
    t = red.t
    for v in range(2):
        assert len(red.pendants[v]) == t - 2
        assert red.vertex_roles.count(("suspended-mid", v)) == 2
    chains = len(red.chains)
    assert red.graph.degree(red.z) == 2 * red.big_n + chains
    assert verify_fvs_bound(red)


def test_z_degree_check_counts_both_ends():
    # build_reduction checks z's degree by bisecting the sorted edges; on
    # random graphs that count must equal the adjacency's at every vertex,
    # whether the vertex is an edge's smaller end or its larger
    rng = random.Random(5)
    for _ in range(60):
        g = random_small_graph(rng, max_n=9)
        assert [reduction._degree(g, x) for x in range(g.vertex_count)] == [g.degree(x) for x in range(g.vertex_count)]


def test_bad_overrides_rejected():
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    with pytest.raises(ValueError):
        build_reduction(inst, 2)  # not above every disallowed color
    with pytest.raises(ValueError):
        build_reduction(inst, small_chain_scale(inst) - 4)


def test_is_proper_list_coloring_rejects_wrong_length():
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    assert is_proper_list_coloring(inst, [2, 3])
    assert not is_proper_list_coloring(inst, [2])
    assert not is_proper_list_coloring(inst, [2, 3, 2])


def test_build_rejects_color_below_two():
    inst = make_inst(1, [], [[1, 2]])
    with pytest.raises(ValidationError):
        build_reduction(inst)


def test_build_accepts_wide_lists_with_override():
    # |L| > n is fine for the construction itself; only the default scale
    # analysis assumes normalization
    inst = make_inst(1, [], [[2, 3]])
    red = build_reduction(inst, small_chain_scale(inst))
    w = solve_reduced(red)
    assert w is not None
    assert induced_colors(red.graph, w)[0] in (2, 3)


# ---------- witness and extraction ----------


def test_witness_round_trip_k2():
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    red = build_reduction(inst, small_chain_scale(inst))
    coloring = brute_force_list_coloring(inst)
    w = witness_weighting(red, coloring)
    assert is_proper(red.graph, w)
    colors = induced_colors(red.graph, w)
    assert colors[red.z] == red.big_n
    assert extract_coloring(red, w) == coloring


def test_witness_rejects_bad_coloring():
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    red = build_reduction(inst, small_chain_scale(inst))
    with pytest.raises(ContractViolationError):
        witness_weighting(red, [2, 2])  # not list-respecting
    with pytest.raises(ContractViolationError):
        witness_weighting(red, [3, 3])


def test_witness_failed_checks_raise_contract_error(monkeypatch):
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    red = build_reduction(inst, small_chain_scale(inst))
    monkeypatch.setattr(reduction, "is_proper", lambda g, w: False)
    with pytest.raises(ContractViolationError, match="not proper"):
        witness_weighting(red, [2, 3])
    monkeypatch.setattr(reduction, "induced_colors", lambda g, w: [2, 3] + [0] * (g.vertex_count - 2))
    with pytest.raises(ContractViolationError, match="does not pin z"):
        witness_weighting(red, [2, 3])
    monkeypatch.setattr(reduction, "induced_colors", lambda g, w: [0] * g.vertex_count)
    with pytest.raises(ContractViolationError, match="wanted 2"):
        witness_weighting(red, [2, 3])


def test_extract_requires_proper():
    inst = make_inst(1, [], [[2]])
    red = build_reduction(inst)
    with pytest.raises(ContractViolationError):
        extract_coloring(red, {e: 0 for e in red.graph.edges})


# ---------- solver and fvs ----------


def test_solve_reduced_biconditional_k2():
    yes = make_inst(2, [(0, 1)], [[2], [3]])
    no = make_inst(2, [(0, 1)], [[2], [2]])
    for inst, expect in ((yes, True), (no, False)):
        red = build_reduction(inst, small_chain_scale(inst))
        w = solve_reduced(red)
        assert (w is not None) == expect
        assert (brute_force_list_coloring(inst) is not None) == expect
        if w is not None:
            c = extract_coloring(red, w)
            assert is_proper_list_coloring(inst, c)
        assert verify_fvs_bound(red)


def test_fvs_bound_without_z():
    inst = make_inst(1, [], [[2]])
    red = build_reduction(inst)
    assert red.z is None
    assert verify_fvs_bound(red)


def test_fvs_bound_detects_a_cycle_outside_cover_and_z():
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    red = build_reduction(inst, small_chain_scale(inst))
    assert verify_fvs_bound(red)
    # a triangle on three new vertices avoids every cover of the instance and z
    n = red.graph.vertex_count
    cyclic = Graph.build(n + 3, list(red.graph.edges) + [(n, n + 1), (n + 1, n + 2), (n, n + 2)])
    assert not verify_fvs_bound(replace(red, graph=cyclic))


def test_roles_sidecar_and_dot():
    inst = make_inst(2, [(0, 1)], [[2], [3]])
    red = build_reduction(inst, small_chain_scale(inst))
    text = emit_roles(red)
    lines = text.splitlines()
    assert len(lines) == red.graph.vertex_count + len(red.graph.edges)
    assert lines[0] == "v 1 original 1"
    assert any(line.startswith("e 1 2 graph") for line in lines)
    dot = to_dot(red)
    assert dot.startswith("graph reduction {") and dot.rstrip().endswith("}")


def role_instances():
    """(instance, scale override) pairs: seeded instances with n = 1..4 at
    small_chain_scale, and the triangle instance at the default scale."""
    rng = random.Random(7)
    cases = []
    for n in (1, 2, 3, 4, 1, 2, 3, 4):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        lists = [sorted(rng.sample(range(2, 6), rng.randint(1, 2))) for _ in range(n)]
        inst = make_inst(n, edges, lists)
        cases.append((inst, small_chain_scale(inst)))
    cases.append((make_inst(3, [(0, 1), (1, 2), (0, 2)], [[2, 3], [3, 4], [2, 4]]), None))
    return cases


# sha256 over every case's sorted forced pre-weights, and over every
# yes-case's canonical witness, recorded before emit_roles ranked edges
FORCED_DIGEST = "bcc5b118b65643da9815199ca115e7dbc819b05ad3a848712cf6f11feaa26859"
WITNESS_DIGEST = "cda92f634773c0339c39a14b45e39bb44094cccfda176d81ab0c520515c3bd35"


def test_emitted_edge_roles_match_edge_role():
    # emit_roles ranks edges by its own table lookup; every 'e' line must
    # still say what edge_role says, so the two cannot drift apart
    forced, witnesses = [], []
    for inst, scale in role_instances():
        red = build_reduction(inst, scale)
        lines = [line.split() for line in emit_roles(red).splitlines() if line.startswith("e ")]
        assert len(lines) == len(red.graph.edges)
        for (u, v), (_, eu, ev, *role) in zip(red.graph.edges, lines, strict=True):
            assert (int(eu), int(ev)) == (u + 1, v + 1)
            assert role == [str(part) for part in edge_role(red, u, v)]
        forced.append(sorted(forced_preweights(red).items()))
        coloring = brute_force_list_coloring(inst)
        if coloring is not None:
            witnesses.append(sorted(witness_weighting(red, coloring).items()))
    assert hashlib.sha256(repr(forced).encode()).hexdigest() == FORCED_DIGEST
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == WITNESS_DIGEST


# sha256 over every case's .roles text, and over its DOT text, recorded
# with the formatters that built each file's text whole
ROLES_DIGEST = "2556b32e6fa6db3906b66ae064f29865134655c65cd62313b1d2a81299854691"
DOT_DIGEST = "f8ca91fd1443720ab86d12e49065063bb5b02ca5104c37238d9c40aad202ffee"


def test_role_and_dot_blocks_join_to_the_whole_text():
    # the larger cases span up to four blocks of vertex lines
    roles_digest, dot_digest = hashlib.sha256(), hashlib.sha256()
    for inst, scale in role_instances():
        red = build_reduction(inst, scale)
        for chunks, whole, digest in ((role_chunks, emit_roles, roles_digest), (dot_chunks, to_dot, dot_digest)):
            blocks = list(chunks(red))
            assert all(block.endswith("\n") and block.count("\n") <= io.BLOCK for block in blocks)
            text = "".join(blocks)
            assert text == whole(red)
            digest.update(text.encode())
    assert roles_digest.hexdigest() == ROLES_DIGEST
    assert dot_digest.hexdigest() == DOT_DIGEST
    empty = build_reduction(make_inst(0, [], []))
    assert "".join(role_chunks(empty)) == emit_roles(empty) == ""


def test_roles_written_in_blocks_hold_little_memory(tmp_path):
    # the first instance of the benchmark's reduce_lc pool at the default
    # chain scale, 22,435 reduced vertices and 56 B of .roles text each;
    # written in blocks, its .roles peaks at about 100 B per vertex above
    # the reduction, against 247 B when the whole text was built first
    inst = io.parse_listcoloring("p lc 3 1\n2 3\nl 1 5 6\nl 2 4 5\nl 3 3 6\n")
    red = build_reduction(normalize_instance(inst).instance)
    n = red.graph.vertex_count
    assert n == 22_435
    path = tmp_path / "reduced.roles"
    tracemalloc.start()
    try:
        io.write_chunks(str(path), role_chunks(red))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * n, f"{peak / n:.0f} B per vertex"
    assert path.read_text() == emit_roles(red)


def test_fvs_needs_the_instance_cover_too():
    # removing only z leaves the instance's own cycles intact
    inst = make_inst(3, [(0, 1), (1, 2), (0, 2)], [[2], [3], [4]])
    red = build_reduction(inst, small_chain_scale(inst))
    keep = [e for e in red.graph.edges if red.z not in e]
    parent = list(range(red.graph.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cyclic = False
    for u, v in keep:
        ru, rv = find(u), find(v)
        if ru == rv:
            cyclic = True
            break
        parent[ru] = rv
    assert cyclic
    assert verify_fvs_bound(red)


UNRESTRICTED_DP_WITNESSES = [
    (4, 5, 8, 9, 10, 12, 14, 16, 18, 20, 22, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37,
     38, 39, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 82, 83, 84, 85, 86,
     87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 115, 116, 117, 118, 119, 120, 121, 122,
     123, 124, 125, 126, 127, 128, 129, 130, 131, 132, 152, 153, 154, 155, 156, 157,
     158, 159, 160, 161, 162, 163, 164, 165, 166, 167, 168, 169, 170, 171, 193, 194,
     195, 196, 197, 198, 199, 200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210,
     211, 212, 213, 214, 237, 238, 239, 244, 245, 246, 247, 253, 254, 255, 256, 257,
     263, 264, 265, 266, 272, 273, 274, 275, 276, 282, 283, 287, 288, 289, 294, 295,
     296, 297, 303, 304, 305, 306, 307, 313, 314, 315, 316, 322, 323, 324, 325, 326),
    None,
    (1, 2, 4, 5, 7, 9, 11, 13, 15, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 40, 41,
     42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75,
     76, 77, 78, 94, 95, 96, 97, 98, 99, 100, 101, 102, 103, 104, 105, 106, 107, 108,
     109, 127, 128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140, 141,
     142, 143, 144, 163, 164, 165, 170, 171, 172, 173, 178, 179, 180, 185, 186, 187,
     188),
    (1, 2, 3, 5, 7, 9, 11, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 37, 38, 39,
     40, 41, 42, 43, 44, 45, 46, 47, 48, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73,
     74, 75, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100, 101, 102, 103, 104, 105, 106, 124,
     125, 126, 127, 128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140,
     141, 160, 161, 165, 166, 167, 172, 173, 174, 175),
    (2, 3, 4, 7, 8, 10, 12, 14, 16, 18, 20, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
     34, 35, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 78, 79, 80, 81, 82,
     83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 111, 112, 113, 114, 115, 116, 117, 118,
     119, 120, 121, 122, 123, 124, 125, 126, 127, 128, 148, 149, 150, 151, 152, 153,
     154, 155, 156, 157, 158, 159, 160, 161, 162, 163, 164, 165, 166, 167, 189, 190,
     191, 192, 193, 194, 195, 196, 197, 198, 199, 200, 201, 202, 203, 204, 205, 206,
     207, 208, 209, 210, 233, 234, 235, 236, 242, 243, 244, 245, 246, 252, 253, 254,
     255, 261, 262, 263, 264, 265),
]


def test_solve_reduced_agrees_with_unrestricted_dp():
    # independent route: decide whole reductions with the treewidth DP and
    # no forced pre-weights at all (the instance cover plus z keeps the
    # width tiny even though H has hundreds of vertices); the DP witnesses
    # are pinned to UNRESTRICTED_DP_WITNESSES, recorded from the
    # dict-of-tuples engine the packed one replaced
    from vcew.treewidth import compute_decomposition, run_dp

    cases = [
        make_inst(2, [(0, 1)], [[2], [3]]),
        make_inst(2, [(0, 1)], [[2], [2]]),
        make_inst(2, [], [[2], [2]]),
        make_inst(1, [], [[3]]),
        make_inst(2, [(0, 1)], [[2, 3], [2, 3]]),
    ]
    for inst, expected in zip(cases, UNRESTRICTED_DP_WITNESSES, strict=True):
        red = build_reduction(inst, small_chain_scale(inst))
        ids = run_dp(red.graph, compute_decomposition(red.graph)).solution_edge_ids
        assert (None if ids is None else tuple(sorted(ids))) == expected
        unrestricted = ids is not None
        forced = solve_reduced(red) is not None
        assert unrestricted == forced
        assert forced == (brute_force_list_coloring(inst) is not None)
