import itertools
import random

import pytest

from vcew import io
from vcew.errors import ParseError
from vcew.graph import Graph, is_proper
from vcew.listcolor import ListColoringInstance
from vcew.treewidth import compute_decomposition, validate_decomposition
from vcew import oracle
from tests.conftest import random_small_graph


def test_parse_graph_basic():
    g, pre = io.parse_graph("p vcew 3 2\n1 2\n2 3\n")
    assert g.vertex_count == 3 and g.edges == ((0, 1), (1, 2)) and pre == {}


def test_parse_graph_preweight():
    g, pre = io.parse_graph("p vcew 2 1\n1 2 1\n")
    assert pre == {(0, 1): 1}


def test_parse_graph_triangle_and_comments():
    g, pre = io.parse_graph("c a triangle\np vcew 3 3\n1 2\n2 3\n1 3\n")
    assert len(g.edges) == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p vcew 3 2\n1 2\n1 2\n", "duplicate"),
        ("p vcew 3 1\n1 1\n", "self-loop"),
        ("p vcew 3 1\n1 4\n", "range"),
        ("p vcew 2 1\n1 2 7\n", "pre-weight"),
        ("p vcew 2 2\n1 2\n", "declares"),
        ("1 2\n", "header"),
    ],
)
def test_parse_graph_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        io.parse_graph(text)
    assert fragment in str(err.value)


def test_parse_graph_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        io.parse_graph("p vcew 3 2\n1 2\n1 2\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "parse,text,line,fragment",
    [
        (io.parse_listcoloring, "p lc 3 2\n1 2\n2 1\nl 1 2\nl 2 2\nl 3 2\n", 3, "duplicate edge 2 1"),
        (io.parse_listcoloring, "p lc 2 1\n2 2\nl 1 2\nl 2 2\n", 2, "self-loop"),
        (io.parse_listcoloring, "p lc 2 1\n1 3\nl 1 2\nl 2 2\n", 2, "vertex out of range 1..2"),
        (io.parse_listcoloring, "p lc -1 0\n", 1, "negative counts in header"),
        (io.parse_listcoloring, "p lc 1 0\np lc 1 0\n", 2, "duplicate header"),
        (io.parse_td, "s td 1 2 -3\nb 1\n", 1, "negative counts in header"),
        (io.parse_td, "s td -1 2 3\n", 1, "negative counts in header"),
        (io.parse_td, "s td 1 1 1\ns td 1 1 1\n", 2, "duplicate header"),
        (io.parse_td, "s td 1 1 1\nb 1 x\n", 2, "non-integer token in bag line"),
    ],
)
def test_shared_header_and_edge_checks(parse, text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line and fragment in str(err.value)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("1 2 1\n2 1 0\n", 2, "duplicate edge 2 1"),
        ("1 2 1\n1 4 0\n", 2, "vertex out of range 1..3"),
        ("1 3 1\n", 1, "edge 1 3 not in the graph"),
        ("1 2 x\n", 1, "non-integer weight"),
        ("1 2 2\n", 1, "weight not in {0, 1}"),
    ],
)
def test_parse_weights_errors(text, line, fragment):
    g = Graph.build(3, [(0, 1), (1, 2)])
    with pytest.raises(ParseError) as err:
        io.parse_weights(text, g)
    assert err.value.line == line and fragment in str(err.value)


def _weights_of_p3(text):
    return io.parse_weights(text, Graph.build(3, [(0, 1), (1, 2)]))


@pytest.mark.parametrize(
    "parse,text,line,message",
    [
        (io.parse_td, "s td 1 1 1\nb\n", 2, "bag line needs an id"),
        (io.parse_td, "s td 1 1 1\nb 2 1\n", 2, "bag id 2 out of range 1..1"),
        (io.parse_td, "s td 2 1 1\nb 1 1\nb 1 1\n", 3, "duplicate bag 1"),
        (io.parse_td, "s td 1 1 1\nb 1 2\n", 2, "bag vertex out of range 1..1"),
        (io.parse_td, "s td 2 1 1\nb 1 1\nb 2 1\n1 2 2\n", 4, "expected tree edge 'i j'"),
        (io.parse_td, "c no header\n", None, "missing 's td' header"),
        (io.parse_td, "s td 0 0 0\n", None, "decomposition needs at least one bag"),
        (io.parse_td, "s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n1 2\n", None, "tree edges do not connect all bags"),
        (io.parse_listcoloring, "1 2\np lc 2 1\n", 1, "content before header"),
        (io.parse_listcoloring, "p lc 2 0\nl 3 2\n", 2, "vertex out of range 1..2"),
        (io.parse_listcoloring, "p lc 1 0\nl 1 2\nl 1 3\n", 3, "duplicate list for vertex 1"),
        (io.parse_listcoloring, "p lc 1 0\nl 1 0\n", 2, "colors must be positive"),
        (io.parse_listcoloring, "p lc 2 1\n1 2 3\n", 2, "expected edge 'u v'"),
        (io.parse_listcoloring, "c no header\n", None, "missing 'p lc' header"),
        (io.parse_listcoloring, "p lc 2 1\nl 1 2\nl 2 2\n", None, "header declares 1 edges but 0 were given"),
        (io.parse_graph, "p vcew 2 1\n1\n", 2, "expected 'u v' or 'u v w'"),
        (io.parse_graph, "c no header\n", None, "missing 'p vcew' header"),
        (io.parse_graph, "p vcew 2\n", 1, "expected header 'p vcew <n> <m>'"),
        (io.parse_graph, "p vcew 2 1\n1 x\n", 2, "non-integer vertex id"),
        (_weights_of_p3, "1 2\n", 1, "expected 'u v w'"),
        (io.parse_result, "no json", None, "bad result JSON: Expecting value: line 1 column 1 (char 0)"),
    ],
)
def test_input_rejections(parse, text, line, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_parse_td_single_bag():
    td = io.parse_td("s td 1 3 3\nb 1 1 2 3\n")
    assert td.bags == (frozenset({0, 1, 2}),) and td.root == 0
    c3 = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    assert validate_decomposition(c3, td)
    assert td.width() == 2


def test_parse_td_two_bags():
    td = io.parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    p3 = Graph.build(3, [(0, 1), (1, 2)])
    assert validate_decomposition(p3, td)
    assert td.width() == 1


def test_parse_td_bad_header():
    with pytest.raises(ParseError):
        io.parse_td("s td x 2 3\nb 1 1 2\n")
    with pytest.raises(ParseError):
        io.parse_td("b 1 1 2\n")
    with pytest.raises(ParseError):
        io.parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n")  # missing tree edge
    with pytest.raises(ParseError):
        io.parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 3\n")  # unknown bag


def test_parse_listcoloring():
    inst = io.parse_listcoloring("p lc 2 1\n1 2\nl 1 2\nl 2 3\n")
    assert inst.lists == ((2,), (3,))
    inst = io.parse_listcoloring("p lc 2 1\n1 2\nl 1 2\nl 2 2\n")
    assert inst.lists == ((2,), (2,))


def test_parse_listcoloring_missing_list():
    with pytest.raises(ParseError) as err:
        io.parse_listcoloring("p lc 2 1\n1 2\nl 1 2\n")
    assert "no color list" in str(err.value)
    with pytest.raises(ParseError):
        io.parse_listcoloring("p lc 1 0\nl 1\n")  # empty list


def test_result_round_trip():
    record = io.ResultRecord(
        status="yes",
        algorithm="oracle",
        verified=True,
        witness=((0, 1, 1), (1, 2, 0)),
        colors=(1, 1, 0),
        stats={"elapsed_ms": 3, "search_nodes": 17},
    )
    text = io.emit_result(record)
    assert '"witness":[[1,2,1],[2,3,0]]' in text
    assert io.parse_result(text) == record


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"status": "maybe"}, "bad status 'maybe'"),
        ({"status": "yes"}, "yes-results must carry a witness"),
    ],
)
def test_result_record_rejections(fields, message):
    with pytest.raises(ValueError) as info:
        io.ResultRecord(algorithm="oracle", **fields)
    assert str(info.value) == message


def test_no_result_omits_witness():
    text = io.emit_result(io.ResultRecord(status="no", algorithm="tw", verified=True))
    assert "witness" not in text and "colors" not in text
    back = io.parse_result(text)
    assert back.status == "no" and back.witness is None


def test_graph_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        g = random_small_graph(rng, max_n=9)
        pre = {e: rng.randint(0, 1) for e in g.edges if rng.random() < 0.4}
        g2, pre2 = io.parse_graph(io.emit_graph(g, pre))
        assert g2 == g and pre2 == pre


def whole_graph_text(g, pre):
    """The .gr text as emit_graph built it before it was streamed in blocks."""
    lines = [f"p vcew {g.vertex_count} {len(g.edges)}"]
    lines += [f"{u + 1} {v + 1} {pre[u, v]}" if (u, v) in pre else f"{u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "pre-weighted"])
@pytest.mark.parametrize("m", [0, 1, io.BLOCK - 1, io.BLOCK, io.BLOCK + 1])
def test_graph_chunks_at_block_boundaries(tmp_path, m, weighted):
    rng = random.Random(m)
    g = Graph.build(120, rng.sample(list(itertools.combinations(range(120), 2)), m))
    pre = {e: rng.randint(0, 1) for e in g.edges if weighted and rng.random() < 0.4}
    blocks = list(io.graph_chunks(g, pre))
    assert len(blocks) == 1 + -(-m // io.BLOCK)
    assert all(block.endswith("\n") and block.count("\n") <= io.BLOCK for block in blocks)
    text = "".join(blocks)
    assert text == whole_graph_text(g, pre) == io.emit_graph(g, pre)
    assert io.parse_graph(text) == (g, pre)
    path = tmp_path / "g.gr"
    io.write_chunks(str(path), io.graph_chunks(g, pre))
    assert path.read_bytes() == text.encode()


def test_td_round_trip_random():
    rng = random.Random(11)
    for _ in range(60):
        g = random_small_graph(rng, max_n=8)
        td = compute_decomposition(g)
        td2 = io.parse_td(io.emit_td(td))
        assert td2.bags == td.bags
        assert validate_decomposition(g, td2)


def test_lc_round_trip_random():
    rng = random.Random(13)
    for _ in range(60):
        g = random_small_graph(rng, max_n=6)
        lists = [
            sorted(rng.sample(range(2, 9), rng.randint(1, 3)))
            for _ in range(g.vertex_count)
        ]
        inst = ListColoringInstance.build(g, lists)
        assert io.parse_listcoloring(io.emit_listcoloring(inst)) == inst


def test_weights_round_trip_and_errors():
    g = Graph.build(3, [(0, 1), (1, 2)])
    w = {(0, 1): 1, (1, 2): 0}
    assert io.parse_weights(io.emit_weights(g, w), g) == w
    with pytest.raises(ParseError):
        io.parse_weights("1 2 1\n", g)  # incomplete


def test_emitted_yes_results_reverify():
    rng = random.Random(19)
    for _ in range(40):
        g = random_small_graph(rng, max_n=6)
        w = oracle.solve_exhaustive(g)
        if w is None:
            continue
        record = io.ResultRecord(
            status="yes",
            algorithm="oracle",
            verified=True,
            witness=io.witness_from_assignment(g, w),
        )
        back = io.parse_result(io.emit_result(record))
        assert is_proper(g, io.assignment_from_witness(back.witness))
