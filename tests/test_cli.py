import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vcew import _search_py, cli, io, oracle, preweight, reduction, treewidth, vertex_cover
from vcew.generators import random_graph


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_solve_triangle_no(tmp_path, capsys):
    path = write(tmp_path, "c3.gr", "p vcew 3 3\n1 2\n2 3\n1 3\n")
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    record = io.parse_result(out)
    assert record.status == "no" and record.algorithm == "oracle"


def test_solve_c4_yes_verified(tmp_path, capsys):
    path = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    record = io.parse_result(out)
    assert record.status == "yes" and record.verified
    assert record.witness is not None and record.colors is not None


def test_solve_isolated_edge_shortcut(tmp_path, capsys):
    path = write(tmp_path, "k2.gr", "p vcew 2 1\n1 2\n")
    code, out, err = run_cli(capsys, "solve", path)
    assert code == 0
    assert io.parse_result(out).status == "no"


def test_solve_mismatched_td_exits_2(tmp_path, capsys):
    g = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    td = write(tmp_path, "bad.td", "s td 1 1 4\nb 1 1\n")
    code, _, err = run_cli(capsys, "solve", g, "--td", td)
    assert code == 2 and "decomposition" in err


def test_solve_parse_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.gr", "p vcew 2 1\n1 3\n")
    code, _, _ = run_cli(capsys, "solve", path)
    assert code == 2


def test_solve_capacity_exits_3(tmp_path, capsys):
    g, _ = random_graph(20, 0.5, seed=3)
    path = write(tmp_path, "big.gr", io.emit_graph(g))
    code, out, _ = run_cli(capsys, "solve", path, "--algo", "oracle")
    assert code == 3
    assert io.parse_result(out).status == "unknown"
    # gen planted --k 2 --classes 30,30,30 --seed 3: the prewt route finds k = 2,
    # no rule fires, and only then does it refuse its budgeted search; the
    # refusal reports those counters
    path = str(tmp_path / "planted.gr")
    assert run_cli(capsys, "gen", "planted", "--k", "2", "--classes", "30,30,30", "--seed", "3", "-o", path)[0] == 0
    code, out, err = run_cli(capsys, "solve", path, "--algo", "prewt")
    assert code == 3
    assert out == '{"status":"unknown","algorithm":"prewt","verified":false,"stats":{}}\n'
    assert err.startswith("vcew: search would visit about 2^179.7 candidates, above the 2^30 ceiling\n")
    stats = json.loads(err.split("stats: ", 1)[1])
    assert stats.pop("elapsed_ms") >= 0
    assert stats == {"free_edges": 180, "k": 2, "rule_deletions": 0}


@pytest.mark.parametrize(
    "leaves,planted",
    [(36, None), (40, None), (200, None), (None, ("--k", "1", "--classes", "30,30,30", "--seed", "3"))],
    ids=["star-36", "star-40", "star-200", "planted-k1-30-30-30"],
)
def test_prewt_route_decides_on_unweighted_graphs(tmp_path, capsys, leaves, planted):
    # the prewt route runs the pre-weighting rule with no pre-weighted edge:
    # the rule strips the surplus leaves (past 17 at k = 1) and the search decides
    path = str(tmp_path / "g.gr")
    if planted:
        assert run_cli(capsys, "gen", "planted", *planted, "-o", path)[0] == 0
    else:
        Path(path).write_text(f"p vcew {leaves + 1} {leaves}\n" + "".join(f"1 {v}\n" for v in range(2, leaves + 2)))
    code, out, err = run_cli(capsys, "solve", path, "--algo", "prewt")
    record = io.parse_result(out)
    assert code == 0 and (record.status, record.algorithm, record.verified) == ("yes", "prewt", True)
    stats = json.loads(err.split("stats: ", 1)[1])
    assert stats["k"] == 1 and stats["rule_deletions"] > 0
    assert err.count("deleted ") == stats["rule_deletions"]
    g, _ = io.parse_graph(Path(path).read_text())
    td = treewidth.compute_decomposition(g)
    assert treewidth.dp_solve(g, td) is not None


def test_solve_vertex_cover_past_k_max_exits_3(tmp_path, capsys):
    # A cover number above k_max is a capacity refusal, not an input error.
    path = str(tmp_path / "sparse.gr")
    assert run_cli(capsys, "gen", "random", "--n", "30", "--p", "0.1", "--seed", "2", "-o", path)[0] == 0
    code, out, err = run_cli(capsys, "solve", path)
    assert code == 3 and "k_max" in err
    assert io.parse_result(out).status == "unknown"


def test_solve_dp_state_past_63_bits_exits_3(tmp_path, capsys):
    # K6 plus 32 pendant leaves on vertex 0: width 5, max degree 37, so a
    # state needs 2 * 6 bits * 6 slots = 72 bits, more than an int64 holds.
    edges = list(itertools.combinations(range(6), 2)) + [(0, 6 + i) for i in range(32)]
    lines = [f"p vcew 38 {len(edges)}"] + [f"{u + 1} {v + 1}" for u, v in edges]
    path = write(tmp_path, "wide.gr", "\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "solve", path, "--algo", "tw")
    assert code == 3 and "72 bits" in err
    assert io.parse_result(out).status == "unknown"


def test_solve_failed_reverification_exits_4(tmp_path, capsys, monkeypatch):
    # every C4 edge at weight 1 gives all four vertices color 2
    monkeypatch.setattr(treewidth, "run_dp", lambda g, td, pre, **_: treewidth.DPRun(frozenset(range(4)), [1], 1))
    path = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    code, out, err = run_cli(capsys, "solve", path, "--algo", "tw")
    assert code == 4 and out == ""
    assert "re-verification" in err


def test_solve_partial_witness_exits_4(tmp_path, capsys, monkeypatch):
    # a witness that is not a total {0, 1} map fails re-verification; it is
    # not an input error
    solve_exhaustive = oracle.solve_exhaustive

    def drop_one_edge(*args, **kwargs):
        w = solve_exhaustive(*args, **kwargs)
        del w[next(iter(w))]
        return w

    monkeypatch.setattr(oracle, "solve_exhaustive", drop_one_edge)
    path = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    code, out, err = run_cli(capsys, "solve", path, "--algo", "oracle")
    assert code == 4 and out == ""
    assert "re-verification" in err


def test_solve_witness_dropping_a_preweight_exits_4(tmp_path, capsys, monkeypatch):
    # a proper witness (P4 colours 1, 2, 1, 0) that weighs the edge
    # pre-weighted 1 at 0 fails re-verification
    witness = {(0, 1): 1, (1, 2): 1, (2, 3): 0}
    monkeypatch.setattr(oracle, "solve_exhaustive", lambda *args, **kwargs: dict(witness))
    path = write(tmp_path, "p4.gr", "p vcew 4 3\n1 2\n2 3\n3 4 1\n")
    code, out, err = run_cli(capsys, "solve", path, "--algo", "oracle")
    assert code == 4 and out == ""
    assert "re-verification" in err


def test_prewt_failed_reverification_exits_4(tmp_path, capsys, monkeypatch):
    # the witness is re-verified where vertex_cover.lift extends it
    monkeypatch.setattr(vertex_cover, "is_proper", lambda g, w: False)
    path = write(tmp_path, "p3.gr", "p vcew 3 2\n1 2 1\n2 3\n")
    code, out, err = run_cli(capsys, "solve", path)
    assert code == 4 and out == ""
    assert "contract violation" in err and "re-verification" in err


def test_prewt_residual_bound_violation_exits_4(tmp_path, capsys, monkeypatch):
    # A color budget of -1 drives the residual-edge bound below zero, while
    # the unweighted edge 1-3 between the cover vertices 1 and 3 always stays.
    monkeypatch.setattr(preweight, "color_budget", lambda k: -1)
    path = write(tmp_path, "paw.gr", "p vcew 4 4\n1 2\n2 3\n1 3\n3 4 1\n")
    code, out, err = run_cli(capsys, "solve", path)
    assert code == 4 and out == ""
    assert "contract violation" in err and "unweighted edges remain" in err


def test_kernel_bound_violation_exits_4(tmp_path, capsys, monkeypatch):
    # Without cover vertices the two C4 neighborhoods form two classes, above 4^0.
    monkeypatch.setattr(vertex_cover, "maximal_matching_cover", lambda g: ())
    path = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    code, out, err = run_cli(capsys, "kernelize", path, "-o", str(tmp_path / "out"))
    assert code == 4 and out == ""
    assert "contract violation: class count exceeds 2^(2k)" in err
    assert not (tmp_path / "out.gr").exists()


def test_cli_import_leaves_numpy_unloaded():
    # numpy loads with the first DP run; the other routes never pay for it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import vcew.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_solve_stdout_identical_across_kernels(tmp_path, capsys, monkeypatch, compiled_kernel):
    yes = write(tmp_path, "yes.gr", "p vcew 5 6\n1 2\n2 3\n3 4\n4 5\n1 5\n2 4 1\n")
    no = write(tmp_path, "no.gr", "p vcew 5 7\n1 2\n2 3\n1 3\n3 4\n1 4\n2 4\n4 5 1\n")
    for path, status in ((yes, "yes"), (no, "no")):
        outputs = []
        for kernel in (_search_py, compiled_kernel):
            monkeypatch.setattr(oracle, "_kernel", kernel)
            code, out, _ = run_cli(capsys, "solve", path, "--algo", "oracle")
            assert code == 0 and io.parse_result(out).status == status
            outputs.append(out)
        assert outputs[0] == outputs[1]


def test_auto_routing(tmp_path, capsys):
    zero = write(tmp_path, "p0.gr", "p vcew 4 4\n1 2 0\n2 3\n3 4\n1 4\n")
    assert io.parse_result(run_cli(capsys, "solve", zero)[1]).algorithm == "tw"
    ones = write(tmp_path, "p1.gr", "p vcew 4 4\n1 2 1\n2 3\n3 4\n1 4\n")
    assert io.parse_result(run_cli(capsys, "solve", ones)[1]).algorithm == "prewt"
    small = write(tmp_path, "small.gr", "p vcew 3 2\n1 2\n2 3\n")
    assert io.parse_result(run_cli(capsys, "solve", small)[1]).algorithm == "oracle"
    # past 24 free edges: C30 has width 2 and degree 2, a 30-leaf star degree 30
    cycle = write(tmp_path, "c30.gr", "p vcew 30 30\n" + "".join(f"{i} {i % 30 + 1}\n" for i in range(1, 31)))
    assert io.parse_result(run_cli(capsys, "solve", cycle)[1]).algorithm == "tw"
    star = write(tmp_path, "star.gr", "p vcew 31 30\n" + "".join(f"1 {v}\n" for v in range(2, 32)))
    assert io.parse_result(run_cli(capsys, "solve", star)[1]).algorithm == "prewt"


GRID_5X5 = [(5 * r + c + 1, 5 * r + c + 2) for r in range(5) for c in range(4)] + [(i, i + 5) for i in range(1, 21)]


@pytest.mark.parametrize(
    "text,decompositions,algo",
    [
        ("p vcew 31 30\n" + "".join(f"1 {v}\n" for v in range(2, 32)), 0, "prewt"),  # degree 30
        ("p vcew 25 40\n" + "".join(f"{u} {v}\n" for u, v in GRID_5X5), 1, "prewt"),  # degree 4, width 5
        ("p vcew 30 30\n" + "".join(f"{i} {i % 30 + 1}\n" for i in range(1, 31)), 1, "tw"),  # degree 2, width 2
    ],
    ids=["star-30", "grid-5x5", "cycle-30"],
)
def test_auto_tests_degree_before_decomposing(tmp_path, capsys, monkeypatch, text, decompositions, algo):
    # the prewt route never reads a decomposition, so one is computed only for a degree the tw route takes
    calls = []

    def counted(g, _compute=treewidth.compute_decomposition):
        calls.append(g)
        return _compute(g)

    monkeypatch.setattr(treewidth, "compute_decomposition", counted)
    _, out, _ = run_cli(capsys, "solve", write(tmp_path, "g.gr", text))
    assert io.parse_result(out).algorithm == algo
    assert len(calls) == decompositions


def test_vc_route_is_gone(tmp_path, capsys):
    # the base problem runs on the prewt route, so --algo has no vc choice
    path = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", path, "--algo", "vc"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "invalid choice: 'vc'" in captured.err


@pytest.mark.parametrize(
    "text", ["p vcew 2 1\n1 2 0\n", "p vcew 3 2\n1 2 0\n2 3\n"], ids=["prewt-isolated-zero", "prewt-zero"]
)
def test_forced_route_rejects_its_wrong_variant(tmp_path, capsys, text):
    # checked before the isolated-edge shortcut, which would answer no
    path = write(tmp_path, "g.gr", text)
    message = "vcew: pre-weights of 0 are outside the all-ones pipeline; use the treewidth solver\n"
    assert run_cli(capsys, "solve", path, "--algo", "prewt") == (2, "", message)


def test_verify_proper_and_improper(tmp_path, capsys):
    g = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    w = write(tmp_path, "c4.w", "1 2 1\n2 3 1\n3 4 0\n1 4 0\n")
    code, out, _ = run_cli(capsys, "verify", g, w)
    assert code == 0 and out.splitlines()[0] == "proper"
    k2 = write(tmp_path, "k2.gr", "p vcew 2 1\n1 2\n")
    k2w = write(tmp_path, "k2.w", "1 2 1\n")
    code, out, _ = run_cli(capsys, "verify", k2, k2w)
    assert code == 0
    assert out.splitlines() == ["improper", "conflict 1 2"]


def test_verify_reports_changed_pre_weights(tmp_path, capsys):
    # colors 1, 2, 1 are proper, but edge 1 2 is pre-weighted 0
    g = write(tmp_path, "p3.gr", "p vcew 3 2\n1 2 0\n2 3\n")
    for certificate, lines in (
        ("1 2 1\n2 3 1\n", ["improper", "pre-weight 1 2"]),
        ("1 2 1\n2 3 0\n", ["improper", "pre-weight 1 2", "conflict 1 2"]),
        ("1 2 0\n2 3 1\n", ["improper", "conflict 2 3"]),
    ):
        w = write(tmp_path, "p3.w", certificate)
        code, out, _ = run_cli(capsys, "verify", g, w)
        assert code == 0 and out.splitlines() == lines, certificate


def test_main_reuses_one_parser(tmp_path, capsys):
    # the cached parser gives the same exit codes and stdout as a fresh one,
    # also after a call that argparse ended with SystemExit
    g = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    w = write(tmp_path, "c4.w", "1 2 1\n2 3 1\n3 4 0\n1 4 0\n")
    calls = (["solve", g, "--algo", "nope"], ["solve", g], ["verify", g, w], ["solve", g])

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    cli.build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _ in fresh] == [2, 0, 0, 0]
    assert fresh[1] == fresh[3] and fresh[2][1] == "proper\n"
    assert cli.build_parser.cache_info().misses == 1


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every parser that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_readme_usage_matches_parser():
    # every option as the README's usage block writes it: its first option string
    parsers = dict(_leaf_parsers(cli.build_parser()))
    expected = {
        path: {a.option_strings[0] for a in p._actions if a.option_strings and a.dest != "help"}
        for path, p in parsers.items()
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    usage = {}
    choices = {}
    for entry in re.split(r"\n(?=vcew )", block.strip()):
        words = entry.split()[1:]
        path = ()
        while path not in parsers:
            path += (words[len(path)],)
        assert path not in usage, path
        usage[path] = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", entry))
        for option, values in re.findall(r"(--?[\w-]+) (\w+(?:\|\w+)+)", entry):
            choices[path, option] = values.split("|")
    assert usage == expected
    assert expected[("solve",)] == {"--algo", "--td"}
    assert expected[("kernelize",)] == {"-o"}
    # and every option's choices, as the README writes them: a|b|c
    assert choices == {
        (path, a.option_strings[0]): list(a.choices) for path, p in parsers.items() for a in p._actions if a.choices
    }
    assert choices[(("solve",), "--algo")] == ["auto", "oracle", "tw", "prewt"]


@pytest.mark.parametrize(
    "command", ["solve", "solve --td", "verify graph", "verify weights", "kernelize", "reduce-lc"]
)
def test_missing_input_file_exits_2(tmp_path, capsys, command):
    g = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    w = write(tmp_path, "c4.w", "1 2 1\n2 3 1\n3 4 0\n1 4 0\n")
    gone = str(tmp_path / "absent.txt")
    argv = {
        "solve": ["solve", gone],
        "solve --td": ["solve", g, "--algo", "tw", "--td", gone],
        "verify graph": ["verify", gone, w],
        "verify weights": ["verify", g, gone],
        "kernelize": ["kernelize", gone],
        "reduce-lc": ["reduce-lc", gone],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("vcew: ") and "absent.txt" in err


@pytest.mark.parametrize("command", ["kernelize", "reduce-lc", "gen"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    g = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    lc = write(tmp_path, "i.lc", "p lc 2 1\n1 2\nl 1 2\nl 2 3\n")
    out_path = str(tmp_path / "missing" / "dir" / "x")
    argv = {
        "kernelize": ["kernelize", g, "-o", out_path],
        "reduce-lc": ["reduce-lc", lc, "--N", "7", "-o", out_path],
        "gen": ["gen", "random", "--n", "5", "--seed", "1", "-o", out_path + ".gr"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("vcew: ") == 1 and err.startswith("vcew: ") and "Traceback" not in err


def test_solve_k_option_is_gone(tmp_path, capsys):
    # the prewt route computes the cover number itself, and the
    # search ceiling is the oracle's own constant
    path = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    for option, value in (("--k", "1"), ("--cutoff", "32")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", path, option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


def test_verify_incomplete_exits_2(tmp_path, capsys):
    g = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    w = write(tmp_path, "c4.w", "1 2 1\n")
    assert run_cli(capsys, "verify", g, w)[0] == 2


def test_kernelize_writes_files_and_stats(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "gen", "planted", "--k", "2", "--classes", "500", "--seed", "1",
        "--full-sig", "-o", str(tmp_path / "planted.gr"),
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "kernelize", str(tmp_path / "planted.gr"), "-o", str(tmp_path / "planted.kernel"),
    )
    assert code == 0
    stats = json.loads(err.split("stats: ", 1)[1])
    assert 193 in stats["class_sizes_after"]
    assert stats["classes"] <= 4 ** stats["k_matching"]
    kernel_graph, _ = io.parse_graph((tmp_path / "planted.kernel.gr").read_text())
    mapping = (tmp_path / "planted.kernel.map").read_text().splitlines()
    assert len(mapping) == kernel_graph.vertex_count


def test_kernelize_identity_binary_identical(tmp_path, capsys):
    # canonical edge order in, identical bytes out when nothing is removed
    text = "p vcew 4 4\n1 2\n1 4\n2 3\n3 4\n"
    path = write(tmp_path, "c4.gr", text)
    code, _, _ = run_cli(capsys, "kernelize", path, "-o", str(tmp_path / "out"))
    assert code == 0
    assert (tmp_path / "out.gr").read_text() == text


@pytest.mark.parametrize("weight", ["0", "1"])
def test_kernelize_preweighted_exits_2(tmp_path, capsys, weight):
    path = write(tmp_path, "p3.gr", f"p vcew 3 2\n1 2 {weight}\n2 3\n")
    code, out, err = run_cli(capsys, "kernelize", path, "-o", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == "vcew: kernelization applies to the base problem; drop the pre-weights\n"
    assert not (tmp_path / "out.gr").exists()


def test_reduce_lc(tmp_path, capsys):
    inst = write(tmp_path, "i.lc", "p lc 2 1\n1 2\nl 1 2\nl 2 3\n")
    code, out, _ = run_cli(capsys, "reduce-lc", inst, "--N", "7", "-o", str(tmp_path / "red"), "--dot")
    assert code == 0
    assert "N 7" in out
    # the written .gr, .roles and .dot bytes are pinned
    assert sha256(tmp_path / "red.gr") == "6b66da8ea5bdcc36552fd3601345967f4ae3801a8ef985a64a27c3d99a74d7b1"
    assert sha256(tmp_path / "red.roles") == "25be9a4fec015ee5b9a5bd524004de078a043d7374a53a9d555c42522ff60d21"
    assert sha256(tmp_path / "red.dot") == "8b4896b5c0a40224a71593512bdd68ab0aafea0d0f3a5f014fd0b1aa93cb7dfe"
    # override below the largest disallowed color is rejected
    assert run_cli(capsys, "reduce-lc", inst, "--N", "2")[0] == 2


@pytest.mark.parametrize("scale", ["0", "-5"])
def test_reduce_lc_nonpositive_scale_exits_2(tmp_path, capsys, scale):
    # one vertex whose list allows every color: no chain, so nothing else checks N
    inst = write(tmp_path, "one.lc", "p lc 1 0\nl 1 2\n")
    code, out, err = run_cli(capsys, "reduce-lc", inst, "--N", scale, "-o", str(tmp_path / "red"))
    assert (code, out, err) == (2, "", "vcew: --N must be at least 1\n")
    assert not (tmp_path / "red.gr").exists()


def test_reduce_lc_scale_too_small_for_z_exits_2(tmp_path, capsys):
    # six chains, one per colour 3 and 4 at each vertex: z's degree 2N + 6 passes 3N at N = 5
    inst = write(tmp_path, "three.lc", "p lc 3 0\nl 1 2\nl 2 2\nl 3 2\n")
    code, out, err = run_cli(capsys, "reduce-lc", inst, "--N", "5", "-o", str(tmp_path / "red"))
    assert (code, out, err) == (2, "", "vcew: z would have degree 16 > 3N=15; raise N\n")
    assert not (tmp_path / "red.gr").exists()
    assert run_cli(capsys, "reduce-lc", inst, "--N", "6", "-o", str(tmp_path / "red"))[0] == 0  # degree 18 = 3N


def test_reduce_lc_empty_instance(tmp_path, capsys):
    inst = write(tmp_path, "empty.lc", "p lc 0 0\n")
    prefix = tmp_path / "red"
    code, out, _ = run_cli(capsys, "reduce-lc", inst, "-o", str(prefix))
    assert code == 0
    assert out == f"reduced 0 vertices 0 edges\nN 1 z-degree 0 removed 0\nwrote {prefix}.gr and {prefix}.roles\n"
    assert (tmp_path / "red.gr").read_text() == "p vcew 0 0\n"
    assert (tmp_path / "red.roles").read_text() == ""


def test_reduce_lc_z_degree_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    # one stray edge at the anchor of every triangle gadget raises z's degree
    def type_a_with_stray_edge(b, a, k):
        b.add_edge(a, b.add_vertex())
        return add_type_a(b, a, k)

    add_type_a = reduction.add_type_a
    monkeypatch.setattr(reduction, "add_type_a", type_a_with_stray_edge)
    inst = write(tmp_path, "i.lc", "p lc 2 1\n1 2\nl 1 2\nl 2 3\n")
    code, out, err = run_cli(capsys, "reduce-lc", inst, "--N", "7", "-o", str(tmp_path / "red"))
    assert code == 4 and out == ""
    assert "contract violation: z degree does not match the construction" in err
    assert not (tmp_path / "red.gr").exists()


def test_reduce_lc_default_scale(tmp_path, capsys):
    # a path, a triangle and the 4-vertex reduce_lc benchmark member
    # (161k vertices); the digests pin every edge role's lines
    cases = [
        ("red3", "p lc 3 2\n1 2\n2 3\nl 1 2\nl 2 3\nl 3 2\n",
         "9802c209de076989c985e5f425914c1dde84e0b4d0ee2e20aea85ed54ab959ce",
         "ee593b8645de76b15dc1e0f15453e8178fa3cda303be4d319269162bb99439e2",
         "N 33"),
        ("tri", "p lc 3 3\n1 2\n2 3\n1 3\nl 1 2 3\nl 2 3 4\nl 3 2 4\n",
         "6e062798aca1256dbb0b9fd726c46d19f159dd70ef75079b249d2d6b10c5dd87",
         "8fd1c010adf6771b5a6a6fc6bc63e29156e25fab3fea10f60615034df7c7b849",
         "N 33"),
        ("red4", "p lc 4 5\n1 2\n1 3\n1 4\n2 4\n3 4\nl 1 4 5\nl 2 2 3\nl 3 4\nl 4 4\n",
         "84d7bab77ad664e13d6feba606681ea108bccdfddecf044b8fef68b3882db052",
         "eccd9dc5158f8c2f398f18e854b6933aa75e403928b6e27d36663b34e48d2406",
         "reduced 161035 vertices 161133 edges\nN 76 z-degree 174 removed 0\n"),
    ]
    for name, text, gr_sha, roles_sha, stdout in cases:
        inst = write(tmp_path, name + ".lc", text)
        code, out, _ = run_cli(capsys, "reduce-lc", inst, "-o", str(tmp_path / name))
        assert code == 0 and stdout in out
        assert sha256(tmp_path / (name + ".gr")) == gr_sha
        assert sha256(tmp_path / (name + ".roles")) == roles_sha


def test_gen_deterministic(tmp_path, capsys):
    a = run_cli(capsys, "gen", "random", "--n", "9", "--p", "0.4", "--seed", "7")[1]
    b = run_cli(capsys, "gen", "random", "--n", "9", "--p", "0.4", "--seed", "7")[1]
    assert a == b
    c = run_cli(capsys, "gen", "random", "--n", "9", "--p", "0.4", "--seed", "8")[1]
    assert a != c


def test_gen_gadget_type_a_edge_count(capsys):
    # the header of every gadget command's output
    for argv, header in (
        (["type-a", "--k", "3"], "p vcew 11 11"),
        (["type-a", "--k", "3", "--headroom", "2"], "p vcew 13 13"),
        (["suspended", "--paths", "3"], "p vcew 7 6"),
        (["type-b", "--k", "3", "--N", "5"], "p vcew 30 29"),
    ):
        code, out, _ = run_cli(capsys, "gen", "gadget", *argv)
        assert code == 0 and out.splitlines()[0] == header, argv


def test_gen_planted_class_size_honored(capsys):
    out = run_cli(capsys, "gen", "planted", "--k", "1", "--classes", "6", "--seed", "2", "--full-sig")[1]
    g, _ = io.parse_graph(out)
    assert g.vertex_count == 7 and len(g.edges) == 6
    # with --full-sig an empty cover is allowed: the classes are isolated vertices
    out = run_cli(capsys, "gen", "planted", "--k", "0", "--classes", "3", "--seed", "1", "--full-sig")[1]
    assert out == "p vcew 3 0\n"


@pytest.mark.parametrize(
    "argv,option",
    [
        (["planted", "--k", "0", "--classes", "3", "--seed", "1"], "--k"),
        (["planted", "--k", "-1", "--classes", "3", "--seed", "1"], "--k"),
        (["planted", "--k", "2", "--classes", "3,x", "--seed", "1"], "--classes"),
        (["planted", "--k", "2", "--classes", "3,-1", "--seed", "1"], "--classes"),
        (["gadget", "type-a", "--k", "2", "--headroom", "-2"], "--headroom"),
        (["gadget", "suspended", "--paths", "-1"], "--paths"),
        (["gadget", "type-a", "--k", "0"], "--k"),
        (["gadget", "type-b", "--k", "1", "--N", "5"], "--k"),
        (["gadget", "type-b", "--k", "5", "--N", "5"], "--k"),
        (["random", "--n", "-1", "--seed", "1"], "--n"),
        (["random", "--n", "4", "--p", "2", "--seed", "1"], "--p"),
        (["random", "--n", "4", "--p", "-1", "--seed", "1"], "--p"),
        (["random", "--n", "4", "--p", "nan", "--seed", "1"], "--p"),
        (["random", "--n", "4", "--pre", "1.5", "--seed", "1"], "--pre"),
        (["planted", "--k", "2", "--classes", "3", "--seed", "1", "--cover-p", "7"], "--cover-p"),
    ],
    ids=["planted-k-0", "planted-k-negative", "classes-not-integer", "classes-negative",
         "headroom-negative", "paths-negative", "type-a-k-0", "type-b-k-1", "type-b-k-not-below-N",
         "random-n-negative", "p-above-1", "p-negative", "p-nan", "pre-above-1", "cover-p-above-1"],
)
def test_gen_bad_option_exits_2(capsys, argv, option):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"vcew: {option} ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "algo,text,counters,digest",
    [
        ("oracle", "p vcew 5 6\n1 2\n2 3\n3 4\n4 5\n1 5\n2 4 1\n", {"search_nodes": 9},
         "bd2df2c83f8fa597dfaa4311e87f8a5e392f4290736f39ab90f3185d7d1c79c2"),
        ("tw", "p vcew 6 8\n1 2 0\n2 3\n3 4\n4 5\n5 6\n1 6\n2 5 1\n3 6\n",
         {"width": 3, "dp_nodes": 18, "states_stored": 128, "max_states": 48, "max_built": 48},
         "0741192e617eede74bb2b70e6ffc026c9879a2dd0f76a0b1894c70912da671ce"),
        # gen planted --k 2 --classes 3,2,4 --seed 1 --cover-p 1, unweighted;
        # the prewt route returns the decide walk's first completion, so no
        # popcount pass runs (40 and 19 nodes with the passes, and the
        # fewest-ones witness of this graph had digest c2022c5e...)
        ("prewt", "p vcew 11 14\n1 2\n1 6\n1 7\n1 8\n1 9\n1 10\n1 11\n2 3\n2 4\n2 5\n2 8\n2 9\n2 10\n2 11\n",
         {"k": 2, "rule_deletions": 0, "search_nodes": 37},
         "79293329332d522927b4a60ffb03253b7aa6043fcd8fed9dcfbb199af4cb0f23"),
        # a 40-leaf star whose odd leaf edges are pre-weighted 1
        ("prewt", "p vcew 41 40\n" + "".join(f"1 {i + 1}{' 1' if i % 2 else ''}\n" for i in range(1, 41)),
         {"k": 1, "rule_deletions": 3, "search_nodes": 18},
         "fe637e900fd64b1da826d5a8e301b8d2dfb4b88009423f062a34e85ef428b2d0"),
    ],
    ids=["oracle", "tw", "unweighted", "prewt"],
)
def test_solve_route_stats_and_stdout(tmp_path, capsys, algo, text, counters, digest):
    # every route reports its own counters on stderr; the stdout bytes are pinned
    g, pre = io.parse_graph(text)
    code, out, err = run_cli(capsys, "solve", write(tmp_path, "g.gr", text), "--algo", algo)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    stats = json.loads(err.split("stats: ", 1)[1])
    assert stats.pop("elapsed_ms") >= 0
    assert stats == {"free_edges": len(g.edges) - len(pre), **counters}


def test_solve_k8_no_on_the_vc_route(tmp_path, capsys):
    # 28 free edges (above the oracle's 24) and width 7 (above the DP's 4)
    # send K8 to the prewt route, whose search the twin order decides in
    # 1,259,539 walk nodes, down from 21,908,527 in every order
    text = "p vcew 8 28\n" + "".join(f"{u} {v}\n" for u in range(1, 9) for v in range(u + 1, 9))
    code, out, err = run_cli(capsys, "solve", write(tmp_path, "k8.gr", text))
    record = io.parse_result(out)
    assert code == 0 and (record.status, record.algorithm, record.verified) == ("no", "prewt", True)
    assert json.loads(err.split("stats: ", 1)[1])["search_nodes"] == 1_259_539


def test_solve_output_byte_identical_across_processes(tmp_path):
    path = write(tmp_path, "c4.gr", "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "vcew.cli", "solve", path],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_fuzz_oracle_vs_tw(tmp_path, capsys):
    """1000 seeded instances through solve with both forced algorithms."""
    disagreements = []
    for seed in range(1000):
        g, pre = random_graph(4 + seed % 4, 0.25 + (seed % 3) * 0.15, seed, pre_fraction=0.2)
        path = write(tmp_path, "fuzz.gr", io.emit_graph(g, pre))
        code_a, out_a, _ = run_cli(capsys, "solve", path, "--algo", "oracle")
        code_b, out_b, _ = run_cli(capsys, "solve", path, "--algo", "tw")
        assert code_a == 0 and code_b == 0
        a = io.parse_result(out_a)
        b = io.parse_result(out_b)
        if a.status != b.status:
            disagreements.append(seed)
    assert not disagreements, disagreements


def test_solve_with_provided_td(tmp_path, capsys):
    from vcew.treewidth import compute_decomposition

    g, _ = random_graph(7, 0.45, seed=13)
    graph_path = write(tmp_path, "g.gr", io.emit_graph(g))
    td_path = write(tmp_path, "g.td", io.emit_td(compute_decomposition(g)))
    code, out_td, _ = run_cli(capsys, "solve", graph_path, "--algo", "tw", "--td", td_path)
    assert code == 0
    code, out_auto, _ = run_cli(capsys, "solve", graph_path, "--algo", "tw")
    assert code == 0
    assert io.parse_result(out_td).status == io.parse_result(out_auto).status


@pytest.mark.parametrize("with_td,checks", [(False, 1), (True, 2)], ids=["computed-td", "td-file"])
def test_solve_tw_checks_decomposition_once(tmp_path, capsys, monkeypatch, with_td, checks):
    # make_nice checks the decomposition and a --td file is checked once on
    # reading; the nice decomposition make_nice builds is not checked again
    from vcew.treewidth import compute_decomposition

    text = "p vcew 4 4\n1 2\n2 3\n3 4\n1 4\n"
    graph_path = write(tmp_path, "c4.gr", text)
    td_path = write(tmp_path, "c4.td", io.emit_td(compute_decomposition(io.parse_graph(text)[0])))
    calls = {"validate_decomposition": 0, "validate_nice": 0}
    for name in calls:
        def counted(*args, _name=name, _check=getattr(treewidth, name)):
            calls[_name] += 1
            return _check(*args)
        monkeypatch.setattr(treewidth, name, counted)
    code, out, _ = run_cli(capsys, "solve", graph_path, "--algo", "tw", *(["--td", td_path] if with_td else []))
    assert code == 0 and io.parse_result(out).status == "yes"
    assert calls == {"validate_decomposition": checks, "validate_nice": 0}
