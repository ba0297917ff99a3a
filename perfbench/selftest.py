"""Self-test of the benchmark's checker, corpus digest and tracer.

    python3 perfbench/selftest.py

Exits 0 when every check passes.  It feeds the checker a corrupted witness
and a flipped verdict, feeds the digest check a tampered corpus, and traces
one small all-ones pre-weighted star: the prewt route must show two
``apply_reduction`` calls and k + 3 ``exact_vertex_cover`` calls (k + 1 from
the iterative deepening of ``minimum_vertex_cover``, one from each
reduction).  It also checks that BENCHMARK.json names exactly the metrics
that run.py reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TRIANGLE_PLUS = "p vcew 4 4\n1 2\n2 3\n1 3 1\n3 4\n"


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except (check.CheckError, workloads.DigestMismatch):
        return True
    return False


def solve(cli, text: str, argv=()):
    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = Path(tmp) / "g.gr"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["solve", str(path), *argv])
    return rc, out.getvalue()


def main() -> int:
    from vcew import cli

    failures = []
    rc, stdout = solve(cli, TRIANGLE_PLUS)
    record = json.loads(stdout)
    if rc != 0 or record["status"] != "yes" or check.check_solve(TRIANGLE_PLUS, rc, stdout, "yes") != "decided":
        failures.append("a correct yes answer was not accepted")

    bad = dict(record, witness=[[u, v, 1 - w] if (u, v) == (1, 2) else [u, v, w] for u, v, w in record["witness"]])
    if not rejects(check.check_solve, TRIANGLE_PLUS, 0, json.dumps(bad), "yes"):
        failures.append("corrupted witness accepted")
    unpinned = dict(record, witness=[[u, v, 0] if (u, v) == (1, 3) else [u, v, w] for u, v, w in record["witness"]])
    if not rejects(check.check_witness, TRIANGLE_PLUS, unpinned):
        failures.append("witness that drops a pre-weight accepted")
    if not rejects(check.check_solve, TRIANGLE_PLUS, 0, stdout, "no"):
        failures.append("yes answer to an instance frozen as 'no' accepted")
    flipped = json.dumps({"status": "no", "algorithm": "oracle", "verified": True, "stats": {}})
    if not rejects(check.check_solve, TRIANGLE_PLUS, 0, flipped, "yes"):
        failures.append("flipped verdict accepted")
    if not rejects(check.check_reduce, 0, "a" * 64, "b" * 64, "a" * 64, "c" * 64):
        failures.append("tampered .roles digest accepted")

    texts = ["p vcew 2 1\n1 2\n", TRIANGLE_PLUS]
    digest = workloads.pool_digest(texts)
    if rejects(workloads.verify_digest, "selftest", texts, digest):
        failures.append("matching corpus digest rejected")
    if not rejects(workloads.verify_digest, "selftest", [texts[0], TRIANGLE_PLUS.replace("3 4", "2 4")], digest):
        failures.append("tampered corpus accepted")

    leaves = 40
    star = workloads.gr_text(leaves + 1, [(0, i) for i in range(1, leaves + 1)],
                             {(0, i): 1 for i in range(1, leaves + 1, 2)})
    k = 1
    untraced_main = cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc, stdout = solve(cli, star)
    finally:
        tracer.uninstall()
    got = tracer.pass_metrics()
    if rc != 0 or json.loads(stdout)["algorithm"] != "prewt":
        failures.append(f"star instance did not run the prewt route (exit {rc})")
    if got["preweight.apply_reduction.calls"] != 2:
        failures.append(f"apply_reduction calls {got['preweight.apply_reduction.calls']}, expected 2")
    if got["vertex_cover.exact_vertex_cover.calls"] != k + 3:
        failures.append(f"exact_vertex_cover calls {got['vertex_cover.exact_vertex_cover.calls']}, expected {k + 3}")
    if tracer.unresolved:
        failures.append(f"unresolved trace targets: {tracer.unresolved}")
    if cli.main is not untraced_main:
        failures.append("tracer left a wrapper installed")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if end_to_end != run.END_TO_END_UNITS:
        failures.append("BENCHMARK.json end_to_end differs from the metrics run.py reports")
    reported = set(spans.Tracer().pass_metrics()) | set(run.PER_LAYER_EXTRAS)
    if {m["name"] for m in bench["per_layer"]} != reported:
        failures.append("BENCHMARK.json per_layer differs from the metrics a traced run reports")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
