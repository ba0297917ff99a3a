"""Freeze the benchmark corpus: pools, expected verdicts, digests, costs.

    python3 perfbench/freeze.py [--workload NAME]

Run from the repository root.  For every workload it generates the candidate
instances, keeps those passing the structural filters below (never a filter
on the outcome), runs each through ``vcew solve`` with ``--algo auto`` and
through a second exact route wherever that is feasible, and writes
``perfbench/frozen.json``.  Two routes that disagree stop the freeze.  A
changed ``vcew.generators`` changes the pool digests, and the benchmark then
refuses to run until the corpus is frozen again.

Freezing reads outcomes of the current program only to record them (the
verdict, the exit class, the stdout digest and the cost used to stratify
the per-seed draws).  It takes several minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from vcew import cli, treewidth  # noqa: E402
from vcew.graph import Graph  # noqa: E402

ROUTE_TIMEOUT_S = 120
COST_REPEATS = 3  # a member's cost is its fastest of these runs, which speed drift only slows
MEMORY_LIMIT = 3 << 30
# A second route runs only where it is feasible.  The DP takes minutes and
# gigabytes at width 6 on dense graphs (n=9, m=28: 2.4 GB) but about 35 s on
# the sparse width-6 ROADMAP instance (n=30, m=45), and a minute on a star of
# 300 leaves, because its degree fields grow with the degree.  Pure-Python
# exhaustive search takes minutes above 26 free edges.
TW_MAX_WIDTH = 5
TW_MAX_DEGREE = 24
ORACLE_MAX_FREE = 26


class RouteTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RouteTimeout()


def run_cli(argv, timeout_s=ROUTE_TIMEOUT_S):
    """(exit code or None, stdout, seconds); None also for a timeout or MemoryError."""
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(timeout_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # RouteTimeout, MemoryError or a defect: the route gives no verdict
        rc = None
    finally:
        signal.alarm(0)
    return rc, out.getvalue(), time.perf_counter() - start


def structure(text):
    n, edges, pre = check.parse_gr(text)
    g = Graph.build(n, [(u - 1, v - 1) for u, v in edges])
    return g, pre, treewidth.compute_decomposition(g).width()


def candidates(workload):
    """(group, spec, structural rule for keep(), alternate routes) in pool order."""
    if workload == "oracle_atlas":
        for i in range(996):
            yield "atlas", {"kind": "atlas", "index": i}, None, ["tw"]
        probs = {8: 0.75, 9: 0.6, 10: 0.5, 11: 0.4}
        for s in itertools.count():
            n = 8 + s % 4
            yield "gnp", {"kind": "gnp", "n": n, "p": probs[n], "seed": s}, "m20_24", ["tw"]
    elif workload == "tw_mixed":
        for s in itertools.count():
            n = 12 + s % 7
            yield "mixed", {"kind": "gnp", "n": n, "p": round(3 / n, 4), "seed": s, "pre": 0.3}, "mixed_w5", ["oracle"]
            if s % 6 == 0:
                n = 12 + (s // 6) % 7
                spec = {"kind": "gnp", "n": n, "p": round(4 / n, 4), "seed": 50000 + s // 6}
                yield "base", spec, "base_tw", ["oracle"]
    elif workload == "fpt_twins":
        for s in range(20):
            leaves = 150 + (37 * s) % 251
            yield "star", {"kind": "planted", "k": 1, "classes": [leaves], "seed": s, "full_sig": True, "ones": 0.5}, None, ["tw"]
        for s in range(20):
            leaves = 150 + (53 * s) % 251
            classes = [leaves // 2, leaves // 3, leaves - leaves // 2 - leaves // 3]
            yield "planted1", {"kind": "planted", "k": 1, "classes": classes, "seed": 100 + s, "ones": 0.3}, None, ["tw"]
        for s in range(120):
            n = 16 + s % 9
            spec = {"kind": "gnp", "n": n, "p": round(3.5 / n, 4), "seed": s, "pre": 0.4, "pre_ones": True}
            yield "gnp", spec, "has_pre", ["tw", "oracle"]
        yield "roadmap", {"kind": "gnp", "n": 30, "p": 0.1, "seed": 2}, None, ["tw", "oracle"]
        for s in itertools.count():
            classes = [3 + (7 * s + 5 * i) % 5 for i in range(6)]
            spec = {"kind": "planted", "k": 2 + s % 3, "classes": classes, "seed": 200 + s, "max_edges": 25 + s % 6}
            yield "vc", spec, "vc_route", ["tw"]
    elif workload == "reduce_lc":
        for s in range(100):
            yield "n3", {"kind": "lc", "n": 3, "cmax": 6, "seed": s}, None, []
        for s in range(12):
            yield "n4", {"kind": "lc", "n": 4, "cmax": 5, "seed": 1000 + s}, None, []


POOL_SIZE = {
    "oracle_atlas": {"atlas": 996, "gnp": 240},
    "tw_mixed": {"mixed": 400, "base": 60},
    "fpt_twins": {"star": 20, "planted1": 20, "gnp": 120, "roadmap": 1, "vc": 60},
    "reduce_lc": {"n3": 100, "n4": 12},
}


def keep(rule, text):
    """Structural filters: sizes, pre-weight kinds, width and degree; never outcomes."""
    if rule is None:
        return True
    g, pre, width = structure(text)
    m = len(g.edges)
    if rule == "m20_24":
        return 20 <= m <= 24
    if rule == "mixed_w5":  # mixed 0/1 pre-weights route to the DP; width 6 takes minutes and GBs
        return 0 in pre.values() and width <= 5
    if rule == "base_tw":  # the auto policy's own DP condition for unweighted instances
        return m > cli.ORACLE_MAX_FREE and width <= cli.TW_MAX_WIDTH and g.max_degree() <= cli.TW_MAX_DEGREE
    if rule == "has_pre":
        return bool(pre)
    if rule == "vc_route":  # 25-30 edges that the auto policy sends to the vc route
        return 25 <= m <= 30 and not (width <= cli.TW_MAX_WIDTH and g.max_degree() <= cli.TW_MAX_DEGREE)
    raise ValueError(rule)


def verdict(rc, stdout):
    if rc != 0:
        return None
    return json.loads(stdout)["status"]


def freeze_workload(workload, instances, scratch: Path):
    want = POOL_SIZE[workload]
    have = {group: 0 for group in want}
    members, texts = [], []
    for group, spec, rule, alternates in candidates(workload):
        if all(have[g] >= want[g] for g in want):
            break
        if have[group] >= want[group]:
            continue
        text = instances.text(spec)
        if not keep(rule, text):
            continue
        have[group] += 1
        path = scratch / f"inst{len(members)}{workloads.suffix(spec)}"
        path.write_text(text)
        member = {"group": group, "spec": spec}
        if spec["kind"] == "lc":
            prefix = scratch / "out"
            rc, stdout, seconds = run_cli(["reduce-lc", str(path), "-o", str(prefix)])
            if rc != 0:
                raise SystemExit(f"{workload} {spec}: reduce-lc exited {rc}")
            member.update(
                outcome="decided",
                gr_sha=check.file_sha(prefix.with_suffix(".gr")),
                roles_sha=check.file_sha(prefix.with_suffix(".roles")),
            )
        else:
            rc, stdout, seconds = run_cli(["solve", str(path)])
            outcome = {0: "decided", 3: "refused"}.get(rc, "failed")
            if outcome == "decided" and json.loads(stdout)["status"] == "yes":
                check.check_witness(text, json.loads(stdout))
            verdicts = {"auto": verdict(rc, stdout)}
            g, pre, width = structure(text)
            feasible = {
                "tw": g.max_degree() <= TW_MAX_DEGREE
                and (width <= TW_MAX_WIDTH or (width == TW_MAX_WIDTH + 1 and len(g.edges) <= 2 * g.vertex_count)),
                "oracle": len(g.edges) - len(pre) <= ORACLE_MAX_FREE,
            }
            for route in (r for r in alternates if feasible[r]):
                alt_rc, alt_out, _ = run_cli(["solve", str(path), "--algo", route])
                verdicts[route] = verdict(alt_rc, alt_out)
                if verdicts[route] == "yes":
                    check.check_witness(text, json.loads(alt_out))
            found = {v for v in verdicts.values() if v is not None}
            if len(found) > 1:
                raise SystemExit(f"{workload} {spec}: routes disagree: {verdicts}")
            member.update(
                outcome=outcome,
                expect=found.pop() if found else None,
                routes=sorted(r for r, v in verdicts.items() if v is not None),
                stdout_sha=hashlib.sha256(stdout.encode()).hexdigest()[:16],
            )
        argv = ["reduce-lc", str(path), "-o", str(scratch / "out")] if spec["kind"] == "lc" else ["solve", str(path)]
        seconds = min([seconds] + [run_cli(argv)[2] for _ in range(COST_REPEATS - 1)])
        member["cost_ms"] = round(seconds * 1000.0, 1)
        members.append(member)
        texts.append(text)
        print(workload, len(members), group, member.get("outcome"), member.get("expect"), member.get("routes"), member["cost_ms"], flush=True)
    return {"digest": workloads.pool_digest(texts), "members": members}


def dump(frozen) -> str:
    """frozen.json text: one pool member per line, so diffs stay readable."""
    parts = ["{"]
    for i, (workload, pool) in enumerate(sorted(frozen.items())):
        digest = pool["digest"]
        parts.append(f' "{workload}": {{"digest": "{digest}", "members": [')
        rows = [json.dumps(m, sort_keys=True, separators=(",", ":")) for m in pool["members"]]
        parts.append(",\n".join("  " + row for row in rows))
        parts.append(" ]}" + ("," if i < len(frozen) - 1 else ""))
    parts.append("}")
    return "\n".join(parts) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    signal.signal(signal.SIGALRM, _alarm)
    target = HERE / "frozen.json"
    instances = workloads.Instances()
    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in args.workload or workloads.WORKLOADS:
            pool = freeze_workload(workload, instances, Path(tmp))
            frozen = json.loads(target.read_text()) if target.exists() else {}
            frozen[workload] = pool
            target.write_text(dump(frozen))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
