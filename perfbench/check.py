"""Output checker, independent of the vcew package.

It re-reads the instance text itself and recomputes vertex colors from the
printed witness, so a defect shared by the solvers and vcew's own
re-verification cannot hide.  Every function raises CheckError on a wrong
answer; the benchmark aborts the run on it.
"""

from __future__ import annotations

import hashlib
import json

EXIT_OK, EXIT_INPUT, EXIT_CAPACITY = 0, 2, 3


class CheckError(AssertionError):
    """A command printed a wrong verdict, an invalid witness or wrong files."""


def parse_gr(text: str):
    """(n, edges, pre) of a ``.gr`` text; edges as 1-indexed (u, v) with u < v."""
    n = None
    edges: list[tuple[int, int]] = []
    pre: dict[tuple[int, int], int] = {}
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            n = int(parts[2])
            continue
        u, v = sorted((int(parts[0]), int(parts[1])))
        edges.append((u, v))
        if len(parts) == 3:
            pre[(u, v)] = int(parts[2])
    if n is None:
        raise ValueError("instance text has no header")
    return n, edges, pre


def check_witness(text: str, record: dict) -> None:
    """A yes record: every edge weighted once with 0 or 1, the pre-weights
    kept, adjacent colors distinct, and the printed colors equal to them."""
    n, edges, pre = parse_gr(text)
    weights: dict[tuple[int, int], int] = {}
    for u, v, w in record.get("witness") or ():
        e = (min(u, v), max(u, v))
        if e in weights:
            raise CheckError(f"edge {e} weighted twice")
        if w not in (0, 1):
            raise CheckError(f"edge {e} has weight {w!r}")
        weights[e] = w
    if set(weights) != set(edges):
        raise CheckError("witness edge set differs from the instance's edges")
    for e, w in pre.items():
        if weights[e] != w:
            raise CheckError(f"witness changes the pre-weight of edge {e}")
    colors = [0] * (n + 1)
    for (u, v), w in weights.items():
        colors[u] += w
        colors[v] += w
    for u, v in edges:
        if colors[u] == colors[v]:
            raise CheckError(f"adjacent vertices {u} and {v} share color {colors[u]}")
    if record.get("colors") != colors[1:]:
        raise CheckError("printed colors differ from the colors the witness induces")


def check_solve(text: str, rc, stdout: str, expect: str | None) -> str:
    """Outcome of one ``vcew solve``: 'decided', 'refused' or 'failed'.

    rc is the exit code, or None when cli.main raised.  expect is the frozen
    verdict ('yes', 'no') or None when no route could freeze one.
    """
    if rc is None or rc == EXIT_INPUT:
        return "failed"
    if rc == EXIT_CAPACITY:
        record = json.loads(stdout)
        if record.get("status") != "unknown":
            raise CheckError(f"capacity refusal printed status {record.get('status')!r}")
        return "refused"
    if rc != EXIT_OK:
        raise CheckError(f"unexpected exit code {rc}")
    record = json.loads(stdout)
    status = record.get("status")
    if status == "yes":
        check_witness(text, record)
        if expect == "no":
            raise CheckError("valid witness for an instance frozen as 'no'; the frozen corpus is wrong")
        return "decided"
    if status == "no":
        if expect != "no":
            raise CheckError(f"verdict 'no' but the frozen verdict is {expect!r}")
        return "decided"
    raise CheckError(f"exit 0 with status {status!r}")


def file_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def check_reduce(rc, gr_sha: str, roles_sha: str, expect_gr: str, expect_roles: str) -> str:
    """Outcome of one ``vcew reduce-lc``, comparing output digests to the frozen ones."""
    if rc is None or rc == EXIT_INPUT:
        return "failed"
    if rc != EXIT_OK:
        raise CheckError(f"unexpected exit code {rc}")
    if gr_sha != expect_gr:
        raise CheckError("reduced .gr differs from the frozen digest")
    if roles_sha != expect_roles:
        raise CheckError(".roles sidecar differs from the frozen digest")
    return "decided"
