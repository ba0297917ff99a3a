"""Instance pools of the four workloads, their texts, digests and per-seed draws.

A pool member is a JSON-able spec naming a generator and its parameters.
The pools themselves (which specs, with which frozen verdicts) live in
``frozen.json``; this module turns specs back into instance text, checks the
pool digest against the frozen one and draws a run's command list from a
seed.  Instance text is written here, not by ``vcew.io``, so that only a
change to ``vcew.generators`` (or networkx's atlas) can change a digest.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time

WORKLOADS = ("oracle_atlas", "tw_mixed", "fpt_twins", "reduce_lc")

# Members drawn per pass from each group; None takes the whole group.
# A group is cut into `take` strata of adjacent frozen outcome and cost, and
# each pass holds one member of every stratum, so the mix of cheap, dear,
# refused and failed commands is the same for every seed.  Per-instance cost
# is heavy-tailed (one DP instance can cost more than fifty others), so a
# stratum whose members' costs differ by more than FIXED_SPREAD of the pass's
# expected cost, or that straddles two outcomes, always gives its median
# member; the seed picks within the other strata and permutes the order.  That keeps a pass's cost steady from
# seed to seed while the instances still vary.
FIXED_SPREAD = 0.01
TAKE = {
    "oracle_atlas": {"atlas": None, "gnp": 24},
    "tw_mixed": {"mixed": 64, "base": 4},
    "fpt_twins": {"star": 3, "planted1": 3, "gnp": 40, "vc": 20, "roadmap": None},
    "reduce_lc": {"n3": 24, "n4": 1},
}


class DigestMismatch(RuntimeError):
    """The regenerated pool differs from the frozen one."""


def atlas_edges() -> list[tuple[int, list[tuple[int, int]]]]:
    """Connected graphs on 1..7 vertices from networkx's atlas, in atlas order."""
    import networkx

    out = []
    for G in networkx.graph_atlas_g():
        n = G.number_of_nodes()
        if n < 1 or n > 7 or (n > 1 and not networkx.is_connected(G)):
            continue
        label = {node: i for i, node in enumerate(sorted(G.nodes()))}
        out.append((n, sorted(tuple(sorted((label[u], label[v]))) for u, v in G.edges())))
    return out


def gr_text(n: int, edges, pre=None) -> str:
    """A ``.gr`` instance: header, then ``u v`` or ``u v w`` lines, 1-indexed."""
    pre = pre or {}
    lines = [f"p vcew {n} {len(edges)}"]
    for u, v in edges:
        w = pre.get((u, v))
        lines.append(f"{u + 1} {v + 1}" if w is None else f"{u + 1} {v + 1} {w}")
    return "\n".join(lines) + "\n"


def lc_text(n: int, seed: int, cmax: int) -> str:
    """A seeded list-coloring instance: G(n, 0.6) and lists of 1..n colors from {2..cmax}."""
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.6]
    lines = [f"p lc {n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    for v in range(1, n + 1):
        colors = sorted(rng.sample(range(2, cmax + 1), rng.randint(1, n)))
        lines.append(" ".join(["l", str(v)] + [str(c) for c in colors]))
    return "\n".join(lines) + "\n"


def ones_preweights(edges, fraction: float, seed: int) -> dict:
    rng = random.Random(seed)
    return {e: 1 for e in edges if rng.random() < fraction}


class Instances:
    """Turns specs into instance text; times the calls into vcew.generators."""

    def __init__(self) -> None:
        from vcew import generators

        self.generators = generators
        self.generators_s = 0.0
        self._atlas = None

    def _gen(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.generators_s += time.perf_counter() - start

    def text(self, spec: dict) -> str:
        kind = spec["kind"]
        gen = self.generators
        if kind == "atlas":
            if self._atlas is None:
                self._atlas = atlas_edges()
            n, edges = self._atlas[spec["index"]]
            return gr_text(n, edges)
        if kind == "gnp":
            g, pre = self._gen(
                gen.random_graph, spec["n"], spec["p"], spec["seed"],
                pre_fraction=spec.get("pre", 0.0), pre_ones_only=spec.get("pre_ones", False),
            )
            return gr_text(g.vertex_count, g.edges, pre)
        if kind == "planted":
            g = self._gen(
                gen.planted_twin_graph, spec["k"], spec["classes"], spec["seed"],
                full_sig=spec.get("full_sig", False), max_edges=spec.get("max_edges"),
            )
            pre = ones_preweights(g.edges, spec.get("ones", 0.0), spec["seed"])
            return gr_text(g.vertex_count, g.edges, pre)
        if kind == "lc":
            return lc_text(spec["n"], spec["seed"], spec["cmax"])
        raise ValueError(f"unknown instance kind {kind!r}")


def suffix(spec: dict) -> str:
    return ".lc" if spec["kind"] == "lc" else ".gr"


def pool_digest(texts) -> str:
    """sha256 over the pool's instance texts, in pool order, length-prefixed."""
    h = hashlib.sha256()
    for text in texts:
        data = text.encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def verify_digest(workload: str, texts, frozen_digest: str) -> str:
    digest = pool_digest(texts)
    if digest != frozen_digest:
        raise DigestMismatch(
            f"{workload}: regenerated corpus digest {digest[:16]}... differs from the frozen "
            f"{frozen_digest[:16]}...; the generators changed, so the frozen verdicts no longer "
            "apply. Re-freeze with perfbench/freeze.py and compare only runs of one digest."
        )
    return digest


_OUTCOME_RANK = {"decided": 0, "refused": 1, "failed": 2}


def draw(workload: str, members: list[dict], seed: int) -> list[int]:
    """Pool indices of one pass, in the seeded command order."""
    rng = random.Random(f"{workload}:{seed}")
    fixed: list[int] = []
    strata: list[list[int]] = []
    for group, take in TAKE[workload].items():
        idx = [i for i, m in enumerate(members) if m["group"] == group]
        if take is None:
            fixed.extend(idx)
            continue
        idx.sort(key=lambda i: (_OUTCOME_RANK[members[i]["outcome"]], members[i]["cost_ms"], i))
        strata.extend(idx[s * len(idx) // take:(s + 1) * len(idx) // take] for s in range(take))
    cost = [m["cost_ms"] for m in members]
    expected = sum(cost[i] for i in fixed) + sum(sum(cost[i] for i in st) / len(st) for st in strata)
    picked = list(fixed)
    for stratum in strata:
        spread = max(cost[i] for i in stratum) - min(cost[i] for i in stratum)
        mixed_outcomes = len({members[i]["outcome"] for i in stratum}) > 1
        if mixed_outcomes or spread > FIXED_SPREAD * expected:
            picked.append(stratum[len(stratum) // 2])
        else:
            picked.append(rng.choice(stratum))
    rng.shuffle(picked)
    return picked
