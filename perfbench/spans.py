"""Per-layer tracing from outside the program.

Before a traced pass the tracer replaces each function of TARGETS with a
wrapper that records a span (name, start, end, parent span, command id) and
reads counts off the return value.  The wrapper is bound in every ``vcew``
module namespace that holds the original, because ``from x import f``
copies the binding: ``exact_vertex_cover`` is called through
``vcew.preweight`` and ``vcew.vertex_cover``, ``is_proper`` through
``vcew.cli``, ``vcew.vertex_cover`` and ``vcew.preweight``.  A layer's self
time is its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _route(t, algo_td):
    t.count(f"cli.route.{algo_td[0]}")


def _nodes(t, result):
    t.count("oracle.search_nodes", result[1])


def _dp(t, run):
    t.count("treewidth.states_stored", run.states_stored)
    t.count("treewidth.dp_nodes", len(run.state_counts))
    t.peak("treewidth.max_states", run.max_states)


def _kernel(t, kernel):
    t.count("vertex_cover.kernel_edges", len(kernel.graph.edges))


def _deletions(t, red):
    t.count("preweight.rule_deletions", len(red.deletions))


def _reduced(t, red):
    t.count("reduction.reduced_edges", len(red.graph.edges))


def _bytes(t, text):
    t.count("io.bytes_written", len(text))


# (span name or None for a counter-only hook, module, attribute path, count hook).
# "kernel:<fn>" resolves through vcew.oracle._kernel, the active search backend.
TARGETS = (
    ("cli.main", "vcew.cli", "main", None),
    (None, "vcew.cli", "_pick_algo", _route),
    ("io.parse_graph", "vcew.io", "parse_graph", None),
    ("io.emit_result", "vcew.io", "emit_result", _bytes),
    ("io.parse_listcoloring", "vcew.io", "parse_listcoloring", None),
    ("io.emit_graph", "vcew.io", "emit_graph", _bytes),
    ("graph.build", "vcew.graph", "Graph.build", None),
    ("graph.is_proper", "vcew.graph", "is_proper", None),
    ("oracle.solve_exhaustive", "vcew.oracle", "solve_exhaustive", None),
    ("oracle.search", "vcew.oracle", "kernel:solve_ones", _nodes),
    ("oracle.search", "vcew.oracle", "kernel:count_all", _nodes),
    ("oracle.search", "vcew.oracle", "kernel:exists_proper", _nodes),
    ("treewidth.compute_decomposition", "vcew.treewidth", "compute_decomposition", None),
    ("treewidth.make_nice", "vcew.treewidth", "make_nice", None),
    ("treewidth.run_dp", "vcew.treewidth", "run_dp", _dp),
    ("treewidth.validate", "vcew.treewidth", "validate_decomposition", None),
    ("treewidth.validate", "vcew.treewidth", "validate_nice", None),
    ("vertex_cover.exact_vertex_cover", "vcew.vertex_cover", "exact_vertex_cover", None),
    ("vertex_cover.minimum_vertex_cover", "vcew.vertex_cover", "minimum_vertex_cover", None),
    ("vertex_cover.kernelize", "vcew.vertex_cover", "kernelize", _kernel),
    ("vertex_cover.lift", "vcew.vertex_cover", "lift", None),
    ("preweight.apply_reduction", "vcew.preweight", "apply_reduction", _deletions),
    ("preweight.refine_classes", "vcew.preweight", "refine_classes", None),
    ("preweight.solve_prewt", "vcew.preweight", "solve_prewt", None),
    ("listcolor.normalize_instance", "vcew.listcolor", "normalize_instance", None),
    ("reduction.build_reduction", "vcew.reduction", "build_reduction", _reduced),
    ("reduction.emit_roles", "vcew.reduction", "emit_roles", _bytes),
)

COUNTERS = (
    "cli.route.oracle", "cli.route.tw", "cli.route.vc", "cli.route.prewt",
    "io.bytes_written", "oracle.search_nodes", "treewidth.states_stored",
    "treewidth.max_states", "treewidth.dp_nodes", "vertex_cover.kernel_edges",
    "preweight.rule_deletions", "reduction.reduced_edges",
)


def span_names() -> list[str]:
    return list(dict.fromkeys(name for name, *_ in TARGETS if name))


class Tracer:
    """Installs the wrappers, keeps spans in memory and sums self time per span name."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.command = -1
        self.unresolved: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh per-pass tally; recorded spans are kept."""
        self.self_s = {name: 0.0 for name in span_names()}
        self.calls = {name: 0 for name in span_names()}
        self.counts = {name: 0 for name in COUNTERS}

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _call(self, name, hook, fn, args, kwargs):
        if name is None:
            result = fn(*args, **kwargs)
            hook(self, result)
            return result
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self.spans.append(None)  # reserve the id; filled in on return
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.self_s[name] += end - start - frame[1]
            self.calls[name] += 1
            self.spans[span_id] = (span_id, name, start, end, parent, self.command)
        if hook is not None:
            hook(self, result)
        return result

    def _wrap(self, name, hook, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, hook, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "vcew" or key.startswith("vcew.")]
        self.unresolved = []
        for name, module_name, path, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner, attr = module, path
            if path.startswith("kernel:"):
                owner, attr = getattr(module, "_kernel", None), path[len("kernel:"):]
            elif "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
            if raw is None:
                self.unresolved.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, raw, staticmethod(self._wrap(name, hook, raw.__func__)))
                continue
            wrapper = self._wrap(name, hook, raw)
            self._patch(owner, attr, raw, wrapper)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is raw and other is not owner:
                        self._patch(other, key, raw, wrapper)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Self times (ms) and call counts of the current tally, plus the counters."""
        out: dict[str, float] = {}
        for name in span_names():
            key = "cli.self_ms" if name == "cli.main" else f"{name}.ms"
            out[key] = self.self_s[name] * 1000.0
            if name != "cli.main":
                out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        return out

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "command")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
