"""The repository benchmark: seeded vcew command workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  The parent regenerates the workload's
instance pool from ``vcew.generators``, refuses to run if its digest differs
from ``frozen.json``, draws one pass of commands from the seed, and writes
the instances into ``.perfbench/`` inside the checkout.  It then starts
fresh child processes (``worker.py``): ten that only set up, and the one
that runs passes of commands until the time is spent.  With ``--trace 0`` the
last line of output is the end-to-end result, with ``--trace 1`` the
per-layer result of alternating untraced and traced passes.  ``all`` runs
every workload both ways and prints one table.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 11  # fresh children timed from start to "ready"; the last one runs the workload
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "command_ms_p50": "ms",
    "command_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
    "answered_share": "ratio",
}


# Per-layer metrics the parent adds to the tracer's own (see README.md).
PER_LAYER_EXTRAS = ("generators.ms", "trace.wall_s", "trace.overhead_s", "trace.spans", "trace.unresolved_targets")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; no result line is printed."""


def environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def build_run(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path):
    """Regenerate and verify the pool, draw one pass and write the manifest."""
    import workloads

    frozen = json.loads((HERE / "frozen.json").read_text())[workload]
    members = frozen["members"]
    instances = workloads.Instances()
    texts = [instances.text(m["spec"]) for m in members]
    digest = workloads.verify_digest(workload, texts, frozen["digest"])
    (run_dir / "inst").mkdir(parents=True)
    (run_dir / "out").mkdir()
    commands = []
    for position, index in enumerate(workloads.draw(workload, members, seed)):
        member = members[index]
        path = run_dir / "inst" / f"{position}{workloads.suffix(member['spec'])}"
        path.write_text(texts[index])
        command = {"id": position, "pool_index": index, "file": str(path)}
        if member["spec"]["kind"] == "lc":
            prefix = run_dir / "out" / str(position)
            command.update(argv=["reduce-lc", str(path), "-o", str(prefix)],
                           gr_sha=member["gr_sha"], roles_sha=member["roles_sha"])
        else:
            command.update(argv=["solve", str(path)], expect=member["expect"],
                           stdout_sha=member["stdout_sha"])
        commands.append(command)
    manifest = {
        "commands": commands,
        "seconds": seconds,
        "trace": int(trace),
        "result": str(run_dir / "result.json"),
        "spans": str(WORK / f"spans-{workload}-seed{seed}.jsonl") if trace else None,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return digest, len(commands), instances.generators_s


def start_child(run_dir: Path, setup_only: bool):
    """Start a worker; return it and the seconds until it printed 'ready'."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, str(HERE / "worker.py"), str(run_dir / "manifest.json")]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc) -> None:
    try:
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the result record (see README.md)."""
    env = environment()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        digest, per_pass, generators_s = build_run(workload, seed, seconds, trace, run_dir)
        setups = []
        for i in range(SETUPS):
            proc, ready = start_child(run_dir, setup_only=i < SETUPS - 1)
            setups.append(ready)
            if i < SETUPS - 1:
                finish(proc)
        try:
            finish(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        raw = json.loads((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    outcomes = raw["outcomes"]
    attempted = sum(outcomes.values())
    untraced = [p["wall_s"] for p in raw["passes"] if not p["traced"]]
    samples = raw["samples_s"]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": raw["error"] is None,
        "error": raw["error"],
        "corpus_digest": digest,
        "commands_per_pass": per_pass,
        "passes": len(raw["passes"]),
        "pass_wall_s": untraced,
        "attempted": attempted,
        "decided": outcomes["decided"],
        "refused": outcomes["refused"],
        "failed": outcomes["failed"],
        "failed_share": outcomes["failed"] / attempted if attempted else None,
        "stdout_differs": raw["stdout_differs"],
        "failures": raw["failures"],
        "samples": len(samples),
        "environment": {**env, "backend": raw["backend"]},
    }
    if attempted == 0 or not untraced:
        return record
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]
    record["beyond_p90"] = sum(1 for s in samples if s > p90)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(untraced),
        "command_ms_p50": statistics.median(samples) * 1000.0,
        "command_ms_p90": p90 * 1000.0,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "decided_share": outcomes["decided"] / attempted,
        "answered_share": (outcomes["decided"] + outcomes["refused"]) / attempted,
    }
    record["end_to_end"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    raw_samples = raw["raw_samples_s"]
    record["ru_maxrss_mb"] = raw["ru_maxrss_kb"] / 1024.0
    record["unscaled"] = {
        "wall_s": statistics.median(p["raw_wall_s"] for p in raw["passes"] if not p["traced"]),
        "command_ms_p50": statistics.median(raw_samples) * 1000.0,
        "command_ms_p90": statistics.quantiles(raw_samples, n=10)[8] * 1000.0,
        "probe_median_ms": statistics.median(p["probe_median_s"] for p in raw["passes"]) * 1000.0,
    }
    if trace:
        record["per_layer"] = per_layer(raw, untraced, generators_s)
    return record


def per_layer(raw, untraced, generators_s) -> dict:
    traced = [p for p in raw["passes"] if p["traced"]]
    first = traced[0]["metrics"]
    metrics = {}
    for key, value in first.items():
        if key.endswith(".ms") or key.endswith("_ms"):
            metrics[key] = (statistics.median(p["metrics"][key] for p in traced), "ms")
        else:
            if any(p["metrics"][key] != value for p in traced):
                raise BenchError(f"count {key} differs between traced passes")
            metrics[key] = (value, "count")
    metrics["io.bytes_written"] = (first["io.bytes_written"], "bytes")
    metrics["generators.ms"] = (generators_s * 1000.0, "ms")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")
    metrics["trace.spans"] = (raw["spans"] // len(traced), "count")
    metrics["trace.unresolved_targets"] = (len(raw["unresolved_targets"]), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"corpus {record['corpus_digest'][:16]}")
    print(f"environment: cpus {env['cpu_count']} affinity {env['affinity']} load {env['loadavg']} "
          f"python {env['python']} backend {env['backend']} numpy {env['numpy']}")
    print(f"commands: {record['attempted']} attempted in {record['passes']} passes of "
          f"{record['commands_per_pass']}; decided {record['decided']}, refused {record['refused']}, "
          f"failed {record['failed']} (failed_share {record['failed']}/{record['attempted']} = "
          f"{record['failed_share'] or 0:.4f}); "
          f"stdout differs from frozen digest: {record['stdout_differs']}")
    print(f"latency samples: {record['samples']} untraced commands, {record.get('beyond_p90', 0)} beyond p90")
    for failure in record["failures"][:5]:
        print(f"  failed {failure}")
    for section in ("end_to_end", "per_layer"):
        for name, m in record.get(section, {}).items():
            print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    if record["error"]:
        print(f"CHECK FAILED: {record['error']}")


def result_line(record: dict) -> str:
    section = "per_layer" if record["trace"] else "end_to_end"
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record.get(section, {}),
    })


def save(record: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")


def run_all(seed: int, seconds: int) -> int:
    import workloads

    rows = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            record = run_workload(workload, seed, seconds, trace)
            save(record)
            print_record(record)
            if not record["correct"]:
                return 1
            rows.setdefault(workload, {}).update(record.get("per_layer" if trace else "end_to_end", {}))
    print(f"{'metric':<28}" + "".join(f"{w:>16}" for w in rows))
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name + ' (' + unit + ')':<28}" + "".join(f"{rows[w][name]['value']:>16.6g}" for w in rows))
    overhead = "trace.overhead_s"
    print(f"{overhead + ' (s)':<28}" + "".join(f"{rows[w][overhead]['value']:>16.6g}" for w in rows))
    print(json.dumps({w: {k: m["value"] for k, m in rows[w].items()} for w in rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vcew" / "cli.py").is_file() or not (HERE / "frozen.json").is_file():
        print(f"perfbench: no vcew sources under {SRC} or no frozen corpus; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, workloads.DigestMismatch) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    save(record)
    print_record(record)
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
