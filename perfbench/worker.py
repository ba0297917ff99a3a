"""Benchmark child process: one workload, one client, closed loop.

    python3 perfbench/worker.py MANIFEST [--setup-only]

It imports ``vcew.cli`` (which loads the oracle backend), reads every
instance of its command list and prints ``ready``; the parent times that as
set-up.  Then it runs passes over the command list in-process through
``vcew.cli.main(argv)``, each command starting after the previous one ends,
checks every output outside the timed region, and writes its raw results to
the manifest's result path.  PYTHONPATH must name the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

MIN_SAMPLES = 100  # 100 untraced commands leave at least ten beyond p90
HARD_STOP_S = 140.0  # start no pass after this, so a run ends well within 180 s
# The machine's speed drifts between phases up to 1.5x apart that last from
# seconds to minutes (other tenants share the cores).  A fixed probe, timed
# between commands at least every PROBE_INTERVAL_S, measures the current
# speed; each command's time is scaled by PROBE_REF_S over the mean of the
# probes before and after it, giving its time at the reference speed.  The
# unscaled times are kept in the result record.
PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 0.0044


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work."""
    start = time.perf_counter()
    x, d = 0, {}
    for i in range(40000):
        x = (x * 31 + i) & 0xFFFF
        d[i & 255] = x
    return time.perf_counter() - start


def _run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising command counts as failed
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), error or err.getvalue().strip()[-300:]


def peak_rss_kb() -> int:
    """Peak resident set of this process since its exec, in KiB.

    ru_maxrss would also count the parent's pages: exec records the
    high-water mark of the address space it replaces, which is a copy of
    the parent's.  VmHWM belongs to the current address space only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _outcome(command, text, rc, stdout):
    import check

    if command["argv"][0] == "reduce-lc":
        prefix = Path(command["argv"][command["argv"].index("-o") + 1])
        gr, roles = prefix.with_suffix(".gr"), prefix.with_suffix(".roles")
        shas = [check.file_sha(p) if p.exists() else "" for p in (gr, roles)]
        for p in (gr, roles):
            p.unlink(missing_ok=True)
        return check.check_reduce(rc, *shas, command["gr_sha"], command["roles_sha"])
    return check.check_solve(text, rc, stdout, command["expect"])


def run(manifest: dict, texts: list[str], cli) -> dict:
    # Imported after 'ready', so that set-up time is the program's alone.
    import gc
    import hashlib
    import resource
    import statistics

    import check
    import spans
    from vcew import oracle

    trace = bool(manifest["trace"])
    tracer = spans.Tracer() if trace else None
    commands = manifest["commands"]
    passes: list[dict] = []
    samples: list[float] = []
    raw_samples: list[float] = []
    outcomes = {"decided": 0, "refused": 0, "failed": 0}
    failures: list[str] = []
    stdout_differs = 0
    error = None
    # Every command starts without cyclic garbage left by earlier ones, as a
    # fresh `vcew` process would; otherwise a collection triggered by one
    # command's allocations also pays for its predecessors' garbage.  The
    # set-up's objects are frozen so that these collections stay short.
    gc.freeze()
    start = time.perf_counter()
    while error is None:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        pass_start = time.perf_counter()
        probes, probed_at = [probe()], time.perf_counter()
        times: list[tuple[float, int]] = []  # (seconds, index of the probe before)
        for command, text in zip(commands, texts):
            if time.perf_counter() - probed_at > PROBE_INTERVAL_S:
                probes.append(probe())
                probed_at = time.perf_counter()
            if traced:
                tracer.command = command["id"]
            gc.collect()
            elapsed, rc, stdout, note = _run_command(cli, command["argv"])
            times.append((elapsed, len(probes) - 1))
            try:
                outcome = _outcome(command, text, rc, stdout)
            except (check.CheckError, ValueError) as exc:
                error = f"command {command['id']} ({' '.join(command['argv'])}): {exc}"
                break
            outcomes[outcome] += 1
            if outcome == "failed" and len(failures) < 20:
                failures.append(f"{command['id']}: exit {rc}: {note}")
            sha = command.get("stdout_sha")
            if sha and not hashlib.sha256(stdout.encode()).hexdigest().startswith(sha):
                stdout_differs += 1
        if traced:
            tracer.uninstall()
        if error is not None:
            break
        probes.append(probe())
        scaled = [t * 2 * PROBE_REF_S / (probes[k] + probes[k + 1]) for t, k in times]
        if not traced:
            samples.extend(scaled)
            raw_samples.extend(t for t, _ in times)
        record = {
            "traced": traced,
            "wall_s": sum(scaled),
            "raw_wall_s": sum(t for t, _ in times),
            "probe_median_s": statistics.median(probes),
            "elapsed_s": time.perf_counter() - pass_start,
        }
        if traced:
            record["metrics"] = tracer.pass_metrics()
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        kinds = {p["traced"] for p in passes}
        if elapsed > HARD_STOP_S:
            break
        if trace and len(kinds) < 2:
            continue
        if not trace and len(samples) < MIN_SAMPLES:
            continue
        if elapsed + typical / 2 > manifest["seconds"]:  # end as near the budget as whole passes allow
            break
    if tracer is not None and manifest.get("spans"):
        tracer.write_jsonl(manifest["spans"])
    return {
        "error": error,
        "passes": passes,
        "samples_s": samples,
        "raw_samples_s": raw_samples,
        "outcomes": outcomes,
        "failures": failures,
        "stdout_differs": stdout_differs,
        "peak_rss_kb": peak_rss_kb(),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": oracle.backend(),
        "unresolved_targets": tracer.unresolved if tracer else [],
        "spans": len(tracer.spans) if tracer else 0,
    }


def main(argv: list[str]) -> int:
    manifest_path = Path(argv[0])
    import vcew.cli as cli

    manifest = json.loads(manifest_path.read_text())
    texts = [Path(c["file"]).read_text() for c in manifest["commands"]]
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if "--setup-only" in argv:
        return 0
    result = run(manifest, texts, cli)
    Path(manifest["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
