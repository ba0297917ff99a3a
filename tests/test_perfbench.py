import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from vcew import cli

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """The benchmark's own self-test: checker, corpus digest, tracer targets
    and the traced call counts of the prewt route."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"


# fpt_twins is left out: some of its frozen digests are stale until the
# benchmark's frozen records are refreshed (ROADMAP item 1)
@pytest.mark.parametrize("workload", ["oracle_atlas", "tw_mixed"])
def test_every_pool_member_prints_its_frozen_stdout(monkeypatch, tmp_path, capsys, workload):
    """Every member of the pool, regenerated through perfbench/workloads.py
    and solved in-process as the benchmark runs it (`vcew solve FILE`),
    prints the stdout whose sha256 prefix perfbench/frozen.json records.
    The smoke runs compare one seeded draw of each pool; this compares all
    of it, so a change that moves any witness fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    frozen = json.loads((ROOT / "perfbench" / "frozen.json").read_text())[workload]
    instances = workloads.Instances()
    texts = [instances.text(member["spec"]) for member in frozen["members"]]
    workloads.verify_digest(workload, texts, frozen["digest"])
    path = tmp_path / "member.gr"
    differs = []
    for i, (member, text) in enumerate(zip(frozen["members"], texts)):
        path.write_text(text)
        cli.main(["solve", str(path)])
        out = capsys.readouterr().out
        if not hashlib.sha256(out.encode()).hexdigest().startswith(member["stdout_sha"]):
            differs.append((i, member["spec"]))
    assert not differs, f"{len(differs)} of {len(texts)} members differ from their frozen stdout, first {differs[:5]}"
