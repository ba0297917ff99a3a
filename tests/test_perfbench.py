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


def test_every_reduce_lc_member_writes_its_frozen_files(monkeypatch, tmp_path, capsys):
    """Every member of the reduce_lc pool, regenerated through
    perfbench/workloads.py and reduced in-process as the benchmark runs it
    (`vcew reduce-lc FILE -o PREFIX`), writes the .gr and .roles files whose
    sha256 perfbench/frozen.json records.  Hashing the bytes read back keeps
    this check on interpreters without hashlib.file_digest."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    frozen = json.loads((ROOT / "perfbench" / "frozen.json").read_text())["reduce_lc"]
    instances = workloads.Instances()
    texts = [instances.text(member["spec"]) for member in frozen["members"]]
    workloads.verify_digest("reduce_lc", texts, frozen["digest"])
    path, prefix = tmp_path / "member.lc", tmp_path / "out"
    differs = []
    for i, (member, text) in enumerate(zip(frozen["members"], texts)):
        path.write_text(text)
        assert cli.main(["reduce-lc", str(path), "-o", str(prefix)]) == 0
        capsys.readouterr()
        shas = [hashlib.sha256(prefix.with_suffix(suffix).read_bytes()).hexdigest() for suffix in (".gr", ".roles")]
        if shas != [member["gr_sha"], member["roles_sha"]]:
            differs.append((i, member["spec"]))
    assert not differs, f"{len(differs)} of {len(texts)} members differ from their frozen files, first {differs[:5]}"
