"""scripts/paired_bench.py, run on a throwaway git repository with a stub
benchmark command in place of perfbench (which never runs here)."""

import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paired_bench.py"

STUB = """\
import json, os, pathlib, sys
args = sys.argv[1:]
workload, seed = args[args.index("--workload") + 1], int(args[args.index("--seed") + 1])
assert args[args.index("--trace") + 1] == "0"
side = pathlib.Path("side.txt").read_text().strip()
with open(os.environ["PAIRED_BENCH_LOG"], "a") as fh:
    fh.write(f"{workload} {seed} {side} {int(pathlib.Path('leftover').exists())}\\n")
pathlib.Path("leftover").write_text("a run's clutter")
wall = {"parent": 2.0, "change": 1.0}[side] + seed / 1000
print("a line of the run's own table")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}))
"""


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True, text=True).stdout


def test_pairs_alternate_in_fresh_checkouts_and_are_written_as_bench_json(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "scripts").mkdir(parents=True)
    shutil.copy(SCRIPT, repo / "scripts" / "paired_bench.py")
    (repo / "stub.py").write_text(STUB)
    (repo / "side.txt").write_text("parent\n")
    _git(repo, "init", "-q")
    _git(repo, "config", "user.name", "bench")
    _git(repo, "config", "user.email", "bench@example.org")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "side.txt").write_text("change\n")  # the work tree is the change side

    log = tmp_path / "log.txt"
    monkeypatch.setenv("PAIRED_BENCH_LOG", str(log))
    out = tmp_path / "BENCH_0.json"
    run = subprocess.run(
        [
            sys.executable, "scripts/paired_bench.py", "--parent", "HEAD", "--workloads", "a,b",
            "--pairs", "3", "--seed0", "10", "--seconds", "1", "--scratch", str(tmp_path / "scratch"),
            "--out", str(out), "--runner", f"{shlex.quote(sys.executable)} stub.py",
        ],
        cwd=repo,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr

    # parent first in even pairs, change first in odd ones; no run sees another's files
    expected = []
    for k, order in enumerate((("parent", "change"), ("change", "parent"), ("parent", "change"))):
        expected += [f"{w} {10 + k} {side} 0" for w in "ab" for side in order]
    assert log.read_text().splitlines() == expected

    bench = json.loads(out.read_text())
    assert set(bench) == {"about", "host", "runs"}
    assert [f"{r['workload']} {r['seed']} {r['code']} 0" for r in bench["runs"]] == expected
    assert all(r["trace"] == 0 and r["result"]["correct"] for r in bench["runs"])
    assert bench["runs"][0]["result"]["metrics"]["wall_s"] == {"value": 2.01, "unit": "s"}

    summary = run.stdout.splitlines()[-2:]
    assert summary == [
        "a wall_s: 2.011 [2.01, 2.012] -> 1.011, change lower in 3/3",
        "b wall_s: 2.011 [2.01, 2.012] -> 1.011, change lower in 3/3",
    ]
    # the work tree, the stash list and the scratch checkouts are left as they were
    assert (repo / "side.txt").read_text() == "change\n"
    assert _git(repo, "stash", "list") == ""
    assert sorted(p.name for p in (tmp_path / "scratch").iterdir()) == ["change.tar", "parent.tar"]
