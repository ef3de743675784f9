"""scripts/paired_bench.py, run on a throwaway git repository with a stub
benchmark command in place of perfbench (which never runs here)."""

import importlib.util
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
trace = args[args.index("--trace") + 1]
assert trace in ("0", "1")
side = pathlib.Path("side.txt").read_text().strip()
with open(os.environ["PAIRED_BENCH_LOG"], "a") as fh:
    fh.write(f"{workload} {seed} {side} {int(pathlib.Path('leftover').exists())} {trace}\\n")
pathlib.Path("leftover").write_text("a run's clutter")
wall = {"parent": 2.0, "change": 1.0}[side] + seed / 1000
metrics = {"wall_s": {"value": wall, "unit": "s"}}
if trace == "1":
    metrics["layer_s"] = {"value": wall / 2, "unit": "s"}
print("a line of the run's own table")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
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
            "--out", str(out), "--runner", f"{shlex.quote(sys.executable)} stub.py", "--claim", "a/wall_s",
        ],
        cwd=repo,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr

    # parent first in even pairs, change first in odd ones; no run sees another's
    # files; then the claimed workload once per side, traced
    expected = []
    for k, order in enumerate((("parent", "change"), ("change", "parent"), ("parent", "change"))):
        expected += [f"{w} {10 + k} {side} 0 0" for w in "ab" for side in order]
    expected += ["a 10 parent 0 1", "a 10 change 0 1"]
    assert log.read_text().splitlines() == expected

    bench = json.loads(out.read_text())
    assert set(bench) == {"about", "host", "runs"}
    assert [f"{r['workload']} {r['seed']} {r['code']} 0 {r['trace']}" for r in bench["runs"]] == expected
    assert all(r["result"]["correct"] for r in bench["runs"])
    assert bench["runs"][0]["result"]["metrics"]["wall_s"] == {"value": 2.01, "unit": "s"}
    assert bench["runs"][-1]["result"]["metrics"]["layer_s"] == {"value": 1.01 / 2, "unit": "s"}
    assert "Claim a/wall_s" in bench["about"]

    # the traced runs stay out of the pairs' table
    summary = run.stdout.splitlines()[-3:]
    assert summary == [
        "a wall_s: 2.011 [2.01, 2.012] -> 1.011, change lower in 3/3",
        "b wall_s: 2.011 [2.01, 2.012] -> 1.011, change lower in 3/3",
        "claim a/wall_s: change lower in 3/3 pairs (needs 3), median gap 1 against the parent's "
        "interquartile range 0.002: met",
    ]
    # the work tree, the stash list and the scratch checkouts are left as they were
    assert (repo / "side.txt").read_text() == "change\n"
    assert _git(repo, "stash", "list") == ""
    assert sorted(p.name for p in (tmp_path / "scratch").iterdir()) == ["change.tar", "parent.tar"]


def _runs(parent: list[float], change: list[float]) -> list[dict]:
    runs = []
    for seed, values in enumerate(zip(parent, change)):
        for code, value in zip(("parent", "change"), values):
            result = {"metrics": {"wall_s": {"value": value, "unit": "s"}}}
            runs.append({"code": code, "workload": "w", "seed": seed, "trace": 0, "result": result})
    return runs


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parents_spread():
    spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    met, line = bench.claim_verdict(_runs(parent, [p - 1.0 for p in parent]), "w/wall_s")
    assert met and line.startswith("claim w/wall_s: change lower in 10/10 pairs (needs 9)")
    # lower in every pair, but by less than the parent's own spread (0.55)
    met, line = bench.claim_verdict(_runs(parent, [p - 0.5 for p in parent]), "w/wall_s")
    assert not met and line.endswith("not met")
    # two ties and a loss: 7 of 10, however large the gap
    change = [p - 1.0 for p in parent[:7]] + [1.8, 1.9, 2.5]
    met, line = bench.claim_verdict(_runs(parent, change), "w/wall_s")
    assert not met and "lower in 7/10 pairs (needs 9)" in line
    # a traced run is no pair
    traced = _runs(parent, [p - 1.0 for p in parent]) + [
        {"code": "change", "workload": "w", "seed": 0, "trace": 1, "result": {"metrics": {"wall_s": {"value": 9.0}}}}
    ]
    assert bench.claim_verdict(traced, "w/wall_s")[0]
