#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, written as BENCH_<n>.json.

Each side is a `git archive` of its revision.  `--change worktree` takes the
work tree instead, through `git stash create` (tracked and staged files; an
untracked new file needs a `git add` first, and a clean tree is HEAD).  For
every workload and every pair k the two sides run

    python3 perfbench/run.py --workload <w> --seed <seed0 + k> --seconds <s> --trace 0

each in its own fresh extraction of its archive, so that no run sees what
another left behind; the parent goes first in even pairs and the change in
odd ones.  The pairs of the workloads are interleaved, pair by pair.  The
file holds `about`, `host` and `runs` (code, workload, seed, trace and the
run's last output line as `result`); the table printed at the end gives,
per workload and metric, each side's median, the parent's quartiles and in
how many pairs the change read lower.

`--claim <workload>/<metric>` names the one gain the change claims.  After
the pairs, that workload runs once more per side with `--trace 1` (parent
first, seed seed0), for its per-layer numbers, and the last line printed
says whether the claim is met: the change reads lower in at least nine
tenths of the pairs (ties count for neither), and the parent's median
exceeds the change's by more than the parent's interquartile range.

Usage: python3 scripts/paired_bench.py --parent REV [--change REV|worktree]
           [--workloads a,b] [--pairs N] [--seed0 S] [--seconds T]
           [--claim WORKLOAD/METRIC] --scratch DIR --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_ensemble", "paper_suite", "timeseries_export", "dense_composite")
RUNNER = "python3 perfbench/run.py"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def resolve(rev: str) -> str:
    """The commit to archive: rev itself, or for "worktree" a stash commit of
    the work tree (HEAD when the tree is clean)."""
    if rev == "worktree":
        return _git("stash", "create") or _git("rev-parse", "HEAD")
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}")


def archive(commit: str, path: Path) -> Path:
    with open(path, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, stdout=fh)
    return path


def run_once(
    tar: Path, checkout: Path, runner: list[str], workload: str, seed: int, seconds: float, trace: int = 0
) -> dict:
    """One benchmark run in a fresh extraction of tar at checkout, removed
    afterwards; returns the run's last output line, parsed."""
    shutil.rmtree(checkout, ignore_errors=True)
    checkout.mkdir(parents=True)
    with tarfile.open(tar) as tf:
        tf.extractall(checkout, filter="data")
    try:
        argv = runner + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(checkout, ignore_errors=True)


def pairs_of(runs: list[dict], workload: str) -> list[dict[str, dict]]:
    """The untraced runs of workload as {"parent": metrics, "change": metrics},
    one per seed that both sides ran."""
    pairs: dict[int, dict[str, dict]] = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == 0:
            pairs.setdefault(r["seed"], {})[r["code"]] = r["result"]["metrics"]
    return [p for p in pairs.values() if len(p) == 2]


def _sides(both: list[dict[str, dict]], metric: str):
    """(parent values, change values, parent quartiles) of metric over the pairs."""
    parent = [p["parent"][metric]["value"] for p in both]
    change = [p["change"][metric]["value"] for p in both]
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    return parent, change, quartiles


def summary(runs: list[dict]) -> list[str]:
    """Per workload and metric: parent median [quartiles] -> change median,
    and the pairs in which the change read lower."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        both = pairs_of(runs, workload)
        for metric in both[0]["parent"] if both else ():
            parent, change, (q1, _, q3) = _sides(both, metric)
            lower = sum(c < p for p, c in zip(parent, change))
            out.append(
                f"{workload} {metric}: {statistics.median(parent):.6g} [{q1:.6g}, {q3:.6g}] -> "
                f"{statistics.median(change):.6g}, change lower in {lower}/{len(both)}"
            )
    return out


def claim_verdict(runs: list[dict], claim: str) -> tuple[bool, str]:
    """Whether the change's gain on claim = "<workload>/<metric>" (lower is
    better) meets the rule: lower in at least ceil(0.9 n) of the n pairs,
    ties counting for neither, and a gap between the medians larger than the
    parent's interquartile range.  Returns (met, the line that says so)."""
    workload, metric = claim.split("/")
    both = pairs_of(runs, workload)
    if not both:
        return False, f"claim {claim}: no pairs ran, not met"
    parent, change, (q1, _, q3) = _sides(both, metric)
    lower, needed = sum(c < p for p, c in zip(parent, change)), math.ceil(0.9 * len(both))
    gap = statistics.median(parent) - statistics.median(change)
    met = lower >= needed and gap > q3 - q1
    return met, (
        f"claim {claim}: change lower in {lower}/{len(both)} pairs (needs {needed}), median gap "
        f"{gap:.6g} against the parent's interquartile range {q3 - q1:.6g}: {'met' if met else 'not met'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="worktree", help="revision of the change side, or worktree")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--scratch", required=True, help="directory for the archives and checkouts")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--runner", default=RUNNER, help="benchmark command, run in each checkout")
    parser.add_argument("--claim", help="the gain claimed, as <workload>/<metric>, lower is better")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.claim is not None and (args.claim.count("/") != 1 or args.claim.split("/")[0] not in workloads):
        parser.error(f"--claim {args.claim!r} is not <workload>/<metric> with a workload of --workloads")

    scratch = Path(args.scratch).resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    sides = {"parent": resolve(args.parent), "change": resolve(args.change)}
    tars = {code: archive(commit, scratch / f"{code}.tar") for code, commit in sides.items()}
    runner = shlex.split(args.runner)

    runs = []
    for k in range(args.pairs):
        seed = args.seed0 + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for code in order:
                result = run_once(tars[code], scratch / code, runner, workload, seed, args.seconds)
                runs.append({"code": code, "workload": workload, "seed": seed, "trace": 0, "result": result})
                print(f"{workload} seed {seed} {code}: {json.dumps(result['metrics'])}", flush=True)
    if args.claim is not None:
        workload = args.claim.split("/")[0]
        for code in ("parent", "change"):
            result = run_once(tars[code], scratch / code, runner, workload, args.seed0, args.seconds, trace=1)
            runs.append({"code": code, "workload": workload, "seed": args.seed0, "trace": 1, "result": result})
            print(f"{workload} seed {args.seed0} {code} traced: {json.dumps(result['metrics'])}", flush=True)

    about = (
        f"Paired perfbench runs, parent {sides['parent'][:7]} ({args.parent}) against change "
        f"{sides['change'][:7]} ({args.change}), each run in a fresh git-archive copy, alternating "
        f"which side runs first, {args.seconds:g} s per run: {args.runner} --workload <w> --seed <seed> "
        f"--seconds {args.seconds:g} --trace 0. {args.pairs} pairs per workload on seeds "
        f"{args.seed0}-{args.seed0 + args.pairs - 1}, the workloads interleaved pair by pair. "
        "'result' is the run's last output line."
    )
    if args.claim is not None:
        about += (
            f" Claim {args.claim}: after the pairs, one --trace 1 run per side of {args.claim.split('/')[0]}, "
            f"parent first, seed {args.seed0}."
        )
    host = (
        f"{os.cpu_count()}-core {platform.machine()}, {platform.system()}, "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )
    Path(args.out).write_text(json.dumps({"about": about, "host": host, "runs": runs}, indent=1) + "\n")
    print("\n".join(summary(runs)))
    if args.claim is not None:
        print(claim_verdict(runs, args.claim)[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
