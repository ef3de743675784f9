#!/usr/bin/env python3
"""Regenerate every bundled output from its scenario config.

Runs each configs/*.json through the zenon CLI with the command named in the
file, writing its outputs under <out>/<config stem>.  Matrix-file paths in
the configs are read relative to the repository root, so the script works
from any directory.
Usage: python3 scripts/reproduce_figures.py [--out DIR]
"""

import argparse
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from zenon.cli import main as zenon_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output root directory")
    args = parser.parse_args()
    out_root = Path(args.out).resolve()
    os.chdir(REPO)
    for config in sorted(Path("configs").glob("*.json")):
        command = json.loads(config.read_text())["command"]
        out_dir = out_root / config.stem
        argv = [command, "--config", str(config), "--out", str(out_dir)]
        print(f"zenon {' '.join(argv)}")
        code = zenon_main(argv)
        if code != 0:
            print(f"failed with exit code {code}", file=sys.stderr)
            return code
        for produced in sorted(out_dir.iterdir()):
            print(f"  wrote {produced}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
