"""Every bundled scenario reproduces its committed output byte for byte.

tests/golden holds the output of `python3 scripts/reproduce_figures.py --out
tests/golden`, one directory per configs/*.json.  A change that moves an
output on purpose regenerates the goldens with that command and records the
drift table of `python3 scripts/compare_outputs.py OLD NEW` in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def test_bundled_outputs_match_the_goldens_byte_for_byte(tmp_path):
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "reproduce_figures.py"), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert {p.parts[0] for p in _files(GOLDEN)} == {c.stem for c in (REPO / "configs").glob("*.json")}
    same = _files(GOLDEN) == _files(out) and all(
        (GOLDEN / rel).read_bytes() == (out / rel).read_bytes() for rel in _files(GOLDEN)
    )
    if not same:
        table = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "compare_outputs.py"), str(GOLDEN), str(out)],
            capture_output=True,
            text=True,
        ).stdout
        raise AssertionError(f"bundled outputs differ from tests/golden:\n{table}")
