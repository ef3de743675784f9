"""scripts/compare_outputs.py, the drift table between two output trees."""

import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"

SWEEP = "tau,p\n0.1,0.5\n0.05,0.25\n"
ENSEMBLE = "step,survivors,p_exact\n1,10,0.9\n2,8,0.81\n"
EFFECTIVE = '{"tau": 0.1, "dim": 4, "name": "h"}\n'


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _compare(tmp_path, a: dict[str, str], b: dict[str, str]):
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(_tree(tmp_path / "a", a)), str(_tree(tmp_path / "b", b))],
        capture_output=True,
        text=True,
    )
    return run.returncode, run.stdout


def test_identical_trees_are_reported_byte_identical(tmp_path):
    files = {"sweep/sweep.csv": SWEEP, "protocol/ensemble.csv": ENSEMBLE, "derive/effective.json": EFFECTIVE}
    code, out = _compare(tmp_path, files, files)
    assert code == 0
    assert sorted(out.splitlines()) == sorted(f"{rel}: byte-identical" for rel in files)


def test_a_float_drift_is_printed_and_passes(tmp_path):
    code, out = _compare(tmp_path, {"sweep.csv": SWEEP}, {"sweep.csv": SWEEP.replace("0.25", "0.250000000001")})
    assert code == 0
    assert "  p: max |diff| 1.000e-12 (18014 ulp), 1 of 2 changed" in out.splitlines()
    assert "  tau: max |diff| 0.000e+00 (0 ulp), 0 of 2 changed" in out.splitlines()


def test_a_changed_integer_cell_fails(tmp_path):
    code, out = _compare(tmp_path, {"ensemble.csv": ENSEMBLE}, {"ensemble.csv": ENSEMBLE.replace("2,8,", "2,9,")})
    assert code == 1
    assert "ERROR line 3, column survivors: integer 8 vs 9" in out


def test_a_file_missing_from_one_tree_fails(tmp_path):
    code, out = _compare(tmp_path, {"sweep.csv": SWEEP, "extra.json": EFFECTIVE}, {"sweep.csv": SWEEP})
    assert code == 1
    assert f"extra.json: only in {tmp_path / 'a'}" in out


def test_sign_flips_of_zero_are_counted_per_file(tmp_path):
    a = {"d.json": '{"H": [0.0, -0.0, 1.5, 0.0]}\n', "s.csv": "x,y\n0.0,1.0\n-0.0,0.0\n", "sweep.csv": SWEEP}
    b = {"d.json": '{"H": [-0.0, 0.0, 1.5, 0.0]}\n', "s.csv": "x,y\n-0.0,1.0\n-0.0,-0.0\n"}
    b["sweep.csv"] = SWEEP.replace("0.25", "0.250000000001")
    code, out = _compare(tmp_path, a, b)
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("d.json:") + 1 :][:2] == [
        "  floats: max |diff| 0.000e+00 (0 ulp), 0 of 4 changed",
        "  zero sign flips: 2",
    ]
    assert lines[lines.index("s.csv:") + 1 :][:3] == [
        "  x: max |diff| 0.000e+00 (0 ulp), 0 of 2 changed",
        "  y: max |diff| 0.000e+00 (0 ulp), 0 of 2 changed",
        "  zero sign flips: 2",
    ]
    assert lines[lines.index("sweep.csv:") + 1 :] == [
        "  tau: max |diff| 0.000e+00 (0 ulp), 0 of 2 changed",
        "  p: max |diff| 1.000e-12 (18014 ulp), 1 of 2 changed",
    ]


def test_ulp_distances_and_changed_counts_are_printed(tmp_path):
    # a CSV column moved by one step of the last place at 0.5 and by two at
    # 1e-300 (the larger difference is not the larger ulp count), and a JSON
    # float moved by three steps; values that are equal count as unchanged
    up = math.nextafter
    y_half, y_tiny = up(0.5, 1.0), up(up(1e-300, 1.0), 1.0)
    three = up(up(up(3.0, 4.0), 4.0), 4.0)
    a = {"s.csv": "x,y\n1.0,0.5\n2.0,1e-300\n3.0,8.0\n", "e.json": '{"H": [1.0, 0.25, 3.0]}\n'}
    b = {
        "s.csv": f"x,y\n1.0,{y_half!r}\n2.0,{y_tiny!r}\n3.0,8.0\n",
        "e.json": json.dumps({"H": [1.0, 0.25, three]}) + "\n",
    }
    code, out = _compare(tmp_path, a, b)
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("s.csv:") + 1 :][:2] == [
        "  x: max |diff| 0.000e+00 (0 ulp), 0 of 3 changed",
        "  y: max |diff| 1.110e-16 (2 ulp), 2 of 3 changed",
    ]
    assert lines[lines.index("e.json:") + 1] == "  floats: max |diff| 1.332e-15 (3 ulp), 1 of 3 changed"
