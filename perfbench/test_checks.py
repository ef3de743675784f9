"""The output checks reject corrupted copies of real outputs.

    python3 -m pytest perfbench/test_checks.py     (or: python3 perfbench/test_checks.py)

Each test makes a real output with the program, asserts that its checker
accepts it, then feeds the checker corrupted copies and asserts each one
is rejected.  Run from the repository root.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import zenon.cli  # noqa: E402

N_TRAJ = 2000
N_STEPS = 200
N_SAMPLES = 401


def _cli_output(tmp: Path, stem: str, command: str, filename: str, **overrides) -> Path:
    scenario = tmp / f"{stem}.json"
    workloads._write_scenario(workloads.CONFIGS / f"{stem}.json", scenario, **overrides)
    out = tmp / stem
    assert zenon.cli.main([command, "--config", str(scenario), "--out", str(out)]) == 0
    return out / filename


def _rejected(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckError:
        return True
    return False


def _rewrite(path: Path, edit) -> Path:
    """Copy of a CSV file with edit(rows) applied to its rows (header first)."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows)
    bad = path.with_name("corrupt_" + path.name)
    bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return bad


def _set(row, col, value):
    row[col] = repr(value) if isinstance(value, float) else str(value)


def test_ensemble_checker(tmp_path: Path):
    path = _cli_output(tmp_path, "protocol_symmetric", "protocol", "ensemble.csv",
                       n_traj=N_TRAJ, n_steps=N_STEPS)
    assert checks.check_ensemble(path, N_STEPS, N_TRAJ) < checks.MC_Z_LIMIT + 2

    def increasing(rows):
        k = len(rows) // 2
        _set(rows[k], 1, int(rows[k - 1][1]) + 1)
        _set(rows[k], 3, int(rows[k][1]) / N_TRAJ)

    def far_off(rows):  # final survivors moved by 10 sigma, consistently
        pe = float(rows[-1][2])
        s = int(rows[-1][1]) - int(10 * (pe * (1 - pe) * N_TRAJ) ** 0.5)
        _set(rows[-1], 1, s)
        _set(rows[-1], 3, s / N_TRAJ)

    corruptions = [
        increasing,
        far_off,
        lambda rows: rows.pop(),  # a missing step
        lambda rows: _set(rows[5], 3, float(rows[5][3]) + 1e-3),  # empirical != survivors/n
        lambda rows: _set(rows[7], 2, float(rows[6][2]) + 1e-3),  # exact survival increases
    ]
    for edit in corruptions:
        assert _rejected(checks.check_ensemble, _rewrite(path, edit), N_STEPS, N_TRAJ)


def test_timeseries_checker(tmp_path: Path):
    path = _cli_output(tmp_path, "simulate_symmetric", "simulate", "timeseries.csv",
                       n_samples=N_SAMPLES)
    assert checks.check_timeseries(path, N_SAMPLES) == path.stat().st_size
    corruptions = [
        lambda rows: _set(rows[100], 1, float(rows[99][1]) + 1e-6),  # survival increases
        lambda rows: _set(rows[1], 1, 1.5),  # survival above 1
        lambda rows: _set(rows[-1], 3, 0.49),  # final pop_01 not 1/2
        lambda rows: _set(rows[-1], 6, -0.4),  # final re_coh not -1/2
        lambda rows: rows.pop(),  # a missing sample
    ]
    for edit in corruptions:
        assert _rejected(checks.check_timeseries, _rewrite(path, edit), N_SAMPLES)


def test_dense_checker(tmp_path: Path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    workloads.DenseComposite.generate(inputs, seed=1)
    dense = workloads.DenseComposite(inputs)
    assert dense.run(tmp_path) == {}
    assert dense.check(tmp_path) == ({}, {})
    result = json.loads((tmp_path / "dense.json").read_text())
    for key, value in (("distance", 10 * checks.DENSE_DISTANCE_LIMIT), ("p", 0.0), ("p", 1.5)):
        assert _rejected(checks.check_dense, dict(result, **{key: value}))


def test_rk4_checker(tmp_path: Path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()  # no scenarios: the RK4 cases alone
    suite = workloads.PaperSuite(inputs)
    suite.cases = suite.cases[:2]
    assert suite.run(tmp_path) == {}
    assert suite.check(tmp_path) == ({}, {})
    path = tmp_path / "rk4.json"
    distances = json.loads(path.read_text())
    path.write_text(json.dumps(dict(distances, rk4_1=10 * checks.RK4_DISTANCE_LIMIT)))
    assert list(suite.check(tmp_path)[0]) == ["rk4_1"]
    path.write_text(json.dumps({"rk4_0": distances["rk4_0"]}))  # a missing case
    assert list(suite.check(tmp_path)[0]) == ["rk4_1"]
    path.unlink()
    assert sorted(suite.check(tmp_path)[0]) == ["rk4_0", "rk4_1"]


def test_identical_checker(tmp_path: Path):
    path = _cli_output(tmp_path, "derive_symmetric", "derive", "effective.json")
    copy = tmp_path / "copy"
    shutil.copytree(path.parent, copy)
    checks.check_identical(path.parent, copy)
    data = bytearray((copy / path.name).read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    (copy / path.name).write_bytes(bytes(data))
    assert _rejected(checks.check_identical, path.parent, copy)
    (copy / path.name).unlink()
    assert _rejected(checks.check_identical, path.parent, copy)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as tmp:
                test(Path(tmp))
            print(f"{name}: ok")
