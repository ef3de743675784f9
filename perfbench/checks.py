"""Output checks for the benchmark workloads.

Each check raises CheckError when an output is wrong; a raised check
counts the operation that produced the output as failed.  The rules are
the acceptance criteria's: criterion 5 (Monte Carlo within 4 sigma of the
exact survival), criterion 2 (singlet-sector limit of the time series) and
criterion 7 (RK4 against exact propagation).
"""

from __future__ import annotations

import csv
import filecmp
import math
import os

ENSEMBLE_HEADER = ["step", "survivors", "p_exact", "p_empirical"]
MC_Z_LIMIT = 4.0
SINGLET_TOL = 1e-5
DENSE_DISTANCE_LIMIT = 1e-4
RK4_DISTANCE_LIMIT = 1e-6
# Rounding slack for a survival probability that must not increase, as in
# criterion 7; survivor counts are integers and get none.
MONOTONE_ATOL = 1e-12


class CheckError(Exception):
    pass


# What checking a wrong, truncated or missing output can raise.
OUTPUT_ERRORS = (CheckError, OSError, ValueError, IndexError, KeyError)


def _non_increasing(values, what: str, atol: float = 0.0) -> None:
    for k in range(1, len(values)):
        if values[k] > values[k - 1] + atol:
            raise CheckError(f"{what} increases at row {k + 1}: {values[k - 1]!r} -> {values[k]!r}")


def check_ensemble(path, n_steps: int, n_traj: int) -> float:
    """ensemble.csv of a protocol run; returns the largest binomial |z| of
    the empirical survival against the exact one over all steps."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ENSEMBLE_HEADER:
        raise CheckError(f"ensemble header is {rows[:1]}, expected {ENSEMBLE_HEADER}")
    body = rows[1:]
    if len(body) != n_steps:
        raise CheckError(f"ensemble has {len(body)} rows, expected {n_steps}")
    steps = [int(r[0]) for r in body]
    survivors = [int(r[1]) for r in body]
    p_exact = [float(r[2]) for r in body]
    p_emp = [float(r[3]) for r in body]
    if steps != list(range(1, n_steps + 1)):
        raise CheckError("ensemble step column is not 1..n_steps")
    if not all(0 <= s <= n_traj for s in survivors):
        raise CheckError(f"survivor count outside 0..{n_traj}")
    _non_increasing(survivors, "survivor count")
    _non_increasing(p_exact, "exact survival", MONOTONE_ATOL)
    z_max = 0.0
    for s, pe, pm in zip(survivors, p_exact, p_emp):
        if not 0.0 <= pe <= 1.0:
            raise CheckError(f"exact survival {pe!r} outside [0, 1]")
        if pm != s / n_traj:
            raise CheckError(f"empirical survival {pm!r} is not {s}/{n_traj}")
        sigma = math.sqrt(pe * (1.0 - pe) / n_traj)
        z = abs(pm - pe) / sigma if sigma > 0 else (0.0 if pm == pe else math.inf)
        z_max = max(z_max, z)
    final_sigma = math.sqrt(p_exact[-1] * (1.0 - p_exact[-1]) / n_traj)
    if not abs(p_emp[-1] - p_exact[-1]) < MC_Z_LIMIT * final_sigma:
        raise CheckError(
            f"final empirical survival {p_emp[-1]!r} is not within {MC_Z_LIMIT} sigma "
            f"of the exact {p_exact[-1]!r}"
        )
    return z_max


def check_timeseries(path, n_samples: int) -> int:
    """timeseries.csv of the singlet-sector run from |01>; returns its size in
    bytes.  The final state must be the Bell state Psi-minus."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        needed = ("p", "pop_01", "pop_10", "re_coh")
        if header is None or any(name not in header for name in needed):
            raise CheckError(f"timeseries header {header} lacks one of {needed}")
        col = {name: header.index(name) for name in needed}
        p = []
        last = None
        for row in reader:
            if len(row) != len(header):
                raise CheckError(f"timeseries row {len(p) + 2} has {len(row)} fields")
            p.append(float(row[col["p"]]))
            last = row
    if len(p) != n_samples:
        raise CheckError(f"timeseries has {len(p) + 1} lines, expected {n_samples + 1}")
    if not all(0.0 <= v <= 1.0 for v in p):
        raise CheckError("survival probability outside [0, 1]")
    _non_increasing(p, "survival probability", MONOTONE_ATOL)
    for name, target in (("pop_01", 0.5), ("pop_10", 0.5), ("re_coh", -0.5)):
        value = float(last[col[name]])
        if not abs(value - target) < SINGLET_TOL:
            raise CheckError(f"final {name} = {value!r}, expected {target} within {SINGLET_TOL}")
    return os.path.getsize(path)


def check_dense(result: dict) -> None:
    """Normalised distance between the exact protocol state and the
    effective-generator state of the dense composite."""
    if not 0.0 < result["p"] <= 1.0:
        raise CheckError(f"survival probability {result['p']!r} outside (0, 1]")
    if not result["distance"] < DENSE_DISTANCE_LIMIT:
        raise CheckError(
            f"protocol vs effective distance {result['distance']!r} >= {DENSE_DISTANCE_LIMIT}"
        )


def check_rk4(distance: float) -> None:
    if not distance < RK4_DISTANCE_LIMIT:
        raise CheckError(f"RK4 vs exact distance {distance!r} >= {RK4_DISTANCE_LIMIT}")


def check_identical(expected_dir, actual_dir) -> None:
    """Every file of expected_dir exists in actual_dir with the same bytes."""
    names = sorted(os.listdir(expected_dir))
    if names != sorted(os.listdir(actual_dir)):
        raise CheckError(f"{actual_dir} holds {sorted(os.listdir(actual_dir))}, expected {names}")
    for name in names:
        a, b = os.path.join(expected_dir, name), os.path.join(actual_dir, name)
        if not filecmp.cmp(a, b, shallow=False):
            raise CheckError(f"{b} differs from {a}")
