#!/usr/bin/env python3
"""Stroboscopic convergence study: protocol-vs-generator error as tau shrinks.

For a fixed physical time t the exact repeated-measurement protocol is
compared against propagation with the effective generator, over a geometric
ladder of step lengths.  The error should fall roughly as tau^2; the last
column reports the ratio between consecutive ladder rungs (about 4 when the
step is halved).

Usage: python3 scripts/convergence_study.py [--t-total T] [--rungs N] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from zenon.dynamics import DensityMatrix  # noqa: E402
from zenon.effective import AncillaSpec  # noqa: E402
from zenon.linalg import write_csv  # noqa: E402
from zenon.protocol import ProtocolConfig, steps_for, stroboscopic_error  # noqa: E402
from zenon.spin_models import SymmetricParams, build_symmetric  # noqa: E402

PARAMS = SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=2.0, g_z=0.3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-total", type=float, default=1.0, help="fixed physical time")
    parser.add_argument("--rungs", type=int, default=6, help="number of tau halvings")
    parser.add_argument("--out", default="out/convergence", help="output directory")
    args = parser.parse_args()
    if args.rungs < 2:
        parser.error("need at least 2 rungs to form a ratio")

    h = build_symmetric(PARAMS)
    rho0 = DensityMatrix.basis_state(4, 1)
    rows = []
    tau = 0.02
    for _ in range(args.rungs):
        n_steps = steps_for(args.t_total, tau)
        cfg = ProtocolConfig(h=h, spec=AncillaSpec(), tau=tau, n_steps=n_steps)
        rows.append((tau, n_steps, stroboscopic_error(cfg, rho0)))
        tau /= 2.0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = []
    print(f"{'tau':>10} {'n_steps':>8} {'error':>13} {'ratio':>7}")
    for k, (tau, n_steps, err) in enumerate(rows):
        ratio = rows[k - 1][2] / err if k else float("nan")
        table.append((tau, n_steps, err, ratio))
        print(f"{tau:>10.5f} {n_steps:>8} {err:>13.3e} {ratio:>7.2f}")
    path = out_dir / "convergence.csv"
    write_csv(path, ["tau", "n_steps", "error", "ratio"], table)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
