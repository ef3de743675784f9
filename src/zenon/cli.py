"""Command line entry point.

    zenon <command> --config <scenario.json> [--out <dir>] [--seed <int>] [--threads <n>]

Commands: derive, simulate, protocol, dilate, roundtrip, figures, sweep.
Exit codes: 0 success, 2 validation failure (bad config or input), 3
numerical failure at run time.  Matrix-file paths inside a scenario are
resolved against the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from .config import COMMANDS, SWEEP_KEYS, Scenario, load_scenario, read_json, write_json
from .dilation import dilate, roundtrip_check
from .dynamics import (
    DensityMatrix,
    conditional_final_state,
    conditional_trajectory,
    default_coherence_pair,
    write_timeseries_csv,
)
from .effective import AncillaSpec, EffectiveHamiltonian, derive_effective
from .entanglement import bell_fidelity, block_decompose, block_rows, concurrence, fig5_rows
from .errors import ValidationError, ZenonError
from .linalg import matrix_from_json, write_csv
from .protocol import (
    ProtocolConfig,
    conditional_survival_curve,
    simulate_trajectories,
    steps_for,
    stroboscopic_error,
    write_ensemble_csv,
)
from .spin_models import build_anisotropic, build_symmetric


def load_matrix_file(path) -> np.ndarray:
    return matrix_from_json(read_json(path, "matrix file"))


def parse_initial_state(value, dim: int) -> DensityMatrix:
    """A Scenario's initial_state at dimension dim.  Scenario checks its form,
    so only a basis label's bit count and an amplitude list's length are left."""
    if value == "mixed":
        return DensityMatrix.maximally_mixed(dim)
    if isinstance(value, str):
        n_bits = dim.bit_length() - 1
        if 2**n_bits != dim or len(value) != n_bits or any(c not in "01" for c in value):
            raise ValidationError(
                f"basis label {value!r} is not a {n_bits}-bit string for dimension {dim}"
            )
        return DensityMatrix.basis_state(dim, int(value, 2))
    if len(value) != dim:
        raise ValidationError(f"amplitude list has {len(value)} entries, need {dim}")
    amps = [complex(*entry) if isinstance(entry, list) else complex(entry) for entry in value]
    return DensityMatrix.from_pure(np.array(amps))


def _ancilla_spec(s: Scenario) -> AncillaSpec:
    return AncillaSpec(ancilla_site=s.ancilla_site)


def _composite_hamiltonian(model: str, params) -> np.ndarray:
    if model == "symmetric":
        return build_symmetric(params)
    if model == "anisotropic":
        return build_anisotropic(params)
    return load_matrix_file(params)


def _out_dir(s: Scenario) -> str:
    os.makedirs(s.output_dir, exist_ok=True)
    return s.output_dir


def _derived(s: Scenario) -> EffectiveHamiltonian:
    return derive_effective(_composite_hamiltonian(s.model, s.params), _ancilla_spec(s), s.tau)


def run_derive(s: Scenario) -> None:
    write_json(os.path.join(_out_dir(s), "effective.json"), _derived(s).to_json())


def run_simulate(s: Scenario) -> None:
    h_eff = load_matrix_file(s.params) if s.model == "matrix-file" else _derived(s).matrix()
    dim = h_eff.shape[0]
    rho0 = parse_initial_state(s.initial_state, dim)
    if s.coherence_pair is None:
        pair = default_coherence_pair(dim, int(np.argmax(np.real(np.diag(rho0.rho)))))
    elif max(s.coherence_pair) < dim:  # Scenario checks the rest: two distinct indices >= 0
        pair = tuple(s.coherence_pair)
    else:
        raise ValidationError(f"coherence_pair {s.coherence_pair} outside 0..{dim - 1}")
    times, survival, states = conditional_trajectory(h_eff, rho0, s.t_max, s.n_samples)
    write_timeseries_csv(os.path.join(_out_dir(s), "timeseries.csv"), times, survival, states, pair)


def _protocol_config(s: Scenario) -> ProtocolConfig:
    n_steps = s.n_steps if s.n_steps is not None else steps_for(s.t_max, s.tau)
    return ProtocolConfig(
        h=_composite_hamiltonian(s.model, s.params), spec=_ancilla_spec(s), tau=s.tau, n_steps=n_steps
    )


def run_protocol(s: Scenario) -> None:
    cfg = _protocol_config(s)
    rho0 = parse_initial_state(s.initial_state, cfg.system_dim)
    exact = conditional_survival_curve(cfg, rho0)
    ensemble = simulate_trajectories(exact, s.n_traj, s.seed)
    write_ensemble_csv(os.path.join(_out_dir(s), "ensemble.csv"), ensemble, exact)


def run_dilate(s: Scenario) -> None:
    h_eff = load_matrix_file(s.params)
    res = dilate(h_eff, s.tau)
    write_json(os.path.join(_out_dir(s), "dilation.json"), res.to_json())


def run_roundtrip(s: Scenario) -> None:
    path = s.params
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path) if name.endswith(".json")
        )
    else:
        files = [path]
    if not files:
        raise ValidationError(f"no matrix files found under {path}")
    results = []
    for fname in files:
        report = roundtrip_check(load_matrix_file(fname), fallback=s.tau)
        results.append({"file": fname, **dataclasses.asdict(report)})
    write_json(os.path.join(_out_dir(s), "roundtrip.json"), {"results": results})


def run_figures(s: Scenario) -> None:
    out = _out_dir(s)
    plus, minus = block_decompose(_derived(s).matrix())
    if s.model == "symmetric":
        rows = block_rows(minus, minus.mu_x * s.t_max, s.n_samples)
        tables = {
            "fig4a.csv": (["gt_axis", "pop10", "pop01"], [(gt, pop10, pop01) for gt, pop01, pop10, _, _ in rows]),
            "fig4b.csv": (["gt_axis", "re_coh", "im_coh"], [(gt, re_coh, im_coh) for gt, _, _, re_coh, im_coh in rows]),
        }
    else:
        rows = fig5_rows(plus, plus.mu_x * s.t_max, s.n_samples)
        tables = {"fig5.csv": (["mxt_axis", "pop11", "re_coh", "im_coh"], rows)}
    for name, (header, table) in tables.items():
        write_csv(os.path.join(out, name), header, len(table), table.__getitem__)


def run_sweep(s: Scenario) -> None:
    keys = list(s.grid[0])
    header = keys + ["p", "bell_fidelity", "concurrence"]
    if s.with_protocol:
        header.append("stroboscopic_error")
    rows = []
    for entry in s.grid:
        couplings = {k: v for k, v in entry.items() if k not in SWEEP_KEYS}
        h = _composite_hamiltonian(s.model, dataclasses.replace(s.params, **couplings))
        tau = float(entry.get("tau", s.tau))
        t_max = float(entry.get("t_max", s.t_max))
        spec = _ancilla_spec(s)
        eff = derive_effective(h, spec, tau)
        rho0 = parse_initial_state(s.initial_state, eff.dim)
        p, rho = conditional_final_state(eff.matrix(), rho0, t_max, s.n_samples)
        final = DensityMatrix(rho)  # one state gate for both measures
        row = [float(entry[k]) for k in keys]
        row += [p, bell_fidelity(final, s.bell), concurrence(final)]
        if s.with_protocol:
            cfg = ProtocolConfig(h=h, spec=spec, tau=tau, n_steps=steps_for(t_max, tau))
            row.append(stroboscopic_error(cfg, rho0))
        rows.append(row)
    write_csv(os.path.join(_out_dir(s), "sweep.csv"), header, len(rows), rows.__getitem__)


_RUNNERS = {
    "derive": run_derive,
    "simulate": run_simulate,
    "protocol": run_protocol,
    "dilate": run_dilate,
    "roundtrip": run_roundtrip,
    "figures": run_figures,
    "sweep": run_sweep,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, each returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="zenon",
        description="Conditional non-unitary dynamics from repeated ancilla measurements.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", help="override the scenario's output_dir")
    parser.add_argument("--seed", type=int, help="override the scenario's seed")
    parser.add_argument("--threads", type=int, default=1, help="a no-op kept for compatibility, due for removal")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if scenario.command != args.command:
            raise ValidationError(
                f"config is for command {scenario.command!r}, not {args.command!r}"
            )
        overrides = {k: v for k, v in {"output_dir": args.out, "seed": args.seed}.items() if v is not None}
        if overrides:  # the loaded scenario is valid; only an override needs a new check
            scenario = dataclasses.replace(scenario, **overrides)
        if args.threads < 1:
            raise ValidationError(f"threads must be positive, got {args.threads}")
        _RUNNERS[args.command](scenario)
    except ValidationError as exc:
        print(f"zenon: validation error: {exc}", file=sys.stderr)
        return 2
    except ZenonError as exc:
        print(f"zenon: numerical error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI must not crash on bad input
        print(f"zenon: unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
