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
import json
import os
import sys

import numpy as np

from .config import COMMANDS, SWEEP_KEYS, Scenario, is_amplitude, load_scenario
from .dilation import dilate, dilation_step, roundtrip_check
from .dynamics import (
    DensityMatrix,
    conditional_trajectory,
    default_coherence_pair,
    write_timeseries_csv,
)
from .effective import AncillaSpec, derive_effective
from .entanglement import (
    EffectiveBlockParams,
    bell_fidelity,
    block_decompose,
    concurrence,
    fig4_coherence_rows,
    fig4_population_rows,
    fig5_rows,
)
from .errors import ValidationError, ZenonError
from .linalg import matrix_from_json, write_csv
from .protocol import (
    ProtocolConfig,
    conditional_survival_curve,
    simulate_trajectories,
    stroboscopic_error,
    write_ensemble_csv,
)
from .spin_models import build_anisotropic, build_symmetric


def load_matrix_file(path) -> np.ndarray:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int too long to parse
        raise ValidationError(f"matrix file {path} is not valid JSON: {exc}") from exc
    return matrix_from_json(obj)


def parse_initial_state(value, dim: int) -> DensityMatrix:
    """Basis label (bit string), 'mixed', or an explicit amplitude list
    (numbers or [re, im] pairs)."""
    if value is None:
        raise ValidationError("this command needs an initial_state in the scenario")
    if isinstance(value, str):
        if value == "mixed":
            return DensityMatrix.maximally_mixed(dim)
        n_bits = dim.bit_length() - 1
        if 2**n_bits != dim or len(value) != n_bits or any(c not in "01" for c in value):
            raise ValidationError(
                f"basis label {value!r} is not a {n_bits}-bit string for dimension {dim}"
            )
        return DensityMatrix.basis_state(dim, int(value, 2))
    if isinstance(value, list):
        if len(value) != dim:
            raise ValidationError(f"amplitude list has {len(value)} entries, need {dim}")
        bad = [entry for entry in value if not is_amplitude(entry)]
        if bad:
            raise ValidationError(f"amplitude {bad[0]!r} is not a number or an [re, im] pair of numbers")
        amps = [complex(*entry) if isinstance(entry, list) else complex(entry) for entry in value]
        return DensityMatrix.from_pure(np.array(amps))
    raise ValidationError(f"cannot interpret initial_state {value!r}")


def _ancilla_spec(s: Scenario) -> AncillaSpec:
    return AncillaSpec(ancilla_site=s.ancilla_site)


def _composite_hamiltonian(s: Scenario) -> np.ndarray:
    if s.model == "symmetric":
        return build_symmetric(s.params)
    if s.model == "anisotropic":
        return build_anisotropic(s.params)
    return load_matrix_file(s.params)


def _out_dir(s: Scenario) -> str:
    os.makedirs(s.output_dir, exist_ok=True)
    return s.output_dir


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def run_derive(s: Scenario) -> None:
    eff = derive_effective(_composite_hamiltonian(s), _ancilla_spec(s), s.tau)
    _write_json(os.path.join(_out_dir(s), "effective.json"), eff.to_json())


def run_simulate(s: Scenario) -> None:
    if s.model == "matrix-file":
        h_eff = load_matrix_file(s.params)
    else:
        eff = derive_effective(_composite_hamiltonian(s), _ancilla_spec(s), s.tau)
        h_eff = eff.matrix()
    rho0 = parse_initial_state(s.initial_state, h_eff.shape[0])
    times, survival, states = conditional_trajectory(h_eff, rho0, s.t_max, s.n_samples)
    if s.coherence_pair is not None:
        pair = tuple(s.coherence_pair)
    else:
        pops = np.real(np.diag(rho0.rho))
        pair = default_coherence_pair(h_eff.shape[0], int(np.argmax(pops)))
    write_timeseries_csv(os.path.join(_out_dir(s), "timeseries.csv"), times, survival, states, pair)


def _protocol_config(s: Scenario) -> ProtocolConfig:
    n_steps = s.n_steps if s.n_steps is not None else max(1, round(s.t_max / s.tau))
    return ProtocolConfig(
        h=_composite_hamiltonian(s), spec=_ancilla_spec(s), tau=s.tau, n_steps=n_steps
    )


def run_protocol(s: Scenario) -> None:
    cfg = _protocol_config(s)
    rho0 = parse_initial_state(s.initial_state, cfg.system_dim)
    exact = conditional_survival_curve(cfg, rho0)
    ensemble = simulate_trajectories(cfg, rho0, s.n_traj, s.seed)
    write_ensemble_csv(os.path.join(_out_dir(s), "ensemble.csv"), ensemble, exact)


def run_dilate(s: Scenario) -> None:
    h_eff = load_matrix_file(s.params)
    res = dilate(h_eff, s.tau if s.tau is not None else dilation_step(h_eff))
    _write_json(os.path.join(_out_dir(s), "dilation.json"), res.to_json())


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
        h_eff = load_matrix_file(fname)
        tau = dilation_step(h_eff, fallback=s.tau)
        report = roundtrip_check(h_eff, tau)
        entry = {"file": fname, "tau": tau}
        entry.update(dataclasses.asdict(report))
        results.append(entry)
    _write_json(os.path.join(_out_dir(s), "roundtrip.json"), {"results": results})


def run_figures(s: Scenario) -> None:
    out = _out_dir(s)
    if s.model == "symmetric":
        block = EffectiveBlockParams.from_symmetric(s.params, s.tau)
        gt_max = block.gamma * s.t_max
        write_csv(
            os.path.join(out, "fig4a.csv"),
            ["gt_axis", "pop10", "pop01"],
            fig4_population_rows(block, gt_max, s.n_samples),
        )
        write_csv(
            os.path.join(out, "fig4b.csv"),
            ["gt_axis", "re_coh", "im_coh"],
            fig4_coherence_rows(block, gt_max, s.n_samples),
        )
    else:
        eff = derive_effective(build_anisotropic(s.params), _ancilla_spec(s), s.tau)
        plus, _ = block_decompose(eff.matrix())
        mxt_max = plus.mu_x * s.t_max
        write_csv(
            os.path.join(out, "fig5.csv"),
            ["mxt_axis", "pop11", "re_coh", "im_coh"],
            fig5_rows(plus, mxt_max, s.n_samples),
        )


def run_sweep(s: Scenario) -> None:
    keys = list(s.grid[0])
    header = keys + ["p", "bell_fidelity", "concurrence"]
    if s.with_protocol:
        header.append("stroboscopic_error")
    rows = []
    for entry in s.grid:
        couplings = {k: v for k, v in entry.items() if k not in SWEEP_KEYS}
        params = dataclasses.replace(s.params, **couplings)
        tau = float(entry.get("tau", s.tau))
        t_max = float(entry.get("t_max", s.t_max))
        h = _composite_hamiltonian(dataclasses.replace(s, params=params))
        spec = _ancilla_spec(s)
        eff = derive_effective(h, spec, tau)
        rho0 = parse_initial_state(s.initial_state, eff.dim)
        _, survival, states = conditional_trajectory(eff.matrix(), rho0, t_max, s.n_samples)
        final = states[-1]
        row = [float(entry[k]) for k in keys]
        row += [survival[-1], bell_fidelity(final, s.bell), concurrence(final)]
        if s.with_protocol:
            n_steps = max(1, round(t_max / tau))
            cfg = ProtocolConfig(h=h, spec=spec, tau=tau, n_steps=n_steps)
            row.append(stroboscopic_error(cfg, rho0))
        rows.append(row)
    write_csv(os.path.join(_out_dir(s), "sweep.csv"), header, rows)


_RUNNERS = {
    "derive": run_derive,
    "simulate": run_simulate,
    "protocol": run_protocol,
    "dilate": run_dilate,
    "roundtrip": run_roundtrip,
    "figures": run_figures,
    "sweep": run_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenon",
        description="Conditional non-unitary dynamics from repeated ancilla measurements.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", help="override the scenario's output_dir")
    parser.add_argument("--seed", type=int, help="override the scenario's seed")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; Monte Carlo runs in one process")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if scenario.command != args.command:
            raise ValidationError(
                f"config is for command {scenario.command!r}, not {args.command!r}"
            )
        overrides = {"output_dir": args.out, "seed": args.seed}
        scenario = dataclasses.replace(scenario, **{k: v for k, v in overrides.items() if v is not None})
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
