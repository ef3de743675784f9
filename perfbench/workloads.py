"""The four benchmark workloads: seeded inputs, one iteration, output checks.

`generate(inputs, seed)` writes a workload's inputs under its own
directory; the workload is then built from those files alone, so that a
fresh process can load it without doing any numerical work first.  `run`
performs one iteration and returns the operations that failed while
running; `check` verifies the outputs on disk and returns the operations
whose outputs are wrong, plus the per-layer quantities read from them.
With a tracer, `run` records a span around each call into a layer; without
one it runs the plain program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

import checks
import zenon.cli
import zenon.dynamics
from spans import Tracer, instrumented
from zenon.dilation import choose_tau, decay_generator, roundtrip_check
from zenon.dynamics import DensityMatrix, evolve_conditional, integrate_nonlinear, normalize
from zenon.effective import AncillaSpec, EffectiveHamiltonian, derive_effective
from zenon.linalg import frobenius_norm, hermitian_eig, matrix_to_json
from zenon.protocol import ProtocolConfig, simulate_conditional

CONFIGS = Path("configs")

# Names cli.py calls, recorded as spans in the traced run.  Entanglement
# closed forms, dilate and stroboscopic_error stay in the command's own
# span (cli.<command>).
CLI_LAYER_CALLS = {
    "load_scenario": "config.load",
    "build_symmetric": "spin_models.build",
    "build_anisotropic": "spin_models.build",
    "derive_effective": "effective.derive",
    "ProtocolConfig": "protocol.config",
    "conditional_survival_curve": "protocol.exact_curve",
    "simulate_trajectories": "protocol.mc",
    "write_ensemble_csv": "protocol.write",
    "conditional_trajectory": "dynamics.trajectory",
    "write_timeseries_csv": "dynamics.write",
    "roundtrip_check": "dilation.roundtrip",
}


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _write_scenario(src: Path, dst: Path, **overrides) -> None:
    scenario = json.loads(src.read_text())
    scenario.update(overrides)
    dst.write_text(json.dumps(scenario, indent=2) + "\n")


class CliWorkload:
    """Bundled scenarios, rewritten with the workload seed, run through
    zenon.cli.main.

    Traced, each call to main runs inside a cli.<command> span with the
    names in CLI_LAYER_CALLS replaced, in zenon.cli's namespace, by
    span-recording wrappers.  Outputs of traced and untraced runs must be
    byte-identical, which the run harness checks.
    """

    BOUND_BY = "interpreter"  # the speed kernel that matches this workload

    @classmethod
    def overrides(cls) -> dict[str, dict]:
        """Scenario stem under configs/ -> fields replaced in its copy."""
        raise NotImplementedError

    @classmethod
    def generate(cls, inputs: Path, seed: int) -> None:
        for stem, extra in cls.overrides().items():
            _write_scenario(CONFIGS / f"{stem}.json", inputs / f"{stem}.json", seed=seed, **extra)

    def __init__(self, inputs: Path):
        self.ops = [  # (op name, command, scenario path)
            (path.stem, json.loads(path.read_text())["command"], str(path))
            for path in sorted(inputs.glob("*.json"))
        ]

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def probe_args(self) -> list[str]:
        return [f"scenario:{path}" for _, _, path in self.ops]

    def run(self, out: Path, tracer: Tracer | None = None) -> dict[str, str]:
        failed = {}
        for op, command, path in self.ops:
            argv = [command, "--config", path, "--out", str(out / op), "--threads", "1"]
            if tracer is None:
                code = zenon.cli.main(argv)
            else:
                with tracer.span(f"cli.{command}"), instrumented(tracer, zenon.cli, CLI_LAYER_CALLS):
                    code = zenon.cli.main(argv)
            if code != 0:
                failed[op] = f"exit code {code}"
        return failed

    def check(self, out: Path) -> tuple[dict[str, str], dict[str, float]]:
        return {}, {}

    def counts(self) -> dict[str, float]:
        """Per-layer counts that need a separate, untimed pass."""
        return {}


class McEnsemble(CliWorkload):
    N_TRAJ = 20_000
    N_STEPS = 200

    @classmethod
    def overrides(cls):
        return {"protocol_symmetric": {"n_traj": cls.N_TRAJ, "n_steps": cls.N_STEPS}}

    def check(self, out):
        try:
            z = checks.check_ensemble(
                out / "protocol_symmetric" / "ensemble.csv", self.N_STEPS, self.N_TRAJ
            )
        except checks.OUTPUT_ERRORS as exc:
            return {"protocol_symmetric": str(exc)}, {}
        return {}, {"protocol.mc_max_abs_z": z}


class TimeseriesExport(CliWorkload):
    N_SAMPLES = 50_000

    @classmethod
    def overrides(cls):
        return {"simulate_symmetric": {"n_samples": cls.N_SAMPLES}}

    def check(self, out):
        try:
            size = checks.check_timeseries(
                out / "simulate_symmetric" / "timeseries.csv", self.N_SAMPLES
            )
        except checks.OUTPUT_ERRORS as exc:
            return {"simulate_symmetric": str(exc)}, {}
        return {}, {"dynamics.csv_bytes": size}


def _criterion7_case(k: int):
    """Case k of acceptance criterion 7: the same draws from PCG64((7000, k))."""
    rng = np.random.Generator(np.random.PCG64((7000, k)))

    def complex_matrix():
        return rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))

    def psd():
        b = complex_matrix()
        return b @ b.conj().T

    a = complex_matrix()
    h0 = (a + a.conj().T) / 2
    gamma = psd()
    tau = float(rng.uniform(0.05, 0.3))
    t = float(rng.uniform(0.2, 0.8))
    eff = EffectiveHamiltonian(h0=h0, gamma=gamma, tau=tau)
    if k % 2 == 0:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho0 = DensityMatrix.from_pure(v / np.linalg.norm(v))
    else:
        m = psd() + 0.1 * np.eye(4)
        rho0 = DensityMatrix(m / np.trace(m).real)
    return eff, rho0, t


class PaperSuite(CliWorkload):
    """The nine bundled configs through the CLI, then the first four cases of
    criterion 7 (RK4 against exact propagation).  The RK4 distances are
    written to rk4.json, the output the check reads."""

    N_RK4_CASES = 4

    @classmethod
    def overrides(cls):
        return {path.stem: {} for path in sorted(CONFIGS.glob("*.json"))}

    def __init__(self, inputs: Path):
        super().__init__(inputs)
        self.cases = [_criterion7_case(k) for k in range(self.N_RK4_CASES)]

    @property
    def n_ops(self) -> int:
        return len(self.ops) + len(self.cases)

    def run(self, out, tracer=None):
        failed = super().run(out, tracer)
        distances = {}
        for k, (eff, rho0, t) in enumerate(self.cases):
            op = f"rk4_{k}"
            try:
                with _span(tracer, "dynamics.rk4"):
                    integrated = integrate_nonlinear(eff, rho0, t)
                with _span(tracer, "dynamics.evolve"):
                    direct = normalize(evolve_conditional(eff, rho0, t))
                distances[op] = frobenius_norm(integrated.rho - direct.rho)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                failed[op] = f"{type(exc).__name__}: {exc}"
        (out / "rk4.json").write_text(json.dumps(distances, indent=2) + "\n")
        return failed

    def check(self, out):
        try:
            distances = json.loads((out / "rk4.json").read_text())
        except (OSError, ValueError):
            distances = {}
        failed = {}
        for k in range(len(self.cases)):
            op = f"rk4_{k}"
            try:
                checks.check_rk4(distances[op])
            except KeyError:
                failed[op] = "no RK4 distance in rk4.json"
            except checks.OUTPUT_ERRORS as exc:
                failed[op] = str(exc)
        return failed, {}

    def counts(self):
        """dynamics.rk4_steps: the steps integrate_nonlinear takes on the
        cases, i.e. its evaluations of the right-hand side (the nested
        function rhs of zenon.dynamics), counted by a profiler, over four."""
        evals = 0

        def profile(frame, event, arg):
            nonlocal evals
            if event == "call" and frame.f_code.co_name == "rhs" and frame.f_globals is namespace:
                evals += 1

        namespace = vars(zenon.dynamics)
        sys.setprofile(profile)
        try:
            for eff, rho0, t in self.cases:
                integrate_nonlinear(eff, rho0, t)
        finally:
            sys.setprofile(None)
        return {"dynamics.rk4_steps": evals / 4}


class DenseComposite:
    """Library pipeline on a seeded random Hermitian composite of dimension 512.

    tau is 0.2 over the Bohr spread of H, so the stroboscopic regime warning
    does not fire; it is computed when the inputs are generated and stored
    beside the matrix.  The state starts maximally mixed on the
    256-dimensional system.
    """

    BOUND_BY = "blas"
    ops = ()  # no CLI outputs to compare between traced and untraced runs
    n_ops = 1
    DIM = 512
    N_STEPS = 100
    TAU_BOHR = 0.2

    @classmethod
    def generate(cls, inputs: Path, seed: int) -> None:
        rng = np.random.Generator(np.random.PCG64(seed))
        a = rng.uniform(-1, 1, (cls.DIM, cls.DIM)) + 1j * rng.uniform(-1, 1, (cls.DIM, cls.DIM))
        h = (a + a.conj().T) / 2
        w = np.linalg.eigvalsh(h)
        (inputs / "composite.json").write_text(json.dumps(matrix_to_json(h)))
        (inputs / "params.json").write_text(json.dumps({"tau": cls.TAU_BOHR / float(w[-1] - w[0])}))

    def __init__(self, inputs: Path):
        self.matrix_path = inputs / "composite.json"
        self.h = zenon.cli.load_matrix_file(self.matrix_path)
        self.tau = json.loads((inputs / "params.json").read_text())["tau"]
        self.rho0 = DensityMatrix.maximally_mixed(self.DIM // 2)

    def probe_args(self) -> list[str]:
        return [f"matrix:{self.matrix_path}"]

    def run(self, out: Path, tracer: Tracer | None = None) -> dict[str, str]:
        spec = AncillaSpec()
        try:
            with _span(tracer, "effective.derive"):
                eff = derive_effective(self.h, spec, self.tau)
            with _span(tracer, "protocol.config"):
                cfg = ProtocolConfig(h=self.h, spec=spec, tau=self.tau, n_steps=self.N_STEPS)
            with _span(tracer, "protocol.conditional"):
                exact = simulate_conditional(cfg, self.rho0)
                exact_rho = normalize(exact).rho
            with _span(tracer, "dynamics.evolve"):
                approx_rho = normalize(evolve_conditional(eff, self.rho0, self.N_STEPS * self.tau)).rho
            h_eff = eff.matrix()
            with _span(tracer, "dilation.roundtrip"):
                w = hermitian_eig(decay_generator(h_eff)).eigenvalues
                report = roundtrip_check(h_eff, choose_tau(float(w[-1] - w[0])))
        except Exception as exc:  # noqa: BLE001
            return {"dense": f"{type(exc).__name__}: {exc}"}
        result = {
            "tau": self.tau,
            "p": exact.p,
            "distance": frobenius_norm(exact_rho - approx_rho),
            "roundtrip": dataclasses.asdict(report),
        }
        (out / "dense.json").write_text(json.dumps(result, indent=2) + "\n")
        return {}

    def check(self, out):
        try:
            checks.check_dense(json.loads((out / "dense.json").read_text()))
        except checks.OUTPUT_ERRORS as exc:
            return {"dense": str(exc)}, {}
        return {}, {}

    def counts(self) -> dict[str, float]:
        return {}


WORKLOADS = {
    "mc_ensemble": McEnsemble,
    "timeseries_export": TimeseriesExport,
    "dense_composite": DenseComposite,
    "paper_suite": PaperSuite,
}
