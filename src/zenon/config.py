"""Scenario configs: one JSON object drives one CLI run.

The schema is deliberately flat.  `model` picks the Hamiltonian source
(symmetric or anisotropic three-spin couplings, or a matrix file), and the
remaining fields parameterize whichever command consumes the scenario.
Serialization round-trips exactly: scenario_from_json(scenario_to_json(s))
compares equal to s.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .entanglement import BELL_STATES
from .errors import ValidationError
from .spin_models import AnisotropicParams, SymmetricParams

COMMANDS = ("derive", "simulate", "protocol", "dilate", "roundtrip", "figures", "sweep")
MODELS = ("symmetric", "anisotropic", "matrix-file")


@dataclass
class Scenario:
    command: str
    model: str
    params: SymmetricParams | AnisotropicParams | str
    tau: float | None = None
    initial_state: str | list | None = None
    t_max: float = 1.0
    n_samples: int = 200
    seed: int = 0
    output_dir: str = "out"
    n_traj: int = 1000
    n_steps: int | None = None
    grid: list[dict] | None = None
    bell: str = "psi_minus"
    coherence_pair: list[int] | None = None
    ancilla_site: int | None = None
    with_protocol: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}; choose from {COMMANDS}")
        if self.model not in MODELS:
            raise ValidationError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.model == "symmetric" and not isinstance(self.params, SymmetricParams):
            raise ValidationError("symmetric model needs the four gamma_xy/gamma_z/g_xy/g_z couplings")
        if self.model == "anisotropic" and not isinstance(self.params, AnisotropicParams):
            raise ValidationError("anisotropic model needs all nine couplings")
        if self.model == "matrix-file" and not isinstance(self.params, str):
            raise ValidationError("matrix-file model needs a file path in params")
        if not self.t_max > 0:
            raise ValidationError(f"t_max must be positive, got {self.t_max}")
        if self.n_samples < 2:
            raise ValidationError(f"n_samples must be at least 2, got {self.n_samples}")
        if self.tau is not None and not self.tau > 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.n_traj < 1:
            raise ValidationError(f"n_traj must be positive, got {self.n_traj}")
        if self.n_steps is not None and self.n_steps < 0:
            raise ValidationError(f"n_steps must be nonnegative, got {self.n_steps}")
        if self.bell not in BELL_STATES:
            raise ValidationError(f"unknown Bell state {self.bell!r}")
        if self.coherence_pair is not None:
            pair = list(self.coherence_pair)
            if len(pair) != 2 or not all(isinstance(k, int) and k >= 0 for k in pair):
                raise ValidationError(f"coherence_pair must be two nonnegative ints, got {pair}")
            self.coherence_pair = pair
        if self.grid is not None:
            if not isinstance(self.grid, list) or not self.grid:
                raise ValidationError("grid must be a nonempty list of override mappings")
            for entry in self.grid:
                if not isinstance(entry, dict) or entry.keys() != self.grid[0].keys():
                    raise ValidationError("every grid entry must carry the same override keys")


_PARAM_TYPES = {"symmetric": SymmetricParams, "anisotropic": AnisotropicParams}


def scenario_from_json(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ValidationError("scenario must be a JSON mapping")
    known = {f.name for f in dataclasses.fields(Scenario)}
    unknown = set(obj) - known
    if unknown:
        raise ValidationError(f"unknown scenario fields: {sorted(unknown)}")
    data = dict(obj)
    try:
        command = data["command"]
        model = data["model"]
        params = data["params"]
    except KeyError as exc:
        raise ValidationError(f"scenario is missing required field {exc}") from exc
    if model in _PARAM_TYPES:
        if not isinstance(params, dict):
            raise ValidationError(f"{model} model params must be a mapping of couplings")
        try:
            data["params"] = _PARAM_TYPES[model](**params)
        except TypeError as exc:
            raise ValidationError(f"bad couplings for {model} model: {exc}") from exc
    for int_field in ("n_samples", "seed", "n_traj", "n_steps"):
        if data.get(int_field) is not None:
            v = data[int_field]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"{int_field} must be an integer, got {v!r}")
    for float_field in ("tau", "t_max"):
        if data.get(float_field) is not None:
            v = data[float_field]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(f"{float_field} must be a number, got {v!r}")
            data[float_field] = float(v)
    return Scenario(**data)


def scenario_to_json(s: Scenario) -> dict:
    out: dict = {}
    for f in dataclasses.fields(Scenario):
        v = getattr(s, f.name)
        if dataclasses.is_dataclass(v):
            v = dataclasses.asdict(v)
        out[f.name] = v
    return out


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario {path} is not valid JSON: {exc}") from exc
    return scenario_from_json(obj)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(s), fh, indent=2)
        fh.write("\n")
