"""Scenario configs: one JSON object drives one CLI run.

The schema is deliberately flat.  `model` picks the Hamiltonian source
(symmetric or anisotropic three-spin couplings, or a matrix file), and the
remaining fields parameterize whichever command consumes the scenario.
Building a Scenario runs every check that needs no matrix: each field's
JSON type (its annotation; a bool is never a number) and range, and what
its command needs (among them each protocol run's step count), so a
scenario that loads is one its command can run.
Serialization round-trips exactly: scenario_from_json(dataclasses.asdict(s))
compares equal to s.  read_json and write_json read and write every JSON
file of the package: scenarios, matrix files and the CLI's outputs.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from dataclasses import dataclass

from .entanglement import BELL_STATES
from .errors import ValidationError
from .linalg import finite_reals
from .protocol import MAX_PROTOCOL_STEPS, MAX_TRAJECTORIES, steps_for
from .spin_models import AnisotropicParams, SymmetricParams

COMMANDS = ("derive", "simulate", "protocol", "dilate", "roundtrip", "figures", "sweep")
_SPIN_MODELS = ("symmetric", "anisotropic")
MODELS = (*_SPIN_MODELS, "matrix-file")
SWEEP_KEYS = ("tau", "t_max")  # grid keys besides the couplings of the model

_PARAM_TYPES = {"symmetric": SymmetricParams, "anisotropic": AnisotropicParams, "matrix-file": str}
_COMMAND_MODELS = {
    "dilate": ("matrix-file",),
    "roundtrip": ("matrix-file",),
    "figures": _SPIN_MODELS,
    "sweep": _SPIN_MODELS,
}
_FIGURE_STARTS = {"symmetric": "01", "anisotropic": "00"}  # first basis state of each figure's block


def is_amplitude(v) -> bool:
    """A number, or an [re, im] pair of numbers."""
    return finite_reals(v if isinstance(v, list) and len(v) == 2 else [v]) is not None


def _positive_finite(v) -> bool:
    return 0 < v <= sys.float_info.max


def _same_key_mappings(grid) -> bool:
    return bool(grid) and all(isinstance(e, dict) and e.keys() == grid[0].keys() for e in grid)


# field -> (test a value other than None must pass, what the test asks for)
_RANGES = {
    "command": (COMMANDS.__contains__, f"one of {COMMANDS}"),
    "model": (MODELS.__contains__, f"one of {MODELS}"),
    "tau": (_positive_finite, "positive and finite"),
    "initial_state": (
        lambda v: isinstance(v, str) or all(map(is_amplitude, v)),
        "a label or a list of numbers and [re, im] pairs",
    ),
    "t_max": (_positive_finite, "positive and finite"),
    "n_samples": (lambda v: v >= 2, "at least 2"),
    "seed": (lambda v: v >= 0, "nonnegative"),
    "output_dir": (bool, "a nonempty path"),
    "n_traj": (lambda v: 1 <= v <= MAX_TRAJECTORIES, f"in 1..{MAX_TRAJECTORIES}"),
    "n_steps": (lambda v: 0 <= v <= MAX_PROTOCOL_STEPS, f"in 0..{MAX_PROTOCOL_STEPS}"),
    "grid": (_same_key_mappings, "a nonempty list of mappings with the same override keys"),
    "bell": (BELL_STATES.__contains__, f"one of {sorted(BELL_STATES)}"),
    "coherence_pair": (
        lambda v: len(v) == 2 and all(type(k) is int and k >= 0 for k in v) and v[0] != v[1],
        "two distinct nonnegative ints",
    ),
    "ancilla_site": (lambda v: v >= 1, "at least 1"),
}


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
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            admitted = _FIELD_TYPES[f.name]
            if not isinstance(v, admitted) or (isinstance(v, bool) and bool not in admitted):
                raise ValidationError(f"{f.name} must be {f.type}, got {v!r}")
            if v is not None and f.name in _RANGES and not _RANGES[f.name][0](v):
                raise ValidationError(f"{f.name} must be {_RANGES[f.name][1]}, got {v!r}")
            if float in admitted and isinstance(v, int):
                setattr(self, f.name, float(v))
        if not isinstance(self.params, _PARAM_TYPES[self.model]):
            what = "a file path" if self.model == "matrix-file" else "a mapping of its couplings"
            raise ValidationError(f"{self.model} model needs {what} in params")
        models = _COMMAND_MODELS.get(self.command, MODELS)
        if self.model not in models:
            raise ValidationError(f"{self.command} expects model {' or '.join(models)}")
        needs_tau = self.command in ("derive", "protocol", "figures") or (
            self.command == "simulate" and self.model != "matrix-file"
        )
        if needs_tau and self.tau is None:
            raise ValidationError(f"command {self.command!r} needs tau in the scenario")
        if self.initial_state is None and self.command in ("simulate", "protocol", "sweep"):
            raise ValidationError(f"command {self.command!r} needs an initial_state in the scenario")
        if self.command == "figures" and self.initial_state not in (None, _FIGURE_STARTS[self.model]):
            raise ValidationError(f"figures on the {self.model} model start in {_FIGURE_STARTS[self.model]!r}")
        if self.command == "protocol" and self.n_steps is None:
            steps_for(self.t_max, self.tau)  # the step count is capped
        if self.command == "sweep":
            self._check_sweep_grid()

    def _check_sweep_grid(self) -> None:
        if self.grid is None:
            raise ValidationError("sweep needs a grid of override mappings")
        known = {f.name for f in dataclasses.fields(self.params)}.union(SWEEP_KEYS)
        for entry in self.grid:
            for key, v in entry.items():
                if key not in known:
                    raise ValidationError(f"unknown sweep key {key!r}")
                if finite_reals([v]) is None or (key in SWEEP_KEYS and not v > 0):
                    raise ValidationError(f"sweep value {key} = {v!r} is not a finite number in range")
        if self.tau is None and "tau" not in self.grid[0]:
            raise ValidationError("sweep needs tau in the scenario or in every grid entry")
        for entry in self.grid if self.with_protocol else ():
            steps_for(float(entry.get("t_max", self.t_max)), float(entry.get("tau", self.tau)))


def _admitted_types(hint) -> tuple:
    """Runtime types a field annotation admits; a float field also takes an int."""
    parts = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    admitted = tuple(typing.get_origin(p) or p for p in parts)
    return admitted + (int,) if float in admitted else admitted


_FIELD_TYPES = {name: _admitted_types(hint) for name, hint in typing.get_type_hints(Scenario).items()}


def scenario_from_json(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ValidationError("scenario must be a JSON mapping")
    known = {f.name for f in dataclasses.fields(Scenario)}
    unknown = set(obj) - known
    if unknown:
        raise ValidationError(f"unknown scenario fields: {sorted(unknown)}")
    missing = {"command", "model", "params"} - set(obj)
    if missing:
        raise ValidationError(f"scenario is missing required fields {sorted(missing)}")
    data = dict(obj)
    model, params = obj["model"], obj["params"]
    if isinstance(params, dict) and model in _SPIN_MODELS:
        try:
            data["params"] = _PARAM_TYPES[model](**params)
        except TypeError as exc:
            raise ValidationError(f"bad couplings for {model} model: {exc}") from exc
    return Scenario(**data)


def read_json(path, what: str):
    """The JSON value in the file at path; `what` names the file in errors."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int too long to parse
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    return scenario_from_json(read_json(path, "scenario"))
