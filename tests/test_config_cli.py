import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenon.cli
from zenon.cli import load_matrix_file, main, parse_initial_state
from zenon.config import (
    Scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from zenon.dilation import DilationResult
from zenon.dynamics import DensityMatrix
from zenon.effective import AncillaSpec, EffectiveHamiltonian, derive_effective
from zenon.errors import StroboscopicRegimeWarning, ValidationError
from zenon.spin_models import SymmetricParams, build_symmetric

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


@pytest.fixture()
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO)


def test_all_bundled_scenarios_roundtrip():
    paths = sorted(CONFIGS.glob("*.json"))
    assert len(paths) >= 9
    for path in paths:
        s = load_scenario(path)
        again = scenario_from_json(json.loads(json.dumps(scenario_to_json(s))))
        assert again == s, path.name


def test_save_scenario_roundtrip(tmp_path):
    s = load_scenario(CONFIGS / "fig4.json")
    out = tmp_path / "copy.json"
    save_scenario(s, out)
    assert load_scenario(out) == s


def test_scenario_rejections():
    base = {
        "command": "derive",
        "model": "symmetric",
        "params": {"gamma_xy": 0.1, "gamma_z": 0.5, "g_xy": 1.0, "g_z": 0.3},
        "tau": 0.05,
    }
    scenario_from_json(base)  # sanity: the base object is valid
    for mutation in (
        {"bogus_field": 1},
        {"command": "explode"},
        {"model": "heisenberg"},
        {"params": {"gamma_xy": 0.1}},
        {"params": {"gamma_xy": 0.1, "gamma_z": 0.5, "g_xy": 1.0, "g_z": 0.3, "x": 1}},
        {"tau": -0.1},
        {"t_max": 0},
        {"n_samples": 1},
        {"seed": True},
        {"n_traj": "many"},
        {"bell": "psi"},
        {"coherence_pair": [1]},
        {"grid": []},
        {"grid": [{"tau": 0.1}, {"t_max": 1.0}]},
        {"ancilla_site": "1"},
        {"bell": ["x"]},
        {"tau": math.inf},
        {"t_max": math.inf},
        {"output_dir": 5},
        {"with_protocol": "yes"},
        {"coherence_pair": [True, 0]},
        {"output_dir": ""},
        {"tau": 10**400},
        {"params": {"gamma_xy": 10**400, "gamma_z": 0.5, "g_xy": 1.0, "g_z": 0.3}},
        {"initial_state": [10**400, 0, 0, 0]},
        {"command": "figures", "model": "matrix-file", "params": "h.json"},
        {"command": "sweep", "model": "matrix-file", "params": "h.json", "grid": [{"tau": 0.1}]},
    ):
        broken = {**base, **mutation}
        with pytest.raises(ValidationError):
            scenario_from_json(broken)
    with pytest.raises(ValidationError):
        scenario_from_json({"command": "derive", "model": "symmetric"})
    with pytest.raises(ValidationError):  # derive needs tau
        scenario_from_json({k: v for k, v in base.items() if k != "tau"})


def test_scenario_requires_matching_params_type():
    with pytest.raises(ValidationError):
        Scenario(command="derive", model="symmetric", params="not-couplings")
    with pytest.raises(ValidationError):
        Scenario(
            command="derive",
            model="matrix-file",
            params=SymmetricParams(0.1, 0.5, 1.0, 0.3),
        )


def test_load_scenario_bad_files(tmp_path):
    with pytest.raises(ValidationError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(bad)
    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(ValidationError):
        load_scenario(bad)


def test_parse_initial_state_forms():
    dm = parse_initial_state("01", 4)
    assert dm.rho[1, 1] == 1.0
    assert parse_initial_state("mixed", 4).purity() == pytest.approx(0.25)
    amp = parse_initial_state([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], 4)
    assert amp.rho[1, 1] == 1.0
    ket = parse_initial_state([1.0, 1.0], 2)
    assert ket.rho[0, 1] == pytest.approx(0.5)
    bad_pairs = ([[1.0, "x"], 0, 0, 0], [[True, 0.0], 0, 0, 0], [[None, 1.0], 0, 0, 0], [True, 0, 0, 0])
    for bad in (None, "0101", "02", [1.0, 0.0, 0.0], [[1.0]], ["x", "y"], *bad_pairs):
        with pytest.raises(ValidationError):
            parse_initial_state(bad, 4)


def test_cli_derive_writes_loadable_effective(tmp_path, repo_cwd):
    out = tmp_path / "derive"
    assert main(["derive", "--config", "configs/derive_symmetric.json", "--out", str(out)]) == 0
    obj = json.loads((out / "effective.json").read_text())
    eff = EffectiveHamiltonian.from_json(obj)
    s = load_scenario(CONFIGS / "derive_symmetric.json")
    direct = derive_effective(build_symmetric(s.params), AncillaSpec(), s.tau)
    assert np.allclose(eff.h0, direct.h0)
    assert np.allclose(eff.gamma, direct.gamma)
    assert eff.tau == direct.tau


def test_cli_simulate_writes_timeseries(tmp_path, repo_cwd):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", "configs/simulate_symmetric.json", "--out", str(out)]) == 0
    lines = (out / "timeseries.csv").read_text().strip().splitlines()
    s = load_scenario(CONFIGS / "simulate_symmetric.json")
    assert lines[0].startswith("t,p,pop_")
    assert len(lines) == s.n_samples + 1
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(s.t_max)
    assert 0.0 <= last[1] <= 1.0


def test_cli_protocol_deterministic_across_threads(tmp_path, repo_cwd):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    cfg = "configs/protocol_symmetric.json"
    assert main(["protocol", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["protocol", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
    text1 = (out1 / "ensemble.csv").read_text()
    assert text1 == (out2 / "ensemble.csv").read_text()
    lines = text1.strip().splitlines()
    s = load_scenario(CONFIGS / cfg.split("/")[-1])
    assert lines[0] == "step,survivors,p_exact,p_empirical"
    assert len(lines) == s.n_steps + 1
    survivors = [int(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a for a, b in zip(survivors, survivors[1:]))
    final = lines[-1].split(",")
    p_exact, p_emp = float(final[2]), float(final[3])
    sigma = max(np.sqrt(p_exact * (1 - p_exact) / s.n_traj), 1e-6)
    assert abs(p_emp - p_exact) < 5 * sigma


def test_cli_seed_override_changes_protocol_output(tmp_path, repo_cwd):
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    cfg = "configs/protocol_symmetric.json"
    assert main(["protocol", "--config", cfg, "--out", str(out1), "--seed", "99"]) == 0
    assert main(["protocol", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    assert main(["protocol", "--config", cfg, "--out", str(out3), "--seed", "100"]) == 0
    a = (out1 / "ensemble.csv").read_text()
    assert a == (out2 / "ensemble.csv").read_text()
    assert a != (out3 / "ensemble.csv").read_text()


def test_cli_dilate_without_tau_picks_step_from_spectrum(tmp_path, repo_cwd):
    out = tmp_path / "dil"
    assert main(["dilate", "--config", "configs/dilate_random.json", "--out", str(out)]) == 0
    res = DilationResult.from_json(json.loads((out / "dilation.json").read_text()))
    assert res.f > 0
    assert res.tau == pytest.approx(0.01 / res.f)


def test_cli_roundtrip_covers_all_fixtures(tmp_path, repo_cwd):
    out = tmp_path / "rt"
    assert main(["roundtrip", "--config", "configs/roundtrip_fixtures.json", "--out", str(out)]) == 0
    obj = json.loads((out / "roundtrip.json").read_text())
    results = obj["results"]
    assert len(results) == 10
    for entry in results:
        assert entry["tau"] > 0
        assert entry["hermitian_residual"] < 1e-8
        assert entry["traceless_residual"] < 1e-8
        matrix = load_matrix_file(entry["file"])
        assert matrix.shape[0] in (2, 3, 4, 8)


def test_cli_figures_outputs_and_reruns_identically(tmp_path, repo_cwd):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert main(["figures", "--config", "configs/fig4.json", "--out", str(out1)]) == 0
    assert main(["figures", "--config", "configs/fig4.json", "--out", str(out2)]) == 0
    for name in ("fig4a.csv", "fig4b.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()
    pops = (out1 / "fig4a.csv").read_text().strip().splitlines()
    assert pops[0] == "gt_axis,pop10,pop01"
    first = [float(v) for v in pops[1].split(",")]
    assert first == [0.0, 0.0, 1.0]
    last = [float(v) for v in pops[-1].split(",")]
    assert abs(last[1] - 0.5) < 1e-5 and abs(last[2] - 0.5) < 1e-5
    cohs = (out1 / "fig4b.csv").read_text().strip().splitlines()
    last_coh = [float(v) for v in cohs[-1].split(",")]
    assert abs(last_coh[1] + 0.5) < 1e-5

    out5 = tmp_path / "f5"
    assert main(["figures", "--config", "configs/fig5.json", "--out", str(out5)]) == 0
    rows = (out5 / "fig5.csv").read_text().strip().splitlines()
    assert rows[0] == "mxt_axis,pop11,re_coh,im_coh"
    s = load_scenario(CONFIGS / "fig5.json")
    assert len(rows) == s.n_samples + 1


def test_cli_sweep_error_decreases_with_tau(tmp_path, repo_cwd):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", "configs/sweep_tau.json", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["tau", "p", "bell_fidelity", "concurrence", "stroboscopic_error"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    taus = [r[0] for r in rows]
    errors = [r[-1] for r in rows]
    assert taus == sorted(taus, reverse=True)
    assert errors == sorted(errors, reverse=True)
    assert all(e > 0 for e in errors)


def test_cli_sweep_fig5_regimes(tmp_path, repo_cwd):
    out = tmp_path / "regimes"
    assert main(["sweep", "--config", "configs/sweep_fig5_regimes.json", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    fidelities = [float(line.split(",")[-2]) for line in lines[1:]]
    assert max(fidelities) > 0.9  # the strongly damped regime purifies phi_plus


def test_cli_sweep_accepts_grid_keys_in_any_order(tmp_path, repo_cwd):
    scenario = {
        "command": "sweep",
        "model": "symmetric",
        "params": {"gamma_xy": 1.0, "gamma_z": 0.5, "g_xy": 2.0, "g_z": 0.3},
        "initial_state": "01",
        "t_max": 0.2,
        "n_samples": 11,
        "grid": [{"g_xy": 1.0, "tau": 0.05}, {"tau": 0.1, "g_xy": 2.0}],
    }
    cfg = tmp_path / "reordered.json"
    cfg.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["g_xy", "tau"]
    assert [float(v) for v in lines[2].split(",")[:2]] == [2.0, 0.1]


def test_cli_exit_2_on_boolean_coupling(tmp_path, repo_cwd):
    scenario = json.loads((CONFIGS / "derive_symmetric.json").read_text())
    scenario["params"]["gamma_xy"] = True
    cfg = tmp_path / "bool_coupling.json"
    cfg.write_text(json.dumps(scenario))
    assert main(["derive", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_exit_2_on_validation_problems(tmp_path, repo_cwd):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["simulate", "--config", "configs/fig4.json"]) == 2  # command mismatch
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["derive", "--config", str(bad)]) == 2
    hermitian_target = {
        "command": "dilate",
        "model": "matrix-file",
        "params": str(REPO / "fixtures" / "roundtrip" / "hermitian_2x2.json"),
    }
    cfg = tmp_path / "dilate_hermitian.json"
    cfg.write_text(json.dumps(hermitian_target))
    assert main(["dilate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    s = json.loads((CONFIGS / "protocol_symmetric.json").read_text())
    cfg2 = tmp_path / "neg.json"
    cfg2.write_text(json.dumps(s))
    assert main(["protocol", "--config", str(cfg2), "--threads", "0"]) == 2
    assert main(["protocol", "--config", str(cfg2), "--seed", "-1"]) == 2


def test_cli_exit_3_on_numerical_collapse(tmp_path, repo_cwd):
    matrix = {
        "dim": 2,
        "re": [0.0, 0.0, 0.0, 0.0],
        "im": [0.0, 0.0, 0.0, -400.0],
    }
    mpath = tmp_path / "sink.json"
    mpath.write_text(json.dumps(matrix))
    scenario = {
        "command": "simulate",
        "model": "matrix-file",
        "params": str(mpath),
        "initial_state": "1",
        "t_max": 2.0,
        "n_samples": 3,
    }
    cfg = tmp_path / "sink_run.json"
    cfg.write_text(json.dumps(scenario))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_cli_protocol_annihilating_step_writes_zero_survival(tmp_path, repo_cwd):
    # I2 (x) sigma_x at tau = pi/2 flips the ancilla within one step, so
    # <0|U|0> = 0: exact survival and survivor count are 0 on every row
    matrix = {
        "dim": 4,
        "re": [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        "im": [0.0] * 16,
    }
    mpath = tmp_path / "flip.json"
    mpath.write_text(json.dumps(matrix))
    scenario = {
        "command": "protocol",
        "model": "matrix-file",
        "params": str(mpath),
        "tau": float(np.pi / 2),
        "initial_state": "0",
        "n_steps": 5,
        "n_traj": 100,
        "seed": 1,
    }
    cfg = tmp_path / "flip_run.json"
    cfg.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    with pytest.warns(StroboscopicRegimeWarning):
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ensemble.csv").read_text().strip().splitlines()
    assert lines[0] == "step,survivors,p_exact,p_empirical"
    assert len(lines) == 6
    for line in lines[1:]:
        _, survivors, p_exact, p_empirical = line.split(",")
        assert survivors == "0" and p_exact == "0.0" and p_empirical == "0.0"


def test_cli_simulate_accepts_matrix_file_generator(tmp_path, repo_cwd):
    matrix = {
        "dim": 2,
        "re": [0.0, 0.7, 0.7, 0.0],
        "im": [0.0, -0.1, -0.1, -0.4],
    }
    mpath = tmp_path / "gen.json"
    mpath.write_text(json.dumps(matrix))
    scenario = {
        "command": "simulate",
        "model": "matrix-file",
        "params": str(mpath),
        "initial_state": "0",
        "t_max": 3.0,
        "n_samples": 31,
    }
    cfg = tmp_path / "gen_run.json"
    cfg.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "timeseries.csv").read_text().strip().splitlines()
    assert lines[0] == "t,p,pop_0,pop_1,re_coh,im_coh,purity"
    assert len(lines) == 32


# One change to a bundled config per row; each must exit 2 with a
# validation error.  Python's json writes and reads math.inf as Infinity.
MALFORMED_SCENARIOS = [
    ("sweep_tau", {"grid": [{"tau": "x"}]}),
    ("sweep_tau", {"grid": [{"tau": None}]}),
    ("sweep_tau", {"grid": [{"tau": 0.01, "t_max": True}]}),
    ("sweep_tau", {"tau": math.inf, "grid": [{"t_max": 1.0}]}),
    ("sweep_tau", {"with_protocol": "yes"}),
    ("simulate_symmetric", {"t_max": math.inf}),
    ("simulate_symmetric", {"coherence_pair": [True, 0]}),
    ("simulate_symmetric", {"initial_state": [[1, "x"], 0, 0, 0]}),
    ("derive_symmetric", {"ancilla_site": "1"}),
    ("derive_symmetric", {"output_dir": 5}),  # run without --out
    ("fig4", {"bell": ["x"]}),
]


@pytest.mark.parametrize(
    "stem, change",
    MALFORMED_SCENARIOS,
    ids=[f"{stem}-{'-'.join(change)}-{i}" for i, (stem, change) in enumerate(MALFORMED_SCENARIOS)],
)
def test_cli_exit_2_on_malformed_scenario(stem, change, tmp_path, repo_cwd, capsys):
    scenario = json.loads((CONFIGS / f"{stem}.json").read_text())
    scenario.update(change)
    cfg = tmp_path / "malformed.json"
    cfg.write_text(json.dumps(scenario))
    argv = [scenario["command"], "--config", str(cfg)]
    if "output_dir" not in change:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("zenon: validation error")


def test_cli_keeps_the_names_the_benchmark_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    for name in [*workloads.CLI_LAYER_CALLS, "load_matrix_file"]:
        assert hasattr(zenon.cli, name), name


# The JSON kinds each scenario field accepts, as the README documents them.
FIELD_KINDS = {
    "command": {"string"},
    "model": {"string"},
    "params": {"mapping", "string"},
    "tau": {"number", "null"},
    "initial_state": {"string", "list", "null"},
    "t_max": {"number"},
    "n_samples": {"int"},
    "seed": {"int"},
    "output_dir": {"string"},
    "n_traj": {"int"},
    "n_steps": {"int", "null"},
    "grid": {"list", "null"},
    "bell": {"string"},
    "coherence_pair": {"list", "null"},
    "ancilla_site": {"int", "null"},
    "with_protocol": {"bool"},
}


def _json_kinds(v) -> set:
    if isinstance(v, bool):
        return {"bool"}
    if isinstance(v, int):
        return {"int", "number"}
    if isinstance(v, float):
        return {"number"}
    return {{type(None): "null", str: "string", list: "list", dict: "mapping"}[type(v)]}


# Numbers come from small sets, so that sizes (n_samples, n_traj, n_steps,
# t_max/tau, grid rungs) stay small and each example runs in milliseconds;
# sizes without a bound are not what this test probes.
_NUMBERS = st.sampled_from([-1, 0, 1, 2, 3, 5]) | st.sampled_from(
    [0.0, -0.5, 0.05, 0.1, 0.5, 1.0, 2.5, math.inf, -math.inf, math.nan]
)
_TEXT = st.sampled_from(["", "x", "01", "10", "mixed", "symmetric", "matrix-file", "phi_plus", "sweep"])
_KEYS = st.sampled_from(["tau", "t_max", "g_xy", "gamma_z", "alpha_y", "beta_x", "x"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
_BUNDLED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}


def _small_scenario(data, stem: str) -> dict:
    scenario = dict(_BUNDLED[stem])
    if scenario["model"] == "matrix-file":
        scenario["params"] = str(REPO / scenario["params"])
    scenario["n_samples"] = data.draw(st.sampled_from([2, 5, 17]))
    scenario["t_max"] = data.draw(st.sampled_from([0.1, 1.0, 2.0]))
    if "n_traj" in scenario:
        scenario["n_traj"] = data.draw(st.sampled_from([1, 20, 200]))
    if "n_steps" in scenario:
        scenario["n_steps"] = data.draw(st.sampled_from([0, 3, 40]))
    return scenario


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_scenarios_end_in_exit_0_2_or_3(data):
    stem = data.draw(st.sampled_from(sorted(_BUNDLED)))
    scenario = _small_scenario(data, stem)
    fields = data.draw(st.lists(st.sampled_from(sorted(FIELD_KINDS)), min_size=1, max_size=3, unique=True))
    changes = {name: data.draw(_JSON_VALUES, label=name) for name in fields}
    scenario.update(changes)
    wrong_type = any(not _json_kinds(v) & FIELD_KINDS[name] for name, v in changes.items())
    text = json.dumps(scenario)
    try:
        scenario_from_json(json.loads(text))
    except ValidationError:
        pass
    else:
        assert not wrong_type
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        cfg = Path(tmp) / "scenario.json"
        cfg.write_text(text)
        code = main([_BUNDLED[stem]["command"], "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    if wrong_type:
        assert code == 2 and err.getvalue().startswith("zenon: validation error"), err.getvalue()
