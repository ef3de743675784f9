import ast
import contextlib
import dataclasses
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
import zenon.dilation
import zenon.linalg
from helpers import block_matrix, coherence, survival_probability, symmetric_odd_block, transition_probability
from zenon.cli import load_matrix_file, main, parse_initial_state
from zenon.config import Scenario, load_scenario, scenario_from_json
from zenon.dilation import decay_generator
from zenon.dynamics import DensityMatrix, default_time_step
from zenon.effective import AncillaSpec, derive_effective
from zenon.entanglement import block_decompose
from zenon.errors import StroboscopicRegimeWarning, ValidationError
from zenon.linalg import as_hermitian, expm, matrix_from_json
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
        again = scenario_from_json(json.loads(json.dumps(dataclasses.asdict(s))))
        assert again == s, path.name


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
        {"coherence_pair": [1, 1]},
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
    for bad in ("0101", "02", "mixed!", [1.0, 0.0, 0.0], [[1.0]], [0.0] * 8):  # wrong for dimension 4
        with pytest.raises(ValidationError):
            parse_initial_state(bad, 4)
    # the form of the value is Scenario's to check, before any dimension is known
    base = json.loads((CONFIGS / "simulate_symmetric.json").read_text())
    bad_pairs = ([[1.0, "x"], 0, 0, 0], [[True, 0.0], 0, 0, 0], [[None, 1.0], 0, 0, 0], [True, 0, 0, 0])
    for bad in (None, ["x", "y"], 5, {"re": 1}, *bad_pairs):
        with pytest.raises(ValidationError):
            scenario_from_json({**base, "initial_state": bad})


# Kets whose 2-norm under- or overflows a double, each with a ket of the same
# state whose norm does not: the runs must write the same timeseries.csv.
EXTREME_KETS = [
    ([1e200, 0, 0, 1e200], [1, 0, 0, 1]),
    ([1e-170, 0, 0, 1e-170], [1, 0, 0, 1]),
    ([5e-324, 0, 0, 5e-324], [1, 0, 0, 1]),
    ([[3e-310, 4e-310], 0, 0, 0], [[0.6, 0.8], 0, 0, 0]),
    ([[1.7e308, 1.7e308], 0, 0, 0], [[1, 1], 0, 0, 0]),  # a modulus past the double range
]


@pytest.mark.parametrize(
    "ket, same_state", EXTREME_KETS, ids=["1e200", "1e-170", "5e-324", "3e-310+4e-310j", "1.7e308+1.7e308j"]
)
def test_cli_simulate_runs_a_ket_whose_norm_under_or_overflows(ket, same_state, tmp_path, repo_cwd):
    scenario = json.loads((CONFIGS / "simulate_symmetric.json").read_text())
    written = []
    for name, state in (("extreme", ket), ("plain", same_state)):
        scenario["initial_state"] = state
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(scenario))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        written.append((tmp_path / name / "timeseries.csv").read_bytes())
    assert written[0] == written[1]


def test_cli_derive_writes_loadable_effective(tmp_path, repo_cwd):
    out = tmp_path / "derive"
    assert main(["derive", "--config", "configs/derive_symmetric.json", "--out", str(out)]) == 0
    obj = json.loads((out / "effective.json").read_text())
    s = load_scenario(CONFIGS / "derive_symmetric.json")
    direct = derive_effective(build_symmetric(s.params), AncillaSpec(), s.tau)
    assert np.allclose(matrix_from_json(obj["h0"]), direct.h0)
    assert np.allclose(matrix_from_json(obj["gamma"]), direct.gamma)
    assert obj["tau"] == direct.tau


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
    res = json.loads((out / "dilation.json").read_text())
    assert res["f"] > 0
    assert res["tau"] == pytest.approx(0.01 / res["f"])


@pytest.mark.parametrize("command", ["dilate", "roundtrip"])
def test_cli_dilation_overflow_is_a_numerical_error(command, tmp_path, capsys):
    # c + w / tau overflows: a decay spread of 2e160 gives tau = 5e-163
    matrix = tmp_path / "huge.json"
    matrix.write_text(json.dumps({"dim": 2, "re": [1e160, 1e160, 1e160, 0.0], "im": [-1e160, 0.0, 0.0, 0.0]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "model": "matrix-file", "params": str(matrix)}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "overflows" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, tau", [("dilate", None), ("dilate", 0.1), ("roundtrip", None)])
def test_cli_decay_generator_overflow_is_a_numerical_error(command, tau, tmp_path, capsys):
    # i (M - M^dag) overflows: its (0, 0) entry is i (-2e308 i), past the double range
    matrix = tmp_path / "huge.json"
    matrix.write_text(json.dumps({"dim": 2, "re": [1e308, 1e308, 1e308, 0.0], "im": [-1e308, 0.0, 0.0, 0.0]}))
    cfg = tmp_path / "cfg.json"
    scenario = {"command": command, "model": "matrix-file", "params": str(matrix)}
    cfg.write_text(json.dumps(scenario if tau is None else {**scenario, "tau": tau}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "decay generator i (H_eff - H_eff^dag) overflows" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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


@pytest.mark.parametrize("command, config", [("roundtrip", "roundtrip_fixtures"), ("dilate", "dilate_random")])
def test_cli_dilation_makes_one_eigh_of_each_decay_generator(command, config, tmp_path, repo_cwd, monkeypatch):
    s = load_scenario(CONFIGS / f"{config}.json")
    assert command != "dilate" or s.tau is None  # the step is picked from the spectrum
    paths = sorted(Path(s.params).glob("*.json")) if command == "roundtrip" else [Path(s.params)]
    decay = {}
    for p in paths:
        decay.setdefault(as_hermitian(decay_generator(load_matrix_file(p))).tobytes(), []).append(p.name)
    calls = []
    hermitian_eig = zenon.dilation.hermitian_eig  # one eigh; the Gamma gate of the re-derivation is not one

    def counting(a):
        calls.extend(decay.get(as_hermitian(a).tobytes(), ["other"]))
        return hermitian_eig(a)

    monkeypatch.setattr(zenon.dilation, "hermitian_eig", counting)
    assert main([command, "--config", f"configs/{config}.json", "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == sorted(p.name for p in paths)


@pytest.mark.parametrize("command", ["dilate", "roundtrip"])
def test_cli_dilates_a_decay_generator_whose_hermitian_sum_overflows(command, tmp_path, capsys):
    # i (M - M^dag) = diag(1.5e308, 1.5e308) fits a double; M + M^dag's sum on the way does not
    matrix = tmp_path / "big.json"
    matrix.write_text(json.dumps({"dim": 2, "re": [0.0] * 4, "im": [-0.75e308, 0.0, 0.0, -0.75e308]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "model": "matrix-file", "params": str(matrix), "tau": 2.0}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy overflow warning would make main exit 3
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    if command == "dilate":
        h = matrix_from_json(json.loads((out / "dilation.json").read_text())["H"])
        assert np.isfinite(h).all() and h[0, 1] == math.sqrt(0.75e308)  # R = sqrt(G / tau)
    else:
        [entry] = json.loads((out / "roundtrip.json").read_text())["results"]
        assert entry["tau"] == 2.0 and entry["gamma_residual"] == 0.0


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


def test_cli_sweep_validates_its_scenario_once(tmp_path, monkeypatch):
    # a grid point builds its model from the couplings alone; a Scenario per
    # point would walk the whole grid again each time, O(G^2) per sweep
    scenario = json.loads((CONFIGS / "sweep_fig5_regimes.json").read_text())
    scenario.update(
        grid=[{"alpha_y": 1 + k * 1e-3} for k in range(50)],
        n_samples=20,
        t_max=4,
        output_dir=str(tmp_path / "out"),
    )
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(scenario))
    calls = []
    check = Scenario.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(Scenario, "__post_init__", counted)
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(calls) == 1
    assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 51


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
    # <0|U|0> = cos(fl(pi/2)) I = 6.1e-17 I: exact survival is below
    # 1e-30 per step and the survivor count is 0 on every row
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
        step, survivors, p_exact, p_empirical = line.split(",")
        assert survivors == "0" and 0 <= float(p_exact) <= 1e-30 ** int(step) and p_empirical == "0.0"


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


def test_cli_simulate_exit_2_when_the_start_has_no_default_coherence_partner(tmp_path, repo_cwd, capsys):
    # a 3x3 generator from the middle basis state: (1, 1) would write pop_1
    # as re_coh, so the run stops before the chain and asks for a pair
    matrix = {"dim": 3, "re": [0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0], "im": [-0.1, 0, 0, 0, -0.2, 0, 0, 0, -0.3]}
    mpath = tmp_path / "three.json"
    mpath.write_text(json.dumps(matrix))
    scenario = {
        "command": "simulate",
        "model": "matrix-file",
        "params": str(mpath),
        "initial_state": [0, 1, 0],
        "t_max": 2.0,
        "n_samples": 5,
    }
    cfg = tmp_path / "middle.json"
    cfg.write_text(json.dumps(scenario))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zenon: validation error") and "coherence_pair" in err
    assert not (out / "timeseries.csv").exists()
    cfg.write_text(json.dumps({**scenario, "coherence_pair": [0, 2]}))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "timeseries.csv").read_text().splitlines()]
    assert rows[0] == ["t", "p", "pop_0", "pop_1", "pop_2", "re_coh", "im_coh", "purity"]
    assert len(rows) == 6 and all(row[5] != row[3] for row in rows[2:])


def test_cli_simulate_checks_an_explicit_coherence_pair_before_the_chain(tmp_path, repo_cwd, monkeypatch, capsys):
    # index 9 of a 4x4 state: the run stops before the 200 000-sample chain
    scenario = json.loads((CONFIGS / "simulate_symmetric.json").read_text())
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps({**scenario, "n_samples": 200_000, "coherence_pair": [0, 9]}))

    def chain(*args):
        raise AssertionError("the chain ran before the coherence pair was checked")

    monkeypatch.setattr(zenon.cli, "conditional_trajectory", chain)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zenon: validation error") and "coherence_pair" in err
    assert not (out / "timeseries.csv").exists()


def test_cli_protocol_factors_its_start_state_with_one_eigh_and_no_second_gate(tmp_path, repo_cwd, monkeypatch):
    # |01><01| passes its one Hermiticity and PSD gate when parse_initial_state
    # builds it; after that the run makes one eigh of it (state_factor's) and
    # checks it no more
    start = DensityMatrix.basis_state(4, 1).rho
    built, eighs, gates = [], [], []
    parse, eigh, gate = zenon.cli.parse_initial_state, np.linalg.eigh, zenon.linalg.as_hermitian

    def is_start(a):
        return bool(built) and np.shape(a) == start.shape and np.array_equal(a, start)

    def parsing(value, dim):
        built.append(parse(value, dim))
        return built[-1]

    def counting_eigh(a, *args, **kwargs):
        eighs.extend([a] if is_start(a) else [])
        return eigh(a, *args, **kwargs)

    def counting_gate(a):
        gates.extend([a] if is_start(a) else [])
        return gate(a)

    monkeypatch.setattr(zenon.cli, "parse_initial_state", parsing)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(zenon.linalg, "as_hermitian", counting_gate)
    assert main(["protocol", "--config", "configs/protocol_symmetric.json", "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 1 and np.array_equal(built[0].rho, start)
    assert len(eighs) == 1 and eighs[0] is built[0].rho
    assert not gates


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
    ("protocol_symmetric", {"n_steps": 10**6 + 1}),  # above protocol.MAX_PROTOCOL_STEPS
    # t_max / tau overflows to inf: a step count above the cap too
    ("protocol_symmetric", {"t_max": 1e300, "tau": 1e-300, "n_steps": None}),
    ("sweep_tau", {"grid": [{"tau": 0.01, "t_max": 1.0}, {"tau": 1e-300, "t_max": 1e300}], "with_protocol": True}),
    ("protocol_symmetric", {"n_traj": 10**12}),  # above protocol.MAX_TRAJECTORIES
    ("protocol_symmetric", {"n_traj": 10**30}),
    # figures start in their block's first basis state, |01> or |00>
    ("fig4", {"initial_state": "10"}),
    ("fig4", {"initial_state": [1, 0, 0, 0]}),
    ("fig4", {"initial_state": "00"}),
    ("fig5", {"initial_state": "01"}),
    ("simulate_symmetric", {"coherence_pair": [2, 2]}),  # a population, not a coherence
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


# Matrix files whose numbers break the rule a scenario's numbers obey.
NON_REAL_MATRICES = {
    "string": {"dim": 2, "re": ["x", 0, 0, 0], "im": [0, 0, 0, 0]},
    "boolean": {"dim": 2, "re": [True, False, False, True], "im": [0, 0, 0, 0]},
    "string_dim": {"dim": "2", "re": [0, 1, 1, 0], "im": [0, 0, 0, 0]},
    "fractional_dim": {"dim": 2.5, "re": [0, 1, 1, 0], "im": [0, 0, 0, 0]},
}


@pytest.mark.parametrize("name", list(NON_REAL_MATRICES))
def test_cli_exit_2_on_matrix_file_number_that_is_not_a_finite_real(name, tmp_path, repo_cwd, capsys):
    mpath = tmp_path / "matrix.json"
    mpath.write_text(json.dumps(NON_REAL_MATRICES[name]))
    scenario = {
        "command": "simulate",
        "model": "matrix-file",
        "params": str(mpath),
        "initial_state": "0",
        "t_max": 1.0,
        "n_samples": 3,
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(scenario))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("zenon: validation error")


def _fig4_curves(out_dir: Path) -> list[tuple[float, float, float, complex]]:
    """(gt, pop10, pop01, coh) per sample of fig4a.csv and fig4b.csv."""
    pops = [row.split(",") for row in (out_dir / "fig4a.csv").read_text().splitlines()[1:]]
    cohs = [row.split(",") for row in (out_dir / "fig4b.csv").read_text().splitlines()[1:]]
    assert [p[0] for p in pops] == [c[0] for c in cohs]
    return [
        (float(gt), float(p10), float(p01), complex(float(re), float(im)))
        for (gt, p10, p01), (_, re, im) in zip(pops, cohs)
    ]


def _closed_form_gap(curves, gamma: float, g: float) -> float:
    """Largest distance of the fig4 curves from the odd block's closed forms."""
    gaps = [0.0]
    for gt, pop10, pop01, coh in curves:
        t = gt / gamma
        gaps.append(abs(pop10 - transition_probability(gamma, g, t)))
        gaps.append(abs(pop01 - survival_probability(gamma, g, t)))
        gaps.append(abs(coh - coherence(gamma, g, t)))
    return max(gaps)


def test_cli_fig4_matches_the_closed_forms(tmp_path, repo_cwd):
    assert main(["figures", "--config", "configs/fig4.json", "--out", str(tmp_path)]) == 0
    s = load_scenario(CONFIGS / "fig4.json")
    curves = _fig4_curves(tmp_path)
    assert len(curves) == s.n_samples
    assert _closed_form_gap(curves, *symmetric_odd_block(s.params, s.tau)) < 1e-14


def test_cli_figures_runs_without_an_initial_state(tmp_path, repo_cwd):
    for stem, names in (("fig4", ("fig4a.csv", "fig4b.csv")), ("fig5", ("fig5.csv",))):
        scenario = json.loads((CONFIGS / f"{stem}.json").read_text())
        del scenario["initial_state"]
        cfg = tmp_path / f"{stem}.json"
        cfg.write_text(json.dumps(scenario))
        assert main(["figures", "--config", str(cfg), "--out", str(tmp_path / stem)]) == 0
        for name in names:
            golden = REPO / "tests" / "golden" / stem / name
            assert (tmp_path / stem / name).read_bytes() == golden.read_bytes(), name


@pytest.mark.parametrize("gamma_z, g_z", [(-0.1, 1.0), (0.3, 2.0**23)])
def test_cli_fig4_reads_a_rounding_omega_as_zero(gamma_z, g_z, tmp_path, repo_cwd):
    # These couplings round the two odd-sector diagonal entries differently, so the
    # derived Omega is the rounding of the generator's entries (5.6e-17 and 4.7e-10),
    # not exactly 0.  fig4 evolves the derived block with that Omega, valid input
    # that must exit 0; its curves are the block's exact evolution (the package's
    # expm, an independent route), and at g_z = 1 also the Omega = 0 closed forms.
    scenario = json.loads((CONFIGS / "fig4.json").read_text())
    scenario["params"].update(gamma_z=gamma_z, g_z=g_z)
    cfg = tmp_path / "fig4_rounding.json"
    cfg.write_text(json.dumps(scenario))
    assert main(["figures", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    s = load_scenario(cfg)
    _, minus = block_decompose(derive_effective(build_symmetric(s.params), AncillaSpec(), s.tau).matrix())
    assert minus.omega_z != 0
    curves = _fig4_curves(tmp_path / "o")
    for gt, pop10, pop01, coh in curves:
        psi = expm(-1j * (gt / minus.mu_x) * block_matrix(minus))[:, 0]
        psi = psi / np.linalg.norm(psi)
        assert abs(pop01 - abs(psi[0]) ** 2) < 1e-14 and abs(pop10 - abs(psi[1]) ** 2) < 1e-14
        assert abs(coh - psi[0] * psi[1].conj()) < 1e-14
    if g_z == 1.0:
        assert _closed_form_gap(curves, *symmetric_odd_block(s.params, s.tau)) < 1e-14


# One finite value per row, large enough that the numerics overflow: a
# run-time failure (exit 3), never bad input and never an uncaught error.
# Each row names what its message must say.
OVERFLOWING_SCENARIOS = [
    ("derive_symmetric", {"g_xy": 1e200}, "Gamma = B B^dag overflows"),
    ("simulate_symmetric", {"t_max": 1e300}, "Frobenius norm inf"),
    ("fig4", {"g_xy": 1e300}, "Gamma = B B^dag overflows"),
    ("protocol_symmetric", {"g_xy": 1e300}, "not resolved in double precision"),
]


@pytest.mark.parametrize(
    "stem, change, says", OVERFLOWING_SCENARIOS, ids=[stem for stem, _, _ in OVERFLOWING_SCENARIOS]
)
def test_cli_exit_3_on_overflow_from_finite_inputs(stem, change, says, tmp_path, repo_cwd, capsys):
    scenario = json.loads((CONFIGS / f"{stem}.json").read_text())
    for key, v in change.items():
        (scenario["params"] if key in scenario["params"] else scenario)[key] = v
    cfg = tmp_path / "overflowing.json"
    cfg.write_text(json.dumps(scenario))
    with warnings.catch_warnings(record=True) as caught:  # what the command line prints on stderr
        warnings.simplefilter("always")
        assert main([scenario["command"], "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("zenon: numerical error:") and says in err


def test_cli_protocol_exit_3_on_a_spectrum_past_the_double_range_prints_no_runtime_warning(
    tmp_path, repo_cwd, capsys
):
    # gamma_z = 1e308: the builder's sums stay finite, the spectrum's spread
    # overflows; the step phase is reported, numpy's overflow is not printed
    scenario = json.loads((CONFIGS / "protocol_symmetric.json").read_text())
    scenario["params"]["gamma_z"] = 1e308
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(scenario))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("zenon: numerical error:") and "not resolved in double precision" in err


@pytest.mark.parametrize("stem", ["derive_symmetric", "protocol_symmetric"])
def test_cli_exit_3_names_the_bond_of_a_spin_hamiltonian_that_overflows(stem, tmp_path, repo_cwd, capsys):
    # every symmetric coupling at 1e308: the pair's x and y bonds add to 2e308
    # on half their entries, an overflow, never a Hamiltonian "not Hermitian"
    scenario = json.loads((CONFIGS / f"{stem}.json").read_text())
    scenario["params"] = {key: 1e308 for key in scenario["params"]}
    cfg = tmp_path / "overflowing.json"
    cfg.write_text(json.dumps(scenario))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([scenario["command"], "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("zenon: numerical error:") and "overflows the double range at bond (1, 2) y" in err


@pytest.mark.parametrize("g_xy", [1e80, 1e100, 1e150, 1e160])
def test_cli_derive_past_the_squared_double_range_is_finite_or_names_the_overflow(g_xy, tmp_path, repo_cwd, capsys):
    # Gamma's entries pass 1e154 from g_xy = 1e77 on, so its sum of squares
    # overflows while its norm need not; the gates once read inf <= inf there
    scenario = json.loads((CONFIGS / "derive_symmetric.json").read_text())
    scenario["params"]["g_xy"] = g_xy
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(scenario))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["derive", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 0:
        eff = json.loads((tmp_path / "o" / "effective.json").read_text())
        values = [x for name in ("h0", "gamma") for part in ("re", "im") for x in eff[name][part]]
        assert all(map(math.isfinite, values)) and max(values) > 1e150
    else:
        assert code == 3 and "overflows" in capsys.readouterr().err
    assert code == (0 if g_xy <= 1e150 else 3)


def test_cli_protocol_at_a_huge_coupling_warns_briefly_and_exits_3(tmp_path, repo_cwd, capsys):
    scenario = json.loads((CONFIGS / "protocol_symmetric.json").read_text())
    scenario["params"]["g_xy"] = 1e300
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(scenario))
    with pytest.warns(StroboscopicRegimeWarning) as record, np.errstate(over="ignore", invalid="ignore"):
        assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    messages = [str(w.message) for w in record if w.category is StroboscopicRegimeWarning]
    assert messages and all(len(m) < 200 for m in messages)
    assert capsys.readouterr().err.startswith("zenon: numerical error:")


def test_step_count_cap_is_checked_at_load_on_every_protocol_rung():
    sweep = json.loads((CONFIGS / "sweep_tau.json").read_text())
    sweep["grid"] = [{"tau": 0.01}, {"tau": 1e-300}]
    with pytest.raises(ValidationError, match="steps"):
        scenario_from_json(sweep)
    sweep["with_protocol"] = False  # then no rung runs the protocol
    scenario_from_json(sweep)


def test_cli_keeps_the_names_the_benchmark_wraps():
    # perfbench wraps each CLI_LAYER_CALLS name in zenon.cli's namespace by
    # attribute; a name that cli.py drops, or no longer uses inside a
    # function, fails every traced iteration or times nothing.  The table is
    # read with ast, so perfbench is neither imported nor changed.
    workloads = ast.parse((REPO / "perfbench" / "workloads.py").read_text())
    table = next(
        node.value
        for node in workloads.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CLI_LAYER_CALLS"]
    )
    cli = ast.parse(Path(zenon.cli.__file__).read_text())
    used = {
        node.id
        for func in ast.walk(cli)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name)
    }
    names = [ast.literal_eval(key) for key in table.keys]
    assert names
    for name in [*names, "load_matrix_file"]:
        assert hasattr(zenon.cli, name) and name in used, name


def test_benchmark_counts_one_rk4_step_per_four_rhs_calls(monkeypatch, tmp_path):
    # the paper_suite step counter profiles calls of a function named rhs
    # in zenon.dynamics; a rename or a changed stage count must fail here
    # rather than read a wrong count
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    suite = workloads.PaperSuite(tmp_path)
    # full steps of default_time_step plus one shorter remainder step
    steps = sum(math.ceil(t / default_time_step(eff)) for eff, _, t in suite.cases)
    assert suite.counts()["dynamics.rk4_steps"] == steps


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
# sizes without a bound are not what this test probes, except a tau of
# 1e-300, whose protocol step count t_max / tau must be rejected at load.
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
    if "tau" in scenario:
        scenario["tau"] = data.draw(st.sampled_from([scenario["tau"]] * 3 + [1e-300]))
    if "n_steps" in scenario:
        scenario["n_steps"] = data.draw(st.sampled_from([0, 3, 40, None]))
    return scenario


@settings(max_examples=40, deadline=None)
@given(
    stem=st.sampled_from(["protocol_symmetric", "sweep_tau", "sweep_fig5_regimes"]),
    tau=st.floats(1e-300, 1e-6, exclude_max=True),
    t_max=st.floats(2.0, 1e3),
)
def test_fuzzed_step_counts_above_the_cap_exit_2_at_load(stem, tau, t_max):
    # t_max / tau > 2e6 protocol steps: rejected before any numerics, not run
    scenario = dict(_BUNDLED[stem], t_max=t_max, n_steps=None, with_protocol=True)
    if stem == "sweep_tau":
        scenario["grid"] = [{"tau": 0.01}, {"tau": tau}]
    else:
        scenario["tau"] = tau
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = Path(tmp) / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        code = main([scenario["command"], "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code == 2 and "steps" in err.getvalue(), err.getvalue()


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
