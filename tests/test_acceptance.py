"""End-to-end checks of the package's numbered guarantees.

Each test prints one PASS/FAIL line in the terminal summary (see conftest)
and asserts its own wall-clock budget.  All seeds are frozen so the suite is
deterministic run to run.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np

from helpers import (
    FIG5_REALIZATIONS,
    anisotropic_effective_matrix,
    random_anisotropic_params,
    random_hermitian,
    random_ket,
    random_psd,
    random_symmetric_params,
    symmetric_effective_matrix,
)
from zenon.dilation import (
    choose_tau,
    decay_generator,
    roundtrip_check,
    validate_stroboscopic,
)
from zenon.dynamics import (
    DensityMatrix,
    conditional_trajectory,
    evolve_conditional,
    expectation,
    integrate_nonlinear,
    normalize,
)
from zenon.effective import AncillaSpec, EffectiveHamiltonian, derive_effective
from zenon.entanglement import (
    bell_fidelity,
    block_decompose,
    block_propagator,
    embed_block_state,
    evolve_block_state,
    fig5_rows,
)
from zenon.errors import StroboscopicRegimeWarning
from zenon.linalg import (
    commutator,
    dagger,
    expm,
    frobenius_norm,
    hermitian_eig,
    hermitian_part,
    kron,
    matrix_from_json,
)
from zenon.protocol import ProtocolConfig, conditional_survival_curve, simulate_trajectories, stroboscopic_error
from zenon.spin_models import (
    SIGMA,
    SymmetricParams,
    build_anisotropic,
    build_symmetric,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "roundtrip"

FIG4_PARAMS = SymmetricParams(gamma_xy=0.1, gamma_z=0.5, g_xy=1.0, g_z=0.3)
FIG4_TAU = 0.05  # block rates gamma = 0.2, g = 0.1: the gamma = 2 g regime


def test_criterion_1_effective_generator_exactness():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for _ in range(100):
        tau = float(rng.uniform(0.01, 0.5))
        ps = random_symmetric_params(rng)
        eff_s = derive_effective(build_symmetric(ps), AncillaSpec(), tau)
        worst = max(
            worst,
            float(np.max(np.abs(eff_s.matrix() - symmetric_effective_matrix(ps, tau)))),
        )
        pa = random_anisotropic_params(rng)
        eff_a = derive_effective(build_anisotropic(pa), AncillaSpec(), tau)
        worst = max(
            worst,
            float(np.max(np.abs(eff_a.matrix() - anisotropic_effective_matrix(pa, tau)))),
        )
    assert worst < 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_2_singlet_figure_curves():
    start = time.perf_counter()
    eff = derive_effective(build_symmetric(FIG4_PARAMS), AncillaSpec(), FIG4_TAU)
    rho0 = DensityMatrix.basis_state(4, 1)  # |01>
    t_final = 15.0 / 0.2  # gamma t = 15 with block gamma = 0.2
    _, _, states = conditional_trajectory(eff.matrix(), rho0, t_final, 400)
    final = states[-1]
    assert abs(final[1, 1].real - 0.5) < 1e-5
    assert abs(final[2, 2].real - 0.5) < 1e-5
    assert abs(final[1, 2] - (-0.5)) < 1e-5
    assert bell_fidelity(final, "psi_minus") > 1.0 - 1e-5
    assert time.perf_counter() - start < 1.0


def test_criterion_3_even_sector_figure_curves():
    start = time.perf_counter()
    blocks = {}
    for name, params in FIG5_REALIZATIONS.items():
        eff = derive_effective(build_anisotropic(params), AncillaSpec(), 1.0)
        blocks[name], _ = block_decompose(eff.matrix())
    strong = blocks["c"]
    psi = evolve_block_state(strong, np.array([1.0, 0.0]), 40.0 / strong.mu_x)
    rho = DensityMatrix.from_pure(embed_block_state(psi, "plus"))
    assert bell_fidelity(rho, "phi_plus") > 0.99
    curves = {
        name: np.array([row[1] for row in fig5_rows(block, 40.0, 400)])
        for name, block in blocks.items()
    }
    for a, b in (("a", "b"), ("a", "c"), ("b", "c")):
        assert np.max(np.abs(curves[a] - curves[b])) > 0.05
    assert time.perf_counter() - start < 2.0


def test_criterion_4_stroboscopic_convergence():
    start = time.perf_counter()
    p = SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=2.0, g_z=0.3)
    h = build_symmetric(p)
    rho0 = DensityMatrix.basis_state(4, 1)
    t_total = 1.0  # 1 / gamma_xy
    errors = []
    for tau in (0.01, 0.005, 0.0025):  # g_xy tau = 0.02, 0.01, 0.005
        cfg = ProtocolConfig(
            h=h, spec=AncillaSpec(), tau=tau, n_steps=int(round(t_total / tau))
        )
        errors.append(stroboscopic_error(cfg, rho0))
    assert errors[0] > errors[1] > errors[2] > 0
    assert 2.5 <= errors[0] / errors[1] <= 6.0
    assert 2.5 <= errors[1] / errors[2] <= 6.0
    assert time.perf_counter() - start < 10.0


def test_criterion_5_monte_carlo_consistency():
    start = time.perf_counter()
    p = SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=1.0, g_z=0.3)
    cfg = ProtocolConfig(
        h=build_symmetric(p), spec=AncillaSpec(), tau=0.05, n_steps=200
    )
    rho0 = DensityMatrix.basis_state(4, 1)
    survival = conditional_survival_curve(cfg, rho0)
    p_exact = survival[-1]
    ensemble = simulate_trajectories(survival, n_traj=10_000, seed=20260815)
    p_emp = ensemble.empirical_survival()[-1]
    sigma = np.sqrt(p_exact * (1.0 - p_exact) / 10_000)
    assert abs(p_emp - p_exact) < 4.0 * sigma
    assert time.perf_counter() - start < 30.0


def _characteristic_period(m: np.ndarray) -> float:
    w_h = hermitian_eig(hermitian_part(m)).eigenvalues
    f_h = float(w_h[-1] - w_h[0])
    w_g = hermitian_eig(decay_generator(m)).eigenvalues
    f = float(w_g[-1] - w_g[0])
    return 1.0 / max(f_h, f)


def test_criterion_6_dilation_round_trip():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(42))
    matrices = [
        rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        for _ in range(50)
    ]
    matrices += [
        matrix_from_json(json.loads(path.read_text()))
        for path in sorted(FIXTURES.glob("*.json"))
    ]
    assert len(matrices) == 60
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StroboscopicRegimeWarning)
        for m in matrices:
            w = hermitian_eig(decay_generator(m)).eigenvalues
            f = float(w[-1] - w[0])
            tau = choose_tau(f) if f > 0 else 0.01
            report = roundtrip_check(m, tau)
            assert report.hermitian_residual < 1e-10
            assert report.gamma_residual < 1e-10
            assert report.traceless_residual < 1e-10
            dim = m.shape[0]
            rho0 = DensityMatrix.from_pure(np.ones(dim) / np.sqrt(dim))
            distance = validate_stroboscopic(m, tau, _characteristic_period(m), rho0)
            assert distance < 5e-3
    assert time.perf_counter() - start < 20.0


def test_criterion_7_dynamics_oracle_equivalence():
    start = time.perf_counter()
    for k in range(50):
        rng = np.random.Generator(np.random.PCG64((7000, k)))
        h0 = random_hermitian(rng, 4)
        gamma = random_psd(rng, 4)
        tau = float(rng.uniform(0.05, 0.3))
        t = float(rng.uniform(0.2, 0.8))
        eff = EffectiveHamiltonian(h0=h0, gamma=gamma, tau=tau)
        pure = k % 2 == 0
        if pure:
            rho0 = DensityMatrix.from_pure(random_ket(rng, 4))
        else:
            rho0 = DensityMatrix(
                (lambda m: m / np.trace(m).real)(random_psd(rng, 4) + 0.1 * np.eye(4))
            )
        direct = normalize(evolve_conditional(eff, rho0, t))
        integrated = integrate_nonlinear(eff, rho0, t)
        assert frobenius_norm(integrated.rho - direct.rho) < 1e-6
        if pure:
            assert integrated.purity() > 1.0 - 1e-8
        grid = np.linspace(0.0, t, 12)
        survivals = [evolve_conditional(eff, rho0, float(s)).p for s in grid]
        assert all(b <= a + 1e-12 for a, b in zip(survivals, survivals[1:]))
        obs = random_hermitian(rng, 4)
        raw = np.trace(integrated.rho @ obs)
        assert abs(raw.imag) < 1e-10 * max(1.0, frobenius_norm(obs))
        expectation(integrated, obs)  # enforces the same bound internally
    assert time.perf_counter() - start < 10.0


def test_criterion_8_property_suite():
    start = time.perf_counter()
    dims = (4, 8, 16)
    for k in range(200):
        rng = np.random.Generator(np.random.PCG64((8000, k)))
        dim = dims[k % 3]
        eff = derive_effective(random_hermitian(rng, dim), AncillaSpec(), 0.1)
        w = hermitian_eig(eff.gamma).eigenvalues
        assert w[0] >= -1e-10 * max(1.0, frobenius_norm(eff.gamma))
    for k in range(25):
        rng = np.random.Generator(np.random.PCG64((8100, k)))
        h = random_hermitian(rng, 6)
        for t in (0.5, 5.0):
            u = expm(-1j * t * h)
            assert frobenius_norm(dagger(u) @ u - np.eye(6)) < 1e-10
    for k in range(25):
        rng = np.random.Generator(np.random.PCG64((8200, k)))
        pa = random_anisotropic_params(rng)
        tau = float(rng.uniform(0.01, 0.3))
        m = derive_effective(build_anisotropic(pa), AncillaSpec(), tau).matrix()
        zz = kron(SIGMA["z"], SIGMA["z"])
        assert frobenius_norm(commutator(zz, m)) < 1e-12 * max(1.0, frobenius_norm(m))
        plus, minus = block_decompose(m)
        for block, (i, j) in ((plus, (0, 3)), (minus, (1, 2))):
            sub = m[np.ix_((i, j), (i, j))]
            sub = sub - (np.trace(sub) / 2.0) * np.eye(2)
            for t in (0.4, 1.3):
                direct = expm(-1j * t * sub)
                scale = max(1.0, float(np.max(np.abs(direct))))
                assert (
                    np.max(np.abs(block_propagator(block, t) - direct)) < 1e-10 * scale
                )
    assert time.perf_counter() - start < 10.0
