import math
import os
import re
import sys
from pathlib import Path
import tracemalloc
import warnings

import numpy as np
import pytest

import zenon.cli
import zenon.linalg
import zenon.protocol
from helpers import (
    counting_kernels,
    curve_sorting_trajectories,
    eigh_route_step,
    kraus_step,
    percell_csv,
    random_hermitian,
    random_ket,
    sorting_trajectories,
    stepwise_trajectories,
    taylor_expm,
)
from zenon.dynamics import DensityMatrix, evolve_conditional, normalize
from zenon.effective import AncillaSpec, derive_effective, kraus_from_series
from zenon.errors import (
    BadDimensionError,
    NumericalError,
    ProbabilityUnderflowError,
    StroboscopicRegimeWarning,
    ValidationError,
)
from zenon.linalg import CSV_PART_MIN_ROWS, EIGVALSH_MIN_DIM, frobenius_norm, hermitian_eig, kron
from zenon.protocol import (
    MAX_PROTOCOL_STEPS,
    MAX_TRAJECTORIES,
    MC_CHUNK,
    ProtocolConfig,
    TrajectoryEnsemble,
    conditional_survival_curve,
    simulate_conditional,
    simulate_trajectories,
    steps_for,
    stroboscopic_error,
    write_ensemble_csv,
)
from zenon.spin_models import SymmetricParams, build_symmetric


def _cfg(n_steps=20, tau=0.05, params=None):
    p = params or SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=1.0, g_z=0.3)
    return ProtocolConfig(h=build_symmetric(p), spec=AncillaSpec(), tau=tau, n_steps=n_steps)


@pytest.mark.parametrize("tau", [0.0, math.nan])
def test_protocol_config_on_a_spectrum_past_the_double_range_warns_no_runtime_warning(tau):
    # gamma_z = 1e308 keeps H finite but spreads its spectrum past the double
    # range: tau times the spread is inf, or NaN at tau = 0; the bad tau is
    # reported by kraus_from_eig, and numpy's arithmetic prints nothing
    params = SymmetricParams(gamma_xy=1.0, gamma_z=1e308, g_xy=1.0, g_z=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="^tau must be positive"):
            _cfg(tau=tau, params=params)


def test_protocol_config_validation():
    with pytest.raises(ValidationError):
        ProtocolConfig(h=np.array([[0, 1], [0, 0]]), spec=AncillaSpec(), tau=0.1, n_steps=1)
    for tau in (0.0, -0.1, math.nan, math.inf):  # checked before either route or the warning reads tau
        with pytest.raises(ValidationError, match="^tau must be positive"):
            ProtocolConfig(h=np.eye(4), spec=AncillaSpec(), tau=tau, n_steps=1)
    with pytest.raises(ValidationError):
        ProtocolConfig(h=np.eye(4), spec=AncillaSpec(), tau=0.1, n_steps=-1)
    with pytest.raises(BadDimensionError):
        ProtocolConfig(h=np.eye(5), spec=AncillaSpec(), tau=0.1, n_steps=1)


@pytest.mark.parametrize("dim", [4, 2 * EIGVALSH_MIN_DIM])
def test_protocol_config_refuses_an_infinite_tau_before_the_regime_warning(dim):
    # a spread-out spectrum: tau = inf would read as a Bohr spread past 1
    h = random_hermitian(np.random.Generator(np.random.PCG64(dim)), dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StroboscopicRegimeWarning)
        with pytest.raises(ValidationError, match="^tau must be positive, got inf"):
            ProtocolConfig(h=h, spec=AncillaSpec(), tau=math.inf, n_steps=1)


@pytest.mark.parametrize("n_steps", [2.5, True, np.float64(3.0), 3.0, "3"])
def test_protocol_config_rejects_a_step_count_that_is_not_an_int(n_steps):
    with pytest.raises(ValidationError, match="^n_steps must be an int"):
        ProtocolConfig(h=np.eye(4), spec=AncillaSpec(), tau=0.1, n_steps=n_steps)
    cfg = ProtocolConfig(h=np.eye(4), spec=AncillaSpec(), tau=0.1, n_steps=np.int64(3))
    assert abs(simulate_conditional(cfg, DensityMatrix.basis_state(2, 0)).p - 1.0) < 1e-12


def test_step_count_is_capped():
    for t, tau in ((4.0, 1e-300), (1e300, 1e-300), (math.inf, math.inf)):  # t / tau > cap, inf, NaN
        with pytest.raises(ValidationError):
            steps_for(t, tau)
    assert steps_for(1.0, 1.0 / MAX_PROTOCOL_STEPS) == MAX_PROTOCOL_STEPS
    with pytest.raises(ValidationError):
        ProtocolConfig(h=np.eye(4), spec=AncillaSpec(), tau=0.1, n_steps=MAX_PROTOCOL_STEPS + 1)
    assert ProtocolConfig(h=np.eye(4), spec=AncillaSpec(), tau=0.1, n_steps=MAX_PROTOCOL_STEPS).n_steps == MAX_PROTOCOL_STEPS


def test_protocol_config_kraus_is_kraus_step_bit_for_bit():
    h = _cfg().h
    for spec in (AncillaSpec(), AncillaSpec(ancilla_site=2)):
        cfg = ProtocolConfig(h=h, spec=spec, tau=0.07, n_steps=3)
        assert np.array_equal(cfg.kraus, kraus_step(cfg.h, cfg.spec, cfg.tau))


def test_protocol_makes_one_eigh_of_the_composite_and_no_expm(monkeypatch):
    calls = {"eigh": 0, "expm": 0}
    eigh, expm = np.linalg.eigh, zenon.linalg.expm

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"] += a.shape == (8, 8)  # the composite, not the 4x4 system
        return eigh(a, *args, **kwargs)

    def counting_expm(a):
        calls["expm"] += 1
        return expm(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for name, module in list(sys.modules.items()):
        if name.startswith("zenon") and hasattr(module, "expm"):
            monkeypatch.setattr(module, "expm", counting_expm)
    cfg = _cfg(n_steps=30)
    simulate_conditional(cfg, _MIXED)
    simulate_trajectories(conditional_survival_curve(cfg, _MIXED), n_traj=50, seed=3)
    assert calls == {"eigh": 1, "expm": 0}


@pytest.mark.parametrize(
    "system_dim, scale", [(4, 1.0), (EIGVALSH_MIN_DIM, 1.0), (EIGVALSH_MIN_DIM, 0.25)], ids=["4", "32", "32-series"]
)
def test_checks_read_eigenvalues_only_and_the_protocol_config_one_eigh_of_the_composite(system_dim, scale, monkeypatch):
    if system_dim == 4:  # the bundled sizes: an 8x8 composite
        h = build_symmetric(SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=1.0, g_z=0.3))
    else:
        h = scale * random_hermitian(np.random.Generator(np.random.PCG64(64)), 2 * system_dim)
    # at full scale the series certificate refuses (2 ||Y^4||_F^(1/4) = 1.06
    # although tau * spread = 0.84); at a quarter it certifies the step
    assert (kraus_from_series(h, AncillaSpec(), 0.05) is None) == (scale == 1.0)
    calls = counting_kernels(monkeypatch, ("eigh", "eigvalsh", "cholesky"))
    eff = derive_effective(h, AncillaSpec(), 0.05)  # checks gamma
    DensityMatrix(np.eye(system_dim, dtype=complex) / system_dim)
    normalize(evolve_conditional(eff, DensityMatrix.basis_state(system_dim, 1), 0.5))
    ProtocolConfig(h=h, spec=AncillaSpec(), tau=0.05, n_steps=10)  # checks ||K||_2
    composite, system = (2 * system_dim,) * 2, (system_dim,) * 2
    if scale < 1.0:
        # the series route builds the step from products alone: no composite
        # eigh or eigvalsh, only the ||K||_2 certificate
        assert calls == [("cholesky", system)] * 5
    elif system_dim >= EIGVALSH_MIN_DIM:
        # the Gamma, density-matrix and ||K||_2 checks are settled by Cholesky
        # certificates, with no eigenvalue read; the one eigh is the
        # composite's, whose vectors build the step
        assert calls == [("cholesky", system)] * 4 + [("eigh", composite), ("cholesky", system)]
    else:
        # below EIGVALSH_MIN_DIM the same checks read eigh's eigenvalues, and
        # no factorization runs
        assert calls == [("eigh", system)] * 4 + [("eigh", composite), ("eigh", system)]


def _step_outcome(make):
    """(every warning as (category, message), then K's bytes or the type and
    message of what make() raised)."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            result = make().tobytes()
        except Exception as exc:  # noqa: BLE001 - the outcome is the exception itself
            result = (type(exc), str(exc))
    return [(w.category, str(w.message)) for w in record], result


def _far_mean(h):
    """One level 0.9 above d - 1 at 0: tau * spread = 0.9 at tau = 1, but
    ||Y||_2 = 0.9 (1 - 1/d) about the mean, so no bound on it certifies."""
    v = np.linalg.eigh(h)[1]
    return (v * np.r_[np.zeros(len(h) - 1), 0.9]) @ v.conj().T, 1.0


def _with_entry(h, value):
    h = h.copy()
    h[3, 5] = value
    return h


_FALLBACKS = {
    "warns": lambda h: (h, 0.12),
    "far_mean": _far_mean,
    "tau_zero": lambda h: (h, 0.0),
    "tau_negative": lambda h: (h, -0.01),
    "tau_nan": lambda h: (h, math.nan),
    "tau_inf": lambda h: (h, math.inf),
    "nan_entry": lambda h: (_with_entry(h, math.nan), 0.05),
    "inf_entry": lambda h: (_with_entry(h, math.inf), 0.05),
    "phase_past_series": lambda h: (h + 1e8 * np.eye(len(h)), 0.05),  # tau c = 5e6 > 2^20: the phase is eigh's
    "phase_unresolved": lambda h: (h + 1e18 * np.eye(len(h)), 0.05),  # tau |w| >= 2^53: eigh's error
    "overflowing_entries": lambda h: (1e308 * h, 0.05),
}


@pytest.mark.parametrize("case", sorted(_FALLBACKS))
@pytest.mark.parametrize("site", [None, 2])
def test_protocol_config_leaves_every_uncertified_input_to_the_eigh_route(case, site):
    # from dimension 32 on, wherever the series route does not certify the
    # step, ProtocolConfig warns, raises and returns K as its eigh route does
    h, tau = _FALLBACKS[case](random_hermitian(np.random.Generator(np.random.PCG64(30)), 2 * EIGVALSH_MIN_DIM))
    spec = AncillaSpec(ancilla_site=site)
    got = _step_outcome(lambda: ProtocolConfig(h=h, spec=spec, tau=tau, n_steps=3).kraus)
    assert got == _step_outcome(lambda: eigh_route_step(h, spec, tau))
    regime = [m for category, m in got[0] if category is StroboscopicRegimeWarning]
    if case == "warns":
        assert regime and isinstance(got[1], bytes)
    if case in ("far_mean", "phase_past_series"):
        assert not regime and isinstance(got[1], bytes)
        assert kraus_from_series(h, spec, tau) is None


def test_protocol_config_series_route_peaks_below_the_eigh_route(monkeypatch):
    # the dense_composite size: Y^4's norm is summed a row block at a time and
    # Horner holds two d x d/2 buffers, so the series route stays under the
    # eigh route's V, V_0 and V_0 diag(phi) (16.0 MB at dimension 512)
    h = random_hermitian(np.random.Generator(np.random.PCG64(512)), 512)
    w = np.linalg.eigvalsh(h)
    tau = 0.2 / (w[-1] - w[0])
    assert kraus_from_series(h, AncillaSpec(), tau) is not None

    def peak():
        tracemalloc.start()
        try:
            k = ProtocolConfig(h=h, spec=AncillaSpec(), tau=tau, n_steps=3).kraus
            return tracemalloc.get_traced_memory()[1], k
        finally:
            tracemalloc.stop()

    series_peak, k_series = peak()
    monkeypatch.setattr(zenon.protocol, "kraus_from_series", lambda h, spec, tau: None)
    eigh_peak, k_eigh = peak()
    assert series_peak <= eigh_peak
    assert frobenius_norm(k_series - k_eigh) <= 1e-15 * frobenius_norm(k_eigh)


def test_protocol_config_regime_warning_stays_short_at_huge_couplings():
    h = build_symmetric(SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=1e300, g_z=0.3))
    with pytest.warns(StroboscopicRegimeWarning) as record, pytest.raises(NumericalError):
        with np.errstate(over="ignore", invalid="ignore"):
            ProtocolConfig(h=h, spec=AncillaSpec(), tau=0.05, n_steps=10)
    [message] = [str(w.message) for w in record if w.category is StroboscopicRegimeWarning]
    assert len(message) < 200
    assert re.search(r"frequency = \d\.\d\de\+299 >= 1;", message)


def test_protocol_config_warns_outside_stroboscopic_regime():
    h = kron(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex))
    with pytest.warns(StroboscopicRegimeWarning):
        ProtocolConfig(h=h, spec=AncillaSpec(), tau=0.6, n_steps=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ProtocolConfig(h=h, spec=AncillaSpec(), tau=0.1, n_steps=1)


def test_protocol_config_regime_warning_names_the_caller():
    h = kron(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex))
    with pytest.warns(StroboscopicRegimeWarning) as record:
        ProtocolConfig(h=h, spec=AncillaSpec(), tau=0.6, n_steps=1)
    assert [w.filename for w in record] == [__file__]


def test_simulate_conditional_zero_steps_is_identity():
    cfg = _cfg(n_steps=0)
    rho0 = DensityMatrix.basis_state(4, 1)
    cs = simulate_conditional(cfg, rho0)
    assert cs.p == 1.0
    assert np.allclose(cs.rho_c, rho0.rho)


def test_simulate_conditional_decoupled_ancilla_never_fails():
    hs = random_hermitian(np.random.Generator(np.random.PCG64(21)), 4)
    cfg = ProtocolConfig(
        h=kron(hs, np.eye(2, dtype=complex)), spec=AncillaSpec(), tau=0.3, n_steps=40
    )
    cs = simulate_conditional(cfg, DensityMatrix.maximally_mixed(4))
    assert abs(cs.p - 1.0) < 1e-10


def test_simulate_conditional_matches_independent_projection_chain():
    # replay the protocol from first principles: unitary on the composite,
    # then project the ancilla back onto the monitored state each step
    cfg = _cfg(n_steps=5, tau=0.07)
    rho0 = DensityMatrix.basis_state(4, 1)
    u = taylor_expm(-1j * cfg.tau * cfg.h, terms=40)
    rho_comp = kron(rho0.rho, np.diag([1.0, 0.0]).astype(complex))
    p = 1.0
    for _ in range(cfg.n_steps):
        rho_comp = u @ rho_comp @ u.conj().T
        block = rho_comp[0::2, 0::2]
        step_p = np.trace(block).real
        p *= step_p
        sys_rho = block / step_p
        rho_comp = kron(sys_rho, np.diag([1.0, 0.0]).astype(complex))
    cs = simulate_conditional(cfg, rho0)
    assert abs(cs.p - p) < 1e-12
    assert frobenius_norm(normalize(cs).rho - sys_rho) < 1e-12


def test_conditional_survival_curve_matches_final_state_and_monotone():
    cfg = _cfg(n_steps=30)
    rho0 = DensityMatrix.basis_state(4, 1)
    curve = conditional_survival_curve(cfg, rho0)
    assert curve.shape == (30,)
    assert np.all(np.diff(curve) <= 1e-15)
    assert abs(curve[-1] - simulate_conditional(cfg, rho0).p) < 1e-13


def test_simulate_conditional_underflow_raises():
    # an ancilla driven at g*tau = 1 keeps only cos(1)^2 of the weight per
    # step, so a hundred steps is far below any sensible probability floor
    h = kron(np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.warns(StroboscopicRegimeWarning):
        cfg = ProtocolConfig(h=h, spec=AncillaSpec(), tau=1.0, n_steps=100)
    with pytest.raises(ProbabilityUnderflowError):
        simulate_conditional(cfg, DensityMatrix.maximally_mixed(2))


@pytest.mark.parametrize("start", ["pure", "mixed"])
def test_consistency_check_catches_a_perturbed_chain(start, monkeypatch):
    # K perturbed by 1e-10 on the chain's route alone: the two survival
    # probabilities part by far more than CHAIN_CONSISTENCY_RTOL
    rho0 = DensityMatrix.basis_state(4, 1) if start == "pure" else _MIXED
    chain = zenon.protocol.renormalized_end
    noise = random_hermitian(np.random.Generator(np.random.PCG64(22)), 4)
    monkeypatch.setattr(zenon.protocol, "renormalized_end", lambda a, f, n: chain(a + 1e-10 * noise, f, n))
    with pytest.raises(NumericalError, match="routes disagree"):
        simulate_conditional(_cfg(n_steps=30), rho0)


def test_filtered_state_chain_peak_stays_at_or_below_the_direct_route(monkeypatch):
    # dimension 256 from the maximally mixed start, as in the dense_composite
    # benchmark (tau = 1 / ||H||_F is about 0.2 over the Bohr spread): K^100
    # and its trace product against the end-only chain's buffers
    h = random_hermitian(np.random.Generator(np.random.PCG64(23)), 512)
    cfg = ProtocolConfig(h=h, spec=AncillaSpec(), tau=1 / frobenius_norm(h), n_steps=100)
    peaks = {}
    matrix_power, chain = np.linalg.matrix_power, zenon.protocol.renormalized_end

    def direct(*args):
        tracemalloc.reset_peak()
        return matrix_power(*args)

    def measured(*args):
        peaks["direct"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = chain(*args)
        peaks["chain"] = tracemalloc.get_traced_memory()[1]
        return out

    monkeypatch.setattr(np.linalg, "matrix_power", direct)
    monkeypatch.setattr(zenon.protocol, "renormalized_end", measured)
    tracemalloc.start()
    try:
        cs = simulate_conditional(cfg, DensityMatrix.maximally_mixed(256))
    finally:
        tracemalloc.stop()
    assert cs.p < 0.99  # the state has decayed, so the chain ran its blocks
    assert peaks["chain"] <= peaks["direct"]


def test_stroboscopic_error_second_order_in_tau():
    p = SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=2.0, g_z=0.3)
    rho0 = DensityMatrix.basis_state(4, 1)
    errors = []
    for tau in (0.02, 0.01):
        cfg = ProtocolConfig(
            h=build_symmetric(p), spec=AncillaSpec(), tau=tau,
            n_steps=int(round(0.4 / tau)),
        )
        errors.append(stroboscopic_error(cfg, rho0))
    assert 2.5 <= errors[0] / errors[1] <= 6.0


def test_stroboscopic_error_blows_up_outside_regime():
    p = SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=1.0, g_z=0.3)
    h = build_symmetric(p)
    w = hermitian_eig(h).eigenvalues
    spread = w[-1] - w[0]
    rho0 = DensityMatrix.basis_state(4, 1)
    small = stroboscopic_error(
        ProtocolConfig(h=h, spec=AncillaSpec(), tau=0.01 / spread, n_steps=20), rho0
    )
    big = stroboscopic_error(
        ProtocolConfig(h=h, spec=AncillaSpec(), tau=0.5 / spread, n_steps=20), rho0
    )
    assert big > 10 * small


def test_trajectory_ensemble_validation():
    with pytest.raises(NumericalError):
        TrajectoryEnsemble(n_traj=10, survival_counts=np.array([5, 7]))
    with pytest.raises(NumericalError):
        TrajectoryEnsemble(n_traj=10, survival_counts=np.array([11, 9]))
    ens = TrajectoryEnsemble(n_traj=10, survival_counts=np.array([8, 4, 4]))
    assert np.allclose(ens.empirical_survival(), [0.8, 0.4, 0.4])


def test_simulate_trajectories_deterministic_and_worker_independent():
    curve = conditional_survival_curve(_cfg(n_steps=10, tau=0.05), DensityMatrix.basis_state(4, 1))
    a = simulate_trajectories(curve, n_traj=64, seed=123)
    b = simulate_trajectories(curve, n_traj=64, seed=123)
    assert np.array_equal(a.survival_counts, b.survival_counts)
    d = simulate_trajectories(curve, n_traj=64, seed=124)
    assert not np.array_equal(a.survival_counts, d.survival_counts)


def test_simulate_trajectories_agrees_with_exact_survival():
    cfg = _cfg(n_steps=50, tau=0.05)
    rho0 = DensityMatrix.basis_state(4, 1)
    exact = conditional_survival_curve(cfg, rho0)
    ens = simulate_trajectories(exact, n_traj=800, seed=5)
    p = exact[-1]
    sigma = np.sqrt(p * (1 - p) / 800)
    assert abs(ens.empirical_survival()[-1] - p) < 4 * sigma


def test_simulate_trajectories_mixed_initial_state():
    cfg = _cfg(n_steps=20, tau=0.05)
    rho0 = DensityMatrix.maximally_mixed(4)
    exact = conditional_survival_curve(cfg, rho0)
    ens = simulate_trajectories(exact, n_traj=600, seed=31)
    p = exact[-1]
    sigma = np.sqrt(p * (1 - p) / 600)
    assert abs(ens.empirical_survival()[-1] - p) < 4 * sigma


def test_simulate_trajectories_validation():
    curve = conditional_survival_curve(_cfg(n_steps=5), DensityMatrix.basis_state(4, 0))
    # seed None would draw OS entropy; -1, 1.5 and the bools are not nonnegative ints
    for bad in (
        {"n_traj": 0},
        {"n_traj": MAX_TRAJECTORIES + 1},
        {"n_traj": 2.5},
        {"n_traj": True},
        {"seed": None},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": False},
    ):
        with pytest.raises(ValidationError):
            simulate_trajectories(curve, **{"n_traj": 10, "seed": 1, **bad})
    ens = simulate_trajectories(curve, n_traj=np.int64(10), seed=np.uint32(1))
    assert ens.survival_counts.shape == (5,)
    with pytest.raises(BadDimensionError):
        conditional_survival_curve(_cfg(n_steps=5), DensityMatrix.basis_state(2, 0))


@pytest.mark.parametrize(
    "curve",
    [0.5, [[0.9, 0.8]], [0.9, -1e-300, 0.0], [0.9, math.nan, 0.5], [math.nan], [-math.inf]],
    ids=["0-d", "2-d", "negative", "nan", "only-nan", "minus-inf"],
)
def test_simulate_trajectories_refuses_a_curve_not_1d_or_with_a_value_not_nonnegative(curve):
    with pytest.raises(ValidationError, match="^survival curve must be"):
        simulate_trajectories(curve, n_traj=10, seed=1)


def test_simulate_trajectories_samples_the_curve_it_is_passed():
    # the sampler reads no config: a curve a rounding above 1 (the step's norm
    # check admits ||K||_2 <= 1 + 1e-10) keeps everyone, and 0.0 keeps no one
    ens = simulate_trajectories([1.0 + 1e-12, 1.0, 0.0, 0.0], n_traj=50, seed=2)
    assert np.array_equal(ens.survival_counts, [50, 50, 0, 0])


def test_philox_stream_continues_across_chunked_draws():
    def stream():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))

    whole = stream().random((70_001, 2))
    rng = stream()
    chunked = np.concatenate([rng.random((n, 2)) for n in (65_536, 3, 4_462)])
    assert np.array_equal(chunked.view(np.int64), whole.view(np.int64))


_SYMMETRIC = build_symmetric(SymmetricParams(gamma_xy=1.0, gamma_z=0.5, g_xy=1.0, g_z=0.3))
_FLIP = kron(np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]]))
_KET_RNG = np.random.Generator(np.random.PCG64(14))
_KETS = [random_ket(_KET_RNG, 4) for _ in range(2)]  # two draws of one stream: a rank-2 start
# start -> (composite H, tau, rho0); "annihilating" is the ancilla flip of
# test_simulate_trajectories_annihilating_step_has_no_survivors
_SORTING_ORACLE_STARTS = {
    "pure": (_SYMMETRIC, 0.05, DensityMatrix.basis_state(4, 1)),
    "rank2": (_SYMMETRIC, 0.05, DensityMatrix(rho=sum(w * np.outer(k, k.conj()) for w, k in zip((0.6, 0.4), _KETS)))),
    "maximally_mixed": (_SYMMETRIC, 0.05, DensityMatrix.maximally_mixed(4)),
    "zero_weight_eigenket": (_SYMMETRIC, 0.05, DensityMatrix(rho=np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex))),
    "annihilating": (_FLIP, math.pi / 2, DensityMatrix.maximally_mixed(2)),
}


@pytest.mark.parametrize("n_steps", [0, 1, 7, 200])
@pytest.mark.parametrize("start", list(_SORTING_ORACLE_STARTS))
def test_waiting_time_counts_are_the_sorting_counts_bit_for_bit(start, n_steps):
    h, tau, rho0 = _SORTING_ORACLE_STARTS[start]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StroboscopicRegimeWarning)  # tau = pi/2 is outside the regime
        cfg = ProtocolConfig(h=h, spec=AncillaSpec(), tau=tau, n_steps=n_steps)
    curve = conditional_survival_curve(cfg, rho0)
    for n_traj in (1, 2000, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK - 5):
        for seed in (0, 7, 123):
            ens = simulate_trajectories(curve, n_traj=n_traj, seed=seed)
            counts = curve_sorting_trajectories(cfg, rho0, n_traj=n_traj, seed=seed)
            assert ens.survival_counts.dtype == counts.dtype
            assert np.array_equal(ens.survival_counts, counts)


def _feed_rows(monkeypatch, rows):
    """Make every np.random.Generator hand out the given (pick, u) rows in order."""

    class Rows:
        def __init__(self, bit_generator):
            self.used = 0

        def random(self, shape):
            self.used += shape[0]
            return rows[self.used - shape[0] : self.used]

    monkeypatch.setattr(np.random, "Generator", Rows)


def test_uniform_equal_to_a_curve_value_is_lost_as_in_the_sorting_counter(monkeypatch):
    # Philox uniforms almost never equal a curve value, so feed u = 0.0 against
    # the annihilating step, whose curve reaches exactly 0.0: u < 0.0 fails there
    with pytest.warns(StroboscopicRegimeWarning):
        cfg = ProtocolConfig(h=_FLIP, spec=AncillaSpec(), tau=math.pi / 2, n_steps=20)
    rho0 = DensityMatrix.maximally_mixed(2)
    rows = np.array([[0.2, 0.0], [0.7, 0.0], [0.9, 0.5]] * (MC_CHUNK // 2))
    _feed_rows(monkeypatch, rows)
    ens = simulate_trajectories(conditional_survival_curve(cfg, rho0), n_traj=len(rows), seed=0)
    counts = curve_sorting_trajectories(cfg, rho0, n_traj=len(rows), seed=0)
    assert np.array_equal(ens.survival_counts, counts)
    assert 0 == counts[-1] < counts[0]


def _binomial_z(counts, p, n):
    """|z| of survivor counts against exact survival 0 < p < 1, step by step."""
    return np.abs(counts / n - p) / np.sqrt(p * (1.0 - p) / n)


_MIXED = DensityMatrix(rho=np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))


@pytest.mark.parametrize("rho0", [DensityMatrix.basis_state(4, 1), _MIXED], ids=["pure", "mixed"])
def test_waiting_time_and_stepwise_samplers_agree_with_exact_survival(rho0):
    cfg = _cfg(n_steps=40, tau=0.05)
    n = 2000
    exact = conditional_survival_curve(cfg, rho0)
    fast = simulate_trajectories(exact, n_traj=n, seed=17).survival_counts
    slow = stepwise_trajectories(cfg, rho0, n_traj=n, seed=17)
    assert np.all(_binomial_z(fast, exact, n) < 4.0)
    assert np.all(_binomial_z(slow, exact, n) < 4.0)
    p_fast, p_slow = fast[-1] / n, slow[-1] / n
    pooled = (p_fast + p_slow) / 2
    assert abs(p_fast - p_slow) < 4.0 * math.sqrt(pooled * (1 - pooled) * 2 / n)


def test_simulate_trajectories_zero_steps_has_no_counts():
    cfg = _cfg(n_steps=0)
    ens = simulate_trajectories(conditional_survival_curve(cfg, DensityMatrix.basis_state(4, 1)), n_traj=20, seed=3)
    assert ens.survival_counts.shape == (0,)


def test_simulate_trajectories_annihilating_step_has_no_survivors():
    # an ancilla flip completed within one tau: <m|U|m> = cos(tau) I, which
    # at tau = fl(pi/2) is 6.1e-17 I; computed to rounding (~3e-16), a step
    # keeps about 1e-31 of the trace
    h = kron(np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.warns(StroboscopicRegimeWarning):
        cfg = ProtocolConfig(h=h, spec=AncillaSpec(), tau=math.pi / 2, n_steps=6)
    assert np.max(np.abs(kraus_step(cfg.h, cfg.spec, cfg.tau) - math.cos(cfg.tau) * np.eye(2))) <= 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = simulate_trajectories(conditional_survival_curve(cfg, DensityMatrix.maximally_mixed(2)), n_traj=50, seed=4)
    assert np.array_equal(ens.survival_counts, np.zeros(6))
    slow = stepwise_trajectories(cfg, DensityMatrix.maximally_mixed(2), n_traj=50, seed=4)
    assert np.array_equal(slow, np.zeros(6))



def test_annihilating_step_exact_curve_is_zero_and_filtered_state_raises():
    h = kron(np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.warns(StroboscopicRegimeWarning):
        cfg = ProtocolConfig(h=h, spec=AncillaSpec(), tau=math.pi / 2, n_steps=6)
    rho0 = DensityMatrix.basis_state(2, 0)
    # K = cos(fl(pi/2)) I = 6.1e-17 I to rounding (~3e-16): p_k is about 1e-31^k
    curve = conditional_survival_curve(cfg, rho0)
    assert np.all((curve >= 0) & (curve <= 1e-30 ** np.arange(1, 7)))
    with pytest.raises(ProbabilityUnderflowError):
        simulate_conditional(cfg, rho0)


def test_nilpotent_step_ends_the_filtered_state_at_its_step():
    with pytest.raises(ProbabilityUnderflowError, match="hit 0.0 at step 2"):
        simulate_conditional(_nilpotent_cfg(), DensityMatrix.maximally_mixed(4))


def test_simulate_trajectories_prefix_stable_in_n_traj():
    curve = conditional_survival_curve(_cfg(n_steps=15, tau=0.05), _MIXED)
    a = simulate_trajectories(curve, n_traj=300, seed=21)
    b = simulate_trajectories(curve, n_traj=600, seed=21)
    assert np.all(b.survival_counts >= a.survival_counts)


def test_simulate_trajectories_memory_independent_of_draw_count():
    # 10^6 trajectories x 10^4 steps would need 80 GB of stepwise uniforms;
    # drawn MC_CHUNK rows at a time, 10^6 trajectories peak where 10^4 do
    assert MC_CHUNK <= 10_000
    cfg = _cfg(n_steps=10_000, tau=0.005)
    curve = conditional_survival_curve(cfg, DensityMatrix.maximally_mixed(4))
    simulate_trajectories(curve, n_traj=1, seed=99)  # a first draw imports numpy's seeding modules
    peaks = []
    for n_traj in (10_000, 1_000_000):
        tracemalloc.start()
        try:
            ens = simulate_trajectories(curve, n_traj=n_traj, seed=99)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 256 * 1024
    assert _binomial_z(ens.survival_counts[-1:], curve[-1], 1_000_000)[0] < 4.0


def test_monte_carlo_peak_from_a_mixed_start_stays_at_the_pure_start():
    # the exact survival curve and the survivor counts read from it alone:
    # no table of one curve per start eigenket grows with the start's rank
    starts = {"pure": DensityMatrix.basis_state(4, 1), "mixed": DensityMatrix.maximally_mixed(4)}
    simulate_trajectories(conditional_survival_curve(_cfg(n_steps=1), starts["mixed"]), n_traj=1, seed=3)  # imports numpy's seeding modules
    peaks = {}
    for name, rho0 in starts.items():
        cfg = _cfg(n_steps=100_000, tau=0.005)
        tracemalloc.start()
        try:
            simulate_trajectories(conditional_survival_curve(cfg, rho0), n_traj=1000, seed=3)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["mixed"] <= 1.1 * peaks["pure"]


@pytest.mark.parametrize("start", ["rank2", "maximally_mixed"])
def test_curve_and_per_eigenket_samplers_agree_in_law(start):
    h, tau, rho0 = _SORTING_ORACLE_STARTS[start]
    cfg = ProtocolConfig(h=h, spec=AncillaSpec(), tau=tau, n_steps=40)
    n = 20_000
    ens = simulate_trajectories(conditional_survival_curve(cfg, rho0), n_traj=n, seed=41)
    old_counts = sorting_trajectories(cfg, rho0, n_traj=n, seed=42)
    p_new, p_old = ens.survival_counts / n, old_counts / n
    pooled = (p_new + p_old) / 2
    assert np.all(np.abs(p_new - p_old) <= 4.0 * np.sqrt(pooled * (1 - pooled) * 2 / n))


def test_write_ensemble_csv(tmp_path):
    cfg = _cfg(n_steps=6, tau=0.05)
    rho0 = DensityMatrix.basis_state(4, 1)
    exact = conditional_survival_curve(cfg, rho0)
    ens = simulate_trajectories(exact, n_traj=100, seed=2)
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ens, exact)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,survivors,p_exact,p_empirical"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1"
    assert int(first[1]) == ens.survival_counts[0]
    with pytest.raises(BadDimensionError):
        write_ensemble_csv(path, ens, exact[:-1])


def _count_chains(monkeypatch) -> list:
    """Patch protocol's chain to record each run; returns the record."""
    runs = []
    chain = zenon.protocol.renormalized_blocks

    def counted(*args):
        runs.append(args[2])
        return chain(*args)

    monkeypatch.setattr(zenon.protocol, "renormalized_blocks", counted)
    return runs


def _nilpotent_cfg(n_steps=6):
    # K = |0><1| kills every state in two steps: from the maximally mixed
    # start the chain's trace reaches 0 at step 2 and the chain ends early
    cfg = _cfg(n_steps=n_steps)
    k = np.zeros((4, 4), dtype=complex)
    k[0, 1] = 1.0
    object.__setattr__(cfg, "kraus", k)
    return cfg


def test_an_early_end_leaves_zeros_on_the_curve_and_no_survivors():
    # the nilpotent step's chain ends after step 1: the curve's later steps
    # stay 0.0, and no trajectory survives them
    curve = conditional_survival_curve(_nilpotent_cfg(), DensityMatrix.maximally_mixed(4))
    assert curve[0] > 0 and np.array_equal(curve[1:], np.zeros(5))
    counts = simulate_trajectories(curve, n_traj=500, seed=3).survival_counts
    assert counts[0] > 0 and np.array_equal(counts[1:], np.zeros(5))


def test_cli_protocol_runs_one_chain(tmp_path, monkeypatch):
    runs = _count_chains(monkeypatch)
    config = Path(__file__).resolve().parent.parent / "configs" / "protocol_symmetric.json"
    monkeypatch.chdir(config.parent.parent)
    assert zenon.cli.main(["protocol", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(runs) == 1


def test_write_ensemble_csv_of_ten_thousand_steps_in_parts_is_the_one_part_write(tmp_path, monkeypatch):
    # a sized row view: 10^4 rows on three usable cores make two parts, one
    # forked, with the bytes of the one-part write and of the per-cell writer
    n, n_traj = 10_000, 1_000_000
    rng = np.random.default_rng(37)
    counts = n_traj - np.cumsum(rng.integers(0, 80, n))
    p_exact = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    ensemble = TrajectoryEnsemble(n_traj=n_traj, survival_counts=counts)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    write_ensemble_csv(tmp_path / "parts.csv", ensemble, p_exact)
    assert len(forks) == min(3, n // CSV_PART_MIN_ROWS) - 1 == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.delattr(os, "fork")  # one part
    write_ensemble_csv(tmp_path / "one.csv", ensemble, p_exact)
    rows = zip(range(1, n + 1), counts.tolist(), p_exact.tolist(), (counts / n_traj).tolist())
    percell_csv(tmp_path / "ref.csv", ["step", "survivors", "p_exact", "p_empirical"], rows)
    assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
