import json
import math
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenon.chain
import zenon.linalg
from helpers import (
    eager_conditional_trajectory,
    expression_hermitian_part,
    random_hermitian,
    random_ket,
    random_psd,
    renormalized_chain,
    rho_chain,
    rho_rk4,
    rowwise_timeseries_csv,
    stagewise_factor_rk4,
    stepwise_chain,
    survival_probability,
    symmetric_odd_block,
    transition_probability,
)
from zenon.cli import main
from zenon.chain import chain_block_size, end_block_size, renormalized_blocks, renormalized_end
from zenon.dynamics import (
    STEP_NORM_LIMIT,
    _integrate_factor,
    ConditionalState,
    DensityMatrix,
    TrajectoryStates,
    basis_labels,
    conditional_final_state,
    conditional_trajectory,
    default_coherence_pair,
    default_time_step,
    evolve_conditional,
    expectation,
    integrate_nonlinear,
    normalize,
    state_factor,
    write_timeseries_csv,
)
from zenon.effective import EffectiveHamiltonian, derive_effective
from zenon.errors import (
    BadDimensionError,
    NumericalError,
    ProbabilityUnderflowError,
    StepTooLargeError,
    ValidationError,
)
from zenon.linalg import CSV_PART_MIN_ROWS, expm, frobenius_norm, trace
from zenon.protocol import ProtocolConfig, simulate_conditional
from zenon.spin_models import SymmetricParams, build_symmetric
from zenon.effective import AncillaSpec


def _symmetric_eff(gamma_xy=0.5, gamma_z=0.2, g_xy=1.0, g_z=0.1, tau=0.05):
    p = SymmetricParams(gamma_xy=gamma_xy, gamma_z=gamma_z, g_xy=g_xy, g_z=g_z)
    return derive_effective(build_symmetric(p), AncillaSpec(), tau)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def _words(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _nearly_hermitian(m: np.ndarray, rng) -> np.ndarray:
    """m plus an anti-Hermitian part of relative size 1e-13, inside HERMITICITY_RTOL."""
    k = random_hermitian(rng, m.shape[0])
    return m + (1e-13 * frobenius_norm(m) / frobenius_norm(k)) * 1j * k


@pytest.mark.parametrize("nearly", [False, True], ids=["exactly", "nearly"])
def test_validated_types_store_the_hermitian_part_of_their_input(nearly):
    rng = np.random.Generator(np.random.PCG64(41))

    def given(m, scale=1.0):
        m = expression_hermitian_part(m) * scale
        return _nearly_hermitian(m, rng) if nearly else m

    psd = random_psd(rng, 6)
    rho, rho_c = given(psd, 1 / trace(psd).real), given(psd, 0.4 / trace(psd).real)
    h0, gamma = given(random_hermitian(rng, 6)), given(random_psd(rng, 6))
    eff = EffectiveHamiltonian(h0=h0, gamma=gamma, tau=0.1)
    for stored, m in (
        (DensityMatrix(rho).rho, rho),
        (ConditionalState(rho_c, trace(rho_c).real).rho_c, rho_c),
        (eff.h0, h0),
        (eff.gamma, gamma),
    ):
        assert np.array_equal(_words(stored), _words(expression_hermitian_part(m)))


def test_density_matrix_peak_memory_is_three_copies_of_its_input():
    # as_psd's one copy, one A^dag and one residual; nothing survives to the
    # eigenvalue read but the symmetrized state
    psd = random_psd(np.random.Generator(np.random.PCG64(42)), 512)
    rho = psd / trace(psd).real
    tracemalloc.start()
    try:
        DensityMatrix(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * rho.nbytes


def test_from_pure_normalizes_a_ket_whose_norm_under_or_overflows():
    ref = DensityMatrix.from_pure([1, 0, 0, 1]).rho
    for scale in (1e200, 1e-170, 5e-324):
        assert np.array_equal(_words(DensityMatrix.from_pure([scale, 0, 0, scale]).rho), _words(ref))
    for ket, same_state in (([3e-310 + 4e-310j, 0], [0.6 + 0.8j, 0]), ([1.7e308 + 1.7e308j, 0], [1 + 1j, 0])):
        assert np.array_equal(_words(DensityMatrix.from_pure(ket).rho), _words(DensityMatrix.from_pure(same_state).rho))
    with pytest.raises(ValidationError, match="zero vector"):
        DensityMatrix.from_pure(np.zeros(3))


@pytest.mark.parametrize("ket", [[np.nan, 0], [np.inf, 0], [complex(0, np.nan), 1], [1e300, -np.inf]])
def test_from_pure_rejects_non_finite_amplitudes(ket):
    with pytest.raises(ValidationError, match="non-finite amplitudes"):
        DensityMatrix.from_pure(ket)


def test_a_nan_ket_fails_the_norm_checks():
    eff = EffectiveHamiltonian(h0=np.diag([0.5, -0.5]), gamma=np.diag([1.0, 0.0]), tau=0.1)
    # the per-step drift check, on a factor that is NaN from the start
    with pytest.raises(NumericalError, match="drift"):
        _integrate_factor(eff, np.array([np.nan, 0.0], dtype=complex), 1.0, None)


def test_density_matrix_rejects_what_state_factor_rejects():
    # ||rho||_F = 0.577: -8e-11 is above -1e-10 * max(1, ||rho||_F) but below
    # as_psd's floor -1e-10 * ||rho||_F, the one PSD rule, so it must fail as
    # input: state_factor takes a DensityMatrix and checks nothing again
    with pytest.raises(ValidationError):
        DensityMatrix(_rotated([1 / 3, 1 / 3, 1 / 3 + 8e-11, -8e-11], 23))
    inside = DensityMatrix(_rotated([1 / 3, 1 / 3, 1 / 3 + 5e-11, -5e-11], 23))
    assert state_factor(inside).shape == (4, 3)


def test_state_factor_does_not_gate_a_gated_state_again(monkeypatch):
    state = DensityMatrix.maximally_mixed(4)

    def second_gate(a):
        raise AssertionError("a DensityMatrix passed its one Hermiticity and PSD gate when it was built")

    monkeypatch.setattr(zenon.linalg, "as_hermitian", second_gate)
    f = state_factor(state)
    assert f.shape == (4, 4)
    assert frobenius_norm(f @ f.conj().T - state.rho) < 1e-15


def test_density_matrix_constructors():
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    dm = DensityMatrix.from_pure(psi)
    assert abs(dm.purity() - 1.0) < 1e-14
    basis = DensityMatrix.basis_state(4, 2)
    assert basis.rho[2, 2] == 1.0
    mixed = DensityMatrix.maximally_mixed(4)
    assert abs(mixed.purity() - 0.25) < 1e-14
    with pytest.raises(ValidationError):
        DensityMatrix.from_pure(np.zeros(3))
    with pytest.raises(ValidationError):
        DensityMatrix.basis_state(4, 5)


def test_conditional_state_validation():
    rho = np.diag([0.25, 0.25]).astype(complex)
    cs = ConditionalState(rho_c=rho, p=0.5)
    assert cs.p == 0.5
    with pytest.raises(ValidationError):
        ConditionalState(rho_c=rho, p=0.9)  # p != trace
    with pytest.raises(ValidationError):
        ConditionalState(rho_c=-rho, p=-0.5)


def test_evolve_conditional_identity_at_t_zero():
    eff = _symmetric_eff()
    rho0 = DensityMatrix.basis_state(4, 1)
    cs = evolve_conditional(eff, rho0, 0.0)
    assert np.allclose(cs.rho_c, rho0.rho)
    assert abs(cs.p - 1.0) < 1e-14


def test_evolve_conditional_no_decay_preserves_trace():
    rng = np.random.Generator(np.random.PCG64(10))
    h0 = random_hermitian(rng, 4)
    eff = EffectiveHamiltonian(h0=h0, gamma=np.zeros((4, 4)), tau=0.1)
    rho0 = DensityMatrix.maximally_mixed(4)
    for t in (0.3, 1.7, 4.0):
        cs = evolve_conditional(eff, rho0, t)
        assert abs(cs.p - 1.0) < 1e-12
        assert abs(trace(cs.rho_c) - 1.0) < 1e-12


def test_evolve_conditional_matches_two_level_closed_form():
    # gamma_z = g_z = 0 puts |01>,|10> in a closed two-level sector with
    # exactly solvable transition and survival probabilities
    eff = _symmetric_eff(gamma_xy=0.7, gamma_z=0.0, g_xy=0.9, g_z=0.0, tau=0.04)
    gamma, g = symmetric_odd_block(SymmetricParams(0.7, 0.0, 0.9, 0.0), 0.04)
    rho0 = DensityMatrix.basis_state(4, 1)  # |01>
    for t in (0.3, 1.1, 2.9):
        cs = evolve_conditional(eff, rho0, t)
        rho_n = normalize(cs).rho
        pop01 = rho_n[1, 1].real / (rho_n[1, 1].real + rho_n[2, 2].real)
        assert abs(pop01 - survival_probability(gamma, g, t)) < 1e-10
        pop10 = rho_n[2, 2].real / (rho_n[1, 1].real + rho_n[2, 2].real)
        assert abs(pop10 - transition_probability(gamma, g, t)) < 1e-10


def test_normalize_and_underflow():
    eff = _symmetric_eff()
    rho0 = DensityMatrix.basis_state(4, 3)
    cs = evolve_conditional(eff, rho0, 1.0)
    n = normalize(cs)
    assert abs(trace(n.rho) - 1.0) < 1e-12
    with pytest.raises(ProbabilityUnderflowError):
        normalize(ConditionalState(rho_c=np.zeros((2, 2)), p=0.0))


def test_success_probability_rate_matches_finite_difference():
    eff = _symmetric_eff(gamma_xy=0.4, gamma_z=0.3, g_xy=1.2, g_z=0.2, tau=0.05)
    rho0 = DensityMatrix.basis_state(4, 1)
    t, dt = 0.8, 1e-6
    p_minus = evolve_conditional(eff, rho0, t - dt).p
    p_plus = evolve_conditional(eff, rho0, t + dt).p
    fd = (p_plus - p_minus) / (2 * dt)
    rate = -eff.tau * trace(eff.gamma @ evolve_conditional(eff, rho0, t).rho_c).real  # dp/dt
    assert rate <= 0
    assert abs(rate - fd) < 1e-6 * max(1.0, abs(fd))


def test_default_time_step_scales_inversely_with_norm():
    eff = _symmetric_eff()
    dt = default_time_step(eff)
    assert 0 < dt * max(frobenius_norm(eff.h0), eff.tau * frobenius_norm(eff.gamma)) <= 5e-3 + 1e-15
    null = EffectiveHamiltonian(np.zeros((2, 2)), np.zeros((2, 2)), 0.1)
    assert default_time_step(null) == 5e-3


def test_integrate_nonlinear_matches_normalized_linear_evolution():
    rng = np.random.Generator(np.random.PCG64(11))
    for seed in range(4):
        sub = np.random.Generator(np.random.PCG64((11, seed)))
        h0 = random_hermitian(sub, 4)
        gamma = random_psd(sub, 4)
        tau = float(sub.uniform(0.05, 0.3))
        eff = EffectiveHamiltonian(h0=h0, gamma=gamma, tau=tau)
        rho0 = DensityMatrix.maximally_mixed(4)
        t = float(sub.uniform(0.2, 0.8))
        direct = normalize(evolve_conditional(eff, rho0, t)).rho
        integrated = integrate_nonlinear(eff, rho0, t)
        assert frobenius_norm(integrated.rho - direct) < 1e-6


def test_integrate_nonlinear_changes_purity_of_mixed_state():
    eff = _symmetric_eff(gamma_xy=0.5, gamma_z=0.2, g_xy=1.5, g_z=0.1, tau=0.1)
    rho0 = DensityMatrix.maximally_mixed(4)
    out = integrate_nonlinear(eff, rho0, 1.0)
    assert out.purity() > rho0.purity() + 1e-3  # decay filters toward dark states


def test_integrate_nonlinear_step_guard():
    eff = _symmetric_eff()
    rho0 = DensityMatrix.basis_state(4, 0)
    with pytest.raises(StepTooLargeError):
        integrate_nonlinear(eff, rho0, 1.0, dt=2.0)
    with pytest.raises(StepTooLargeError):
        integrate_nonlinear(eff, rho0, 1.0, dt=-0.1)
    with pytest.raises(StepTooLargeError):
        integrate_nonlinear(eff, rho0, 1.0, dt=0.15 / frobenius_norm(eff.matrix()))
    # a stiff generator: its default step plans 2.8e11 steps, refused before the first
    stiff = EffectiveHamiltonian(h0=np.diag([1e9, -1e9]).astype(complex), gamma=np.zeros((2, 2)), tau=0.1)
    start = time.perf_counter()
    with pytest.raises(StepTooLargeError, match=r"2\.83e\+11 RK4 steps"):
        integrate_nonlinear(stiff, DensityMatrix.basis_state(2, 0), 1.0)
    assert time.perf_counter() - start < 1.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_expectation_real_for_hermitian_observable(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    rho = DensityMatrix.from_pure(random_ket(rng, 4))
    obs = random_hermitian(rng, 4)
    val = expectation(rho, obs)
    assert isinstance(val, float)


def test_expectation_rejects_an_observable_of_another_dimension():
    with pytest.raises(BadDimensionError, match="observable dim 2 != state dim 4"):
        expectation(DensityMatrix.basis_state(4, 1), np.eye(2))


def test_expectation_rejects_large_imaginary_part():
    rho = DensityMatrix.basis_state(2, 0)
    with pytest.raises(ValidationError):
        expectation(rho, np.array([[1j, 0], [0, 0]]))


@pytest.mark.parametrize(
    "state",
    [np.array([[0, 1j], [0, 0]]), np.diag([2.0, -1.0]), np.diag([0.5, 0.4])],
    ids=["not-hermitian", "not-psd", "not-unit-trace"],
)
def test_expectation_reads_a_raw_matrix_state_as_a_density_matrix(state):
    # a bad matrix state is bad input (exit 2), never a run-time failure
    with pytest.raises(ValidationError):
        expectation(state, np.eye(2))
    assert expectation(np.diag([0.75, 0.25]), np.diag([1.0, -1.0])) == 0.5


def test_conditional_trajectory_shapes_and_monotone_survival():
    eff = _symmetric_eff()
    rho0 = DensityMatrix.basis_state(4, 1)
    times, survival, states = conditional_trajectory(eff.matrix(), rho0, 5.0, 101)
    assert times.shape == (101,) and survival.shape == (101,)
    assert len(states) == 101
    assert survival[0] == 1.0
    assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(survival, survival[1:]))
    for rho in states[1:]:
        assert abs(trace(rho) - 1.0) < 1e-10


def test_conditional_trajectory_survival_matches_direct_evolution():
    eff = _symmetric_eff(gamma_xy=0.4, gamma_z=0.1, g_xy=0.8, g_z=0.05, tau=0.06)
    rho0 = DensityMatrix.basis_state(4, 2)
    times, survival, _ = conditional_trajectory(eff.matrix(), rho0, 3.0, 61)
    for k in (10, 33, 60):
        direct = evolve_conditional(eff, rho0, float(times[k])).p
        assert abs(survival[k] - direct) < 1e-10


def test_conditional_trajectory_deep_decay_underflows_to_zero():
    # a purely decaying level pushed far below the floating-point exponent
    # range must report zero survival, not raise or return garbage
    h_eff = np.array([[0.0, 0.0], [0.0, -200.0j]])
    rho0 = DensityMatrix.basis_state(2, 1)
    times, survival, states = conditional_trajectory(h_eff, rho0, 10.0, 21)
    assert survival[-1] == 0.0
    assert abs(trace(states[-1]) - 1.0) < 1e-10


@pytest.mark.parametrize("start", ["pure", "rank2", "maximally_mixed"])
def test_conditional_final_state_is_the_last_trajectory_sample(start):
    rho0 = _CHAIN_STARTS[start]
    h_eff = _symmetric_eff().matrix()
    _, survival, states = conditional_trajectory(h_eff, rho0, 20.0, 400)
    p, final = conditional_final_state(h_eff, rho0, 20.0, 400)
    assert p == survival[-1]
    assert np.array_equal(final, states[-1])


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_evolve_conditional_refuses_a_time_not_nonnegative_and_finite(t):
    with pytest.raises(ValidationError, match="^t must be nonnegative and finite"):
        evolve_conditional(_symmetric_eff(), DensityMatrix.basis_state(4, 1), t)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_integrate_nonlinear_refuses_a_time_not_finite_before_planning_steps(t):
    with pytest.raises(ValidationError, match="^t must be nonnegative and finite"):
        integrate_nonlinear(_symmetric_eff(), DensityMatrix.basis_state(4, 1), t)


@pytest.mark.parametrize("run", [conditional_trajectory, conditional_final_state])
def test_final_state_and_trajectory_share_validation_and_collapse(run):
    # exp(-400 t) on the occupied level: the trace e^-800 underflows to 0
    sink = np.array([[0.0, 0.0], [0.0, -400.0j]])
    rho0 = DensityMatrix.basis_state(2, 1)
    with pytest.raises(ProbabilityUnderflowError, match="hit 0.0 at step 1$"):
        run(sink, rho0, 2.0, 3)
    with pytest.raises(ValidationError, match="n_samples"):
        run(sink, rho0, 2.0, 1)
    for t_max in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="^t_max must be positive and finite"):
            run(sink, rho0, t_max, 3)
    with pytest.raises(BadDimensionError):
        run(np.eye(4), rho0, 2.0, 3)


def test_basis_labels_and_default_coherence_pair():
    assert basis_labels(4) == ["00", "01", "10", "11"]
    assert basis_labels(3) == ["0", "1", "2"]
    assert default_coherence_pair(4, 1) == (1, 2)
    assert default_coherence_pair(4, 2) == (1, 2)
    assert default_coherence_pair(4, 0) == (0, 3)
    assert default_coherence_pair(8, 6) == (1, 6)


@pytest.mark.parametrize("dim, index", [(1, 0), (3, 1), (5, 2)])
def test_default_coherence_pair_rejects_the_middle_index_of_an_odd_dimension(dim, index):
    # (k, k) is a population, not a coherence
    with pytest.raises(ValidationError, match="coherence_pair"):
        default_coherence_pair(dim, index)
    assert default_coherence_pair(dim + 1, index) == (index, dim - index)


def test_write_timeseries_csv_format_and_determinism(tmp_path):
    eff = _symmetric_eff()
    rho0 = DensityMatrix.basis_state(4, 1)
    times, survival, states = conditional_trajectory(eff.matrix(), rho0, 2.0, 21)
    path1 = tmp_path / "a.csv"
    path2 = tmp_path / "b.csv"
    write_timeseries_csv(path1, times, survival, states, (1, 2))
    write_timeseries_csv(path2, times, survival, states, (1, 2))
    text = path1.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "t,p,pop_00,pop_01,pop_10,pop_11,re_coh,im_coh,purity"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    assert float(first[3]) == 1.0  # all weight on |01>
    assert text == path2.read_text()


_MIXED4 = DensityMatrix(
    (lambda m: m / np.trace(m).real)(random_psd(np.random.Generator(np.random.PCG64(11)), 4))
)


@pytest.mark.parametrize(
    "rho0",
    [DensityMatrix.from_pure(random_ket(np.random.Generator(np.random.PCG64(10)), 4)), _MIXED4],
    ids=["pure", "mixed"],
)
def test_write_timeseries_csv_matches_rowwise_oracle(tmp_path, rho0):
    eff = _symmetric_eff()
    # more samples than one of the writer's row blocks, so a block boundary is crossed
    times, survival, states = conditional_trajectory(eff.matrix(), rho0, 4.0, 5001)
    write_timeseries_csv(tmp_path / "new.csv", times, survival, states, (0, 3))
    rowwise_timeseries_csv(tmp_path / "ref.csv", times, survival, list(states), (0, 3))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_PURE4 = DensityMatrix.from_pure(random_ket(np.random.Generator(np.random.PCG64(20)), 4))
_STACK_STARTS = {
    "pure": _PURE4,
    "rank2": DensityMatrix(0.7 * DensityMatrix.basis_state(4, 1).rho + 0.3 * _PURE4.rho),
    "mixed": _MIXED4,
}


def _words(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("start", list(_STACK_STARTS))
def test_trajectory_states_are_the_eager_stack_bit_for_bit(start):
    # 401 samples: six full 64-step chain blocks and a short one
    rho0, h_eff, n = _STACK_STARTS[start], _symmetric_eff().matrix(), 401
    times, survival, states = conditional_trajectory(h_eff, rho0, 20.0, n)
    ref_times, ref_survival, ref = eager_conditional_trajectory(h_eff, rho0, 20.0, n)
    assert isinstance(states, TrajectoryStates)
    assert state_factor(rho0).shape[1] == {"pure": 1, "rank2": 2, "mixed": 4}[start]
    assert np.array_equal(times, ref_times) and np.array_equal(survival, ref_survival)
    assert len(states) == n and states.shape == ref.shape
    assert np.array_equal(_words(states[0]), _words(rho0.rho))
    for k in (0, 1, 63, 64, 65, 200, n - 1, -1, -2, -n, -65):
        assert states[k].shape == (4, 4)
        assert np.array_equal(_words(states[k]), _words(ref[k])), k
    for key in (
        slice(None), slice(0, 1), slice(1, 257), slice(5, 300, 7), slice(None, None, -1),
        slice(-10, None), slice(300, 100, -3), slice(5, 5), slice(390, 1000),
    ):
        assert np.array_equal(_words(states[key]), _words(ref[key])), key
    assert np.array_equal(_words(np.stack(list(states))), _words(ref))
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            states[k]


def test_trajectory_states_of_a_pure_start_hold_factors_not_the_dense_stack():
    # the factors of a pure start are (n - 1, 4, 1), 64 bytes a sample, and
    # times and survival 16 more, where the (n, 4, 4) stack alone took 256
    rho0, h_eff, n = _STACK_STARTS["pure"], _symmetric_eff().matrix(), 20_001
    tracemalloc.start()
    try:
        _, _, states = conditional_trajectory(h_eff, rho0, 20.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 256 / 2
    assert np.array_equal(states[-1], eager_conditional_trajectory(h_eff, rho0, 20.0, n)[2][-1])


def test_simulate_at_50000_samples_is_the_eager_stack_written_in_one_part(tmp_path, monkeypatch):
    configs = Path(__file__).resolve().parent.parent / "configs"
    scenario = json.loads((configs / "simulate_symmetric.json").read_text())
    scenario["n_samples"] = 50_000
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(scenario))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(forks) == min(len(os.sched_getaffinity(0)), 50_000 // CSV_PART_MIN_ROWS) - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    h_eff = derive_effective(
        build_symmetric(SymmetricParams(**scenario["params"])), AncillaSpec(), scenario["tau"]
    ).matrix()
    rho0 = DensityMatrix.basis_state(4, int(scenario["initial_state"], 2))
    times, survival, states = eager_conditional_trajectory(h_eff, rho0, scenario["t_max"], 50_000)
    monkeypatch.delattr(os, "fork")  # one part
    write_timeseries_csv(tmp_path / "ref.csv", times, survival, states, (1, 2))
    assert (tmp_path / "o" / "timeseries.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_renormalized_chain_ends_when_trace_reaches_zero():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|, nilpotent
    f0 = state_factor(DensityMatrix.basis_state(2, 1))
    steps = list(renormalized_chain(a, f0, 5))
    assert len(steps) == 1
    p, f = steps[0]
    assert p == 1.0 and np.array_equal(f @ f.conj().T, DensityMatrix.basis_state(2, 0).rho)
    # the end-only chain reaches the same state, and raises at the step that
    # leaves none
    p_end, f_end = renormalized_end(a, f0, 1)
    assert p_end == p and np.array_equal(f_end, f)
    with pytest.raises(ProbabilityUnderflowError, match="conditional probability hit 0.0 at step 2$"):
        renormalized_end(a, f0, 5)
    for chain in (lambda *args: list(renormalized_chain(*args)), renormalized_end):
        with pytest.raises(ProbabilityUnderflowError), np.errstate(over="ignore", invalid="ignore"):
            chain(1e200 * np.eye(2, dtype=complex), f0, 1)


def _max_abs_log_singular_value(a):
    return float(np.max(np.abs(np.log(np.linalg.svd(a, compute_uv=False)))))


def test_chain_block_size_rule():
    rng = np.random.Generator(np.random.PCG64(30))
    # singular: an annihilated component must stay an exact zero
    singular = expm(-1j * 0.05 * _symmetric_eff().matrix()) @ np.diag([1.0, 1.0, 1.0, 0.0])
    assert chain_block_size(singular, 400) == 1
    # a Gram matrix beyond the double range: the chain itself must raise
    with np.errstate(over="ignore", invalid="ignore"):
        assert chain_block_size(1e200 * np.eye(2, dtype=complex), 5) == 1
    # dimension 64 and above: one BLAS-bound product per step
    assert chain_block_size(np.eye(64, dtype=complex), 100) == 1
    assert chain_block_size(np.eye(100, dtype=complex), 100) == 1
    # an isometry caps at min(64, 4096 // d^2, n_steps)
    assert chain_block_size(np.eye(4, dtype=complex), 1000) == 64
    assert chain_block_size(np.eye(16, dtype=complex), 1000) == 16
    assert chain_block_size(np.eye(4, dtype=complex), 10) == 10
    assert chain_block_size(np.eye(4, dtype=complex), 0) == 1
    for scale in (1e-3, 1e-2, 0.1, 0.5, 2.0):
        for _ in range(20):
            a = expm(-1j * scale * (random_hermitian(rng, 4) - 0.5j * random_psd(rng, 4)))
            b = chain_block_size(a, 1000)
            spread = _max_abs_log_singular_value(a)
            # no power in a block scales a vector by more than e, unless one step does
            assert b * spread <= 1 + 1e-12 or b == 1
            # the largest such B below the caps
            assert b == 64 or (b + 1) * spread > 1 - 1e-12


def test_end_block_size_rule():
    rng = np.random.Generator(np.random.PCG64(32))
    # the end-only chain holds no stack: 7 power products (5 squarings) and
    # 2 block products, not 100 steps; of the B that take 9 products, 50
    # leaves no A^tail to hold
    assert end_block_size(np.eye(256, dtype=complex), 256, 100) == 50
    # a pure start at large d: a power costs more than the steps it saves
    assert end_block_size(np.eye(256, dtype=complex), 1, 100) == 1
    # the spread rule and its singular and non-finite exits hold under the new cap
    singular = expm(-1j * 0.05 * _symmetric_eff().matrix()) @ np.diag([1.0, 1.0, 1.0, 0.0])
    assert end_block_size(singular, 4, 400) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        assert end_block_size(1e200 * np.eye(2, dtype=complex), 2, 5) == 1
    assert end_block_size(np.eye(4, dtype=complex), 4, 0) == 1
    # up to d = 8 the caps agree, so the end-only chain takes the stacked chain's B
    for d in (1, 2, 4, 8):
        for scale in (1e-3, 0.1, 2.0):
            a = expm(-1j * scale * (random_hermitian(rng, d) - 0.5j * random_psd(rng, d)))
            for rank in sorted({1, 2, d}):
                for n_steps in (1, 2, 7, 63, 64, 65, 400):
                    assert end_block_size(a, rank, n_steps) == chain_block_size(a, n_steps)


class _CountedMatrix(np.ndarray):
    """A matrix whose matmuls, and those of the products it makes, add to
    the class's count."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
        if ufunc is not np.matmul:
            return result
        _CountedMatrix.products += 1
        return result if out is not None else result.view(_CountedMatrix)


def test_renormalized_end_at_full_rank_256_makes_nine_products(monkeypatch):
    # 100 steps at d = rank = 256: the powers' squarings and digit products
    # and the block products come to 9 d x d products, whichever of the
    # cost model's ties B is; the spread rule's own Gram product is not one
    rng = np.random.Generator(np.random.PCG64(33))
    q, _ = np.linalg.qr(rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)))
    a = q * np.linspace(0.999, 1.0, 256)  # singular values in [0.999, 1]: no spread limit
    f0 = state_factor(DensityMatrix.maximally_mixed(256))
    block_size = zenon.chain.end_block_size
    monkeypatch.setattr(zenon.chain, "end_block_size", lambda a, rank, n: block_size(np.asarray(a), rank, n))
    _CountedMatrix.products = 0
    p, f = renormalized_end(a.view(_CountedMatrix), f0, 100)
    assert _CountedMatrix.products == 9
    p_ref, f_ref = renormalized_end(a, f0, 100)
    assert p == p_ref and np.array_equal(np.asarray(f), f_ref)


def _with_singular_values(rng, log_sigma):
    d = len(log_sigma)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (u * np.exp(log_sigma)) @ v.conj().T


@pytest.mark.parametrize("dim", [32, 64, 128])
def test_certified_spread_rule_is_the_eigenvalue_rule(dim, monkeypatch):
    # 200 matrices of set singular values: cap * max|ln sigma_i| is within
    # 1e-9 of 1 on either side for a quarter, anywhere in [0.1, 3] for the
    # rest; the largest |ln sigma_i| is a sigma below 1 or above 1 in turn
    rng = np.random.Generator(np.random.PCG64(34 + dim))
    spread_block_size = zenon.chain._spread_block_size
    certified = zenon.chain._certified_spread
    proofs = []
    monkeypatch.setattr(zenon.chain, "_certified_spread", lambda h, cap: proofs.append(certified(h, cap)) or proofs[-1])
    cases = []
    for k in range(200):
        cap = int(rng.integers(2, 65))
        reach = 1 + (1e-9 if k % 8 < 2 else -1e-9) * rng.uniform() if k % 4 == 0 else rng.uniform(0.1, 3.0)
        log_sigma = rng.uniform(-reach, reach, dim) / cap
        log_sigma[0] = (-1) ** k * reach / cap
        a = _with_singular_values(rng, log_sigma)
        cases.append((a, cap, reach, spread_block_size(a, cap)))
    monkeypatch.setattr(zenon.chain, "_certified_spread", lambda h, cap: False)
    for a, cap, _, b in cases:
        assert b == spread_block_size(a, cap)
    # the certificates proved the band wherever it holds by a margin, and
    # left every case within 1e-9 of its edge to the eigenvalues
    assert len(proofs) == 200
    for k, ((_, _, reach, _), proof) in enumerate(zip(cases, proofs)):
        assert proof == (reach < 0.999) or (k % 4 and 0.999 <= reach <= 1.001)
        assert not (k % 4 == 0 and proof)


def _chain_matrix():
    a = expm(-1j * 0.05 * _symmetric_eff().matrix())
    assert 1 < chain_block_size(a, 400) and 400 % chain_block_size(a, 400)  # a partial last block
    return a


@pytest.mark.parametrize("start", ["pure", "rank2", "maximally_mixed"])
def test_renormalized_blocks_match_stepwise_oracle(start):
    a = _chain_matrix()
    f0 = state_factor(_CHAIN_STARTS[start])
    blocks = list(renormalized_blocks(a, f0, 400))
    assert len(blocks) == math.ceil(400 / chain_block_size(a, 400))
    p = np.concatenate([ps for ps, _ in blocks])
    fs = np.concatenate([fs for _, fs in blocks])
    oracle = list(stepwise_chain(a, f0, 400))
    assert len(p) == len(fs) == len(oracle) == 400
    for p_k, f_k, (p_ref, f_ref) in zip(p, fs, oracle):
        assert abs(p_k - p_ref) <= 1e-13 * p_ref
        assert frobenius_norm(f_k @ f_k.conj().T - f_ref @ f_ref.conj().T) <= 1e-12
    assert oracle[-1][0] < 0.6  # the chain has decayed, not idled
    # the end-only chain takes the same B, so it ends on the last block's
    # words, after a partial last block and after a single last step
    b = chain_block_size(a, 400)
    for n_steps in (400, 2 * b + 1):
        assert end_block_size(a, f0.shape[1], n_steps) == chain_block_size(a, n_steps) == b
        p_last, f_last = list(renormalized_blocks(a, f0, n_steps))[-1]
        p_end, f_end = renormalized_end(a, f0, n_steps)
        assert np.float64(p_end).view(np.int64) == p_last[-1:].view(np.int64)[0]
        assert np.array_equal(f_end.view(np.int64), f_last[-1].view(np.int64))
    # and so does the filtered protocol state built from it
    cfg = ProtocolConfig(build_symmetric(SymmetricParams(1.0, 0.5, 1.0, 0.3)), AncillaSpec(), 0.05, 400)
    object.__setattr__(cfg, "kraus", a)  # the protocol's step replaced by the chain's
    cs = simulate_conditional(cfg, _CHAIN_STARTS[start])
    last = ConditionalState(rho_c=(fs[-1] * p[-1]) @ fs[-1].conj().T, p=p[-1])
    assert np.float64(cs.p).view(np.int64) == p[-1:].view(np.int64)[0]
    assert np.array_equal(cs.rho_c.view(np.int64), last.rho_c.view(np.int64))


def _mild_contraction(rng, dim):
    """A contraction whose singular values spread little (a long end block)."""
    a = expm(-1j * 0.05 * (random_hermitian(rng, dim) - 0.5j * random_psd(rng, dim) / dim))
    return a / np.linalg.norm(a, 2)


_LARGE_STARTS = {
    "pure": lambda d: random_ket(np.random.Generator(np.random.PCG64(40)), d)[:, None],
    "rank2": lambda d: state_factor(DensityMatrix(_rotated([0.7, 0.3] + [0.0] * (d - 2), 41))),
    "maximally_mixed": lambda d: state_factor(DensityMatrix.maximally_mixed(d)),
}


@pytest.mark.parametrize("dim", [64, 128])
@pytest.mark.parametrize("start", list(_LARGE_STARTS))
def test_renormalized_end_matches_stepwise_oracle_at_large_dimension(dim, start):
    a = _mild_contraction(np.random.Generator(np.random.PCG64(dim)), dim)
    f0 = _LARGE_STARTS[start](dim)
    b = end_block_size(a, f0.shape[1], 100)
    if start == "maximally_mixed":
        # the spread rule's B under the cost model's 50 at n = 100; shorter
        # chains pick their own B
        assert b == {64: 16, 128: 15}[dim]
    oracle = list(stepwise_chain(a, f0, 100))
    for n_steps in sorted({1, b - 1, b, 2 * b + 3, 100} - {0}):
        p, f = renormalized_end(a, f0, n_steps)
        p_ref, f_ref = oracle[n_steps - 1]
        assert abs(p - p_ref) <= 1e-13 * p_ref
        assert frobenius_norm(f @ f.conj().T - f_ref @ f_ref.conj().T) <= 1e-12
    assert oracle[-1][0] < 0.9  # the chain has decayed, not idled


def _random_contraction(rng, dim):
    a = expm(-1j * 0.05 * (random_hermitian(rng, dim) - 0.5j * random_psd(rng, dim)))
    return a / np.linalg.norm(a, 2)


@pytest.mark.parametrize("case", ["singular", "dim64"])
def test_renormalized_chain_is_the_stepwise_chain_bit_for_bit_at_block_size_one(case):
    rng = np.random.Generator(np.random.PCG64(31))
    if case == "singular":
        a = _chain_matrix() @ np.diag([1.0, 1.0, 0.0, 1.0])
        f0 = state_factor(_CHAIN_STARTS["maximally_mixed"])
    else:
        a = _random_contraction(rng, 64)
        f0 = state_factor(DensityMatrix(np.eye(64, dtype=complex) / 64))
    assert chain_block_size(a, 50) == 1
    chain = list(renormalized_chain(a, f0, 50))
    oracle = list(stepwise_chain(a, f0, 50))
    assert len(chain) == len(oracle) == 50
    # word for word, signed zeros included: the in-place scaling by
    # 1 / sqrt(trace) leaves the words of the stepwise chain's division
    for (p, f), (p_ref, f_ref) in zip(chain, oracle):
        assert np.float64(p).view(np.int64) == np.float64(p_ref).view(np.int64)
        assert np.array_equal(f.view(np.int64), f_ref.view(np.int64))
    if case == "singular":  # the end-only chain's B is 1 too: the same single steps
        assert end_block_size(a, f0.shape[1], 50) == 1
        p, f = renormalized_end(a, f0, 50)
        assert np.float64(p).view(np.int64) == np.float64(p_ref).view(np.int64)
        assert np.array_equal(f.view(np.int64), f_ref.view(np.int64))


def test_conditional_final_state_memory_independent_of_sample_count():
    h_eff = _symmetric_eff().matrix()
    rho0 = _CHAIN_STARTS["rank2"]
    peaks = []
    for n_samples in (2_000, 200_000):
        tracemalloc.start()
        try:
            conditional_final_state(h_eff, rho0, 20.0, n_samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 1024


def _rotated(eigenvalues, seed):
    q, _ = np.linalg.qr(random_hermitian(np.random.Generator(np.random.PCG64(seed)), len(eigenvalues)))
    return q @ np.diag(eigenvalues).astype(complex) @ q.conj().T


_CHAIN_STARTS = {
    "pure": DensityMatrix.from_pure(random_ket(np.random.Generator(np.random.PCG64(20)), 4)),
    "rank2": DensityMatrix(_rotated([0.7, 0.3, 0.0, 0.0], 21)),
    "maximally_mixed": DensityMatrix.maximally_mixed(4),
    "zero_eigenvalue": DensityMatrix(_rotated([0.5, 0.3, 0.2, 0.0], 22)),
}


@pytest.mark.parametrize("start", list(_CHAIN_STARTS))
def test_renormalized_chain_matches_density_matrix_oracle(start):
    rho0 = _CHAIN_STARTS[start]
    a = expm(-1j * 0.05 * _symmetric_eff().matrix())
    factor = list(renormalized_chain(a, state_factor(rho0), 400))
    oracle = list(rho_chain(a, rho0.rho, 400))
    assert len(factor) == len(oracle) == 400
    for (p, f), (p_ref, rho_ref) in zip(factor, oracle):
        assert abs(p - p_ref) <= 1e-13 * p_ref
        assert frobenius_norm(f @ f.conj().T - rho_ref) <= 1e-12
    assert oracle[-1][0] < 0.6  # the chain has decayed, not idled


def test_state_factor_rebuilds_rho_and_drops_non_positive_eigenvalues():
    rho = np.diag([0.6, 0.0, 0.4, -1e-13]).astype(complex)
    f = state_factor(DensityMatrix(rho))
    assert f.shape == (4, 2)
    assert frobenius_norm(f @ f.conj().T - np.diag([0.6, 0.0, 0.4, 0.0])) < 1e-15
    for dm in _CHAIN_STARTS.values():
        f = state_factor(dm)
        assert frobenius_norm(f @ f.conj().T - dm.rho) < 1e-14
        assert abs(frobenius_norm(f) - 1.0) < 1e-15
    assert state_factor(_CHAIN_STARTS["maximally_mixed"]).shape == (4, 4)
    # rounding noise in the zero eigenvalues adds no column
    assert state_factor(_CHAIN_STARTS["rank2"]).shape == (4, 2)
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(12):
        assert state_factor(DensityMatrix.from_pure(random_ket(rng, 4))).shape == (4, 1)


def _criterion7_case0():
    rng = np.random.Generator(np.random.PCG64((7000, 0)))
    h0 = random_hermitian(rng, 4)
    gamma = random_psd(rng, 4)
    tau = float(rng.uniform(0.05, 0.3))
    t = float(rng.uniform(0.2, 0.8))
    eff = EffectiveHamiltonian(h0=h0, gamma=gamma, tau=tau)
    return eff, DensityMatrix.from_pure(random_ket(rng, 4)), t


def test_integrate_nonlinear_pure_state_stays_a_state_at_a_coarse_step():
    # criterion-7 case 0 at dt ||H_eff|| = 0.02: a pure start has three zero
    # eigenvalues, which a coarse step must not push below 0
    eff, rho0, t = _criterion7_case0()
    out = integrate_nonlinear(eff, rho0, t, 0.02 / frobenius_norm(eff.matrix()))
    assert frobenius_norm(out.rho - normalize(evolve_conditional(eff, rho0, t)).rho) < 1e-6


def test_integrate_nonlinear_norm_drift_is_numerical_error():
    # half the step limit, about ten times the default step: the per-step norm
    # drift (about 5e-11) breaks 1e-12, a run-time failure, not bad input
    eff, rho0, t = _criterion7_case0()
    dt = 0.5 * STEP_NORM_LIMIT / frobenius_norm(eff.matrix())
    with pytest.raises(NumericalError, match="drift"):
        integrate_nonlinear(eff, rho0, t, dt)


def test_integrate_pure_nonlinear_memory_independent_of_step_count():
    # the step schedule is iterated, not built as a list of every step
    eff = EffectiveHamiltonian(
        h0=np.diag([0.5, -0.5]).astype(complex), gamma=np.diag([1.0, 0.0]).astype(complex), tau=0.1
    )
    rho0 = DensityMatrix.from_pure(np.array([1.0, 1.0]) / math.sqrt(2))  # a one-column factor
    dt = default_time_step(eff)
    peaks = []
    for n_steps in (500, 3_000):
        tracemalloc.start()
        try:
            integrate_nonlinear(eff, rho0, n_steps * dt, dt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 16 * 1024


@pytest.mark.parametrize("start", ["pure", "rank2", "maximally_mixed"])
def test_integrate_nonlinear_matches_density_matrix_rk4_oracle(start):
    eff = _symmetric_eff(gamma_xy=0.6, gamma_z=0.25, g_xy=1.1, g_z=0.15, tau=0.08)
    rho0 = _CHAIN_STARTS[start]
    dt = default_time_step(eff) / 5  # fine enough that both RK4 errors sit at rounding
    out = integrate_nonlinear(eff, rho0, 0.9, dt)
    assert frobenius_norm(out.rho - rho_rk4(eff, rho0.rho, 0.9, dt)) < 1e-12


def _random_factor(rng, dim: int, rank: int) -> np.ndarray:
    f = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return f / np.linalg.norm(f)


@pytest.mark.parametrize("dim, r", [(d, r) for d in (1, 2, 3, 4, 8) for r in sorted({1, min(2, d), d})])
@pytest.mark.parametrize("step", ["default", "coarse"])
def test_krylov_rk4_matches_the_stagewise_rk4(dim, r, step):
    # the Krylov-basis step against the stage-by-stage one it replaced, on
    # pure, rank-2 and full-rank factors: the default step, and
    # dt ||H_eff||_F = 0.02 with a shorter last step
    rng = np.random.Generator(np.random.PCG64((3100, dim, r)))
    eff = EffectiveHamiltonian(
        h0=random_hermitian(rng, dim), gamma=random_psd(rng, dim), tau=float(rng.uniform(0.05, 0.3))
    )
    f = _random_factor(rng, dim, r)
    t = 0.37
    dt = None if step == "default" else 0.02 / frobenius_norm(eff.matrix())
    if dt is not None:
        assert t / dt - math.floor(t / dt) > 0.01  # a shorter last step is taken
    try:
        expected = stagewise_factor_rk4(eff, f, t, dt)
    except NumericalError:
        # at the coarse step the 1e-12 drift rule fires on some small draws,
        # where ||A||_2 is close to ||A||_F: the Krylov step must fire it too
        with pytest.raises(NumericalError, match="norm drift"):
            _integrate_factor(eff, f, t, dt)
        return
    out = _integrate_factor(eff, f, t, dt)
    assert out.shape == f.shape
    assert frobenius_norm(out - expected) <= 1e-13


@pytest.mark.parametrize("dim", [1, 3])
def test_krylov_rk4_leaves_f_unchanged_when_a_is_zero(dim):
    zero = np.zeros((dim, dim))
    eff = EffectiveHamiltonian(h0=zero, gamma=zero, tau=0.1)
    f = _random_factor(np.random.Generator(np.random.PCG64((3101, dim))), dim, dim)
    out = _integrate_factor(eff, f, 0.05, None)
    assert frobenius_norm(out - f) <= 1e-15
    assert frobenius_norm(out - stagewise_factor_rk4(eff, f, 0.05, None)) <= 1e-15
    ket = np.eye(dim, 1, dtype=complex)
    assert np.array_equal(_integrate_factor(eff, ket, 0.05, None), ket)

