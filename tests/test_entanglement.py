import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIG5_REALIZATIONS,
    anisotropic_block_coefficients,
    anisotropic_effective_matrix,
    random_anisotropic_params,
    random_ket,
    random_symmetric_params,
    symmetric_odd_block,
    taylor_expm,
)
from zenon.dynamics import DensityMatrix
from zenon.effective import AncillaSpec, derive_effective
from zenon.entanglement import (
    BELL_STATES,
    FIG5_REGIMES,
    EffectiveBlockParams,
    TwoLevelBlockParams,
    bell_fidelity,
    block_decompose,
    block_propagator,
    coherence,
    concurrence,
    embed_block_state,
    evolve_block_state,
    fig4_coherence_rows,
    fig4_population_rows,
    fig5_rows,
    survival_probability,
    transition_probability,
)
from zenon.errors import (
    BadDimensionError,
    NotBlockDiagonalError,
    NotPSDError,
    NumericalError,
    ValidationError,
)
from zenon.linalg import frobenius_norm
from zenon.spin_models import SymmetricParams, build_anisotropic, build_symmetric


def test_effective_block_params_from_block():
    block = EffectiveBlockParams.from_block(TwoLevelBlockParams(0.0, 0.0, 0.4, -0.1, sector="minus"))
    assert (block.gamma, block.g) == (0.4, 0.1)
    with pytest.raises(ValidationError, match="odd-parity"):
        EffectiveBlockParams.from_block(TwoLevelBlockParams(0.0, 0.0, 0.4, -0.1, sector="plus"))
    # An Omega within BLOCK_TOL max(1, |omega|, scale) is the generator's rounding and is
    # dropped; a larger one is a numerical failure, since no symmetric model has one.
    for mu_z, nu_z, scale in ((5.551115123125783e-17, 0.0, 1.0), (0.0, -1e-10, 1.0), (5e-9, 0.0, 100.0)):
        block = EffectiveBlockParams.from_block(TwoLevelBlockParams(mu_z, nu_z, 0.4, -0.1, "minus"), scale=scale)
        assert (block.gamma, block.g) == (0.4, 0.1)
    for mu_z, nu_z, scale in ((1e-9, 0.0, 1.0), (0.0, -2e-10, 1.0), (2e-8, 0.0, 100.0), (0.3, 0.0, 1.0)):
        with pytest.raises(NumericalError, match="Omega"):
            EffectiveBlockParams.from_block(TwoLevelBlockParams(mu_z, nu_z, 0.4, -0.1, "minus"), scale=scale)
    with pytest.raises(ValidationError, match="damping rate"):  # an amplifying block
        EffectiveBlockParams.from_block(TwoLevelBlockParams(0.0, 0.0, 0.4, 0.1, sector="minus"))
    with pytest.raises(ValidationError):
        EffectiveBlockParams(gamma=1.0, g=-0.1)


# Couplings whose two odd-sector diagonal entries round differently, so the derived
# Omega is a few ulps of the generator's entries instead of exactly 0:
# (-gamma_z + g_z) - g_z and (-gamma_z - g_z) + g_z fall in different binades.
ROUNDING_OMEGA_MODELS = [
    SymmetricParams(gamma_xy=0.1, gamma_z=-0.1, g_xy=1.0, g_z=1.0),
    SymmetricParams(gamma_xy=0.1, gamma_z=0.3, g_xy=1.0, g_z=2.0**23),
]


def test_from_block_of_the_derived_odd_block_matches_the_hand_rates():
    rng = np.random.Generator(np.random.PCG64(4716))
    models = [(p, 0.05) for p in ROUNDING_OMEGA_MODELS]
    models += [(random_symmetric_params(rng), float(rng.uniform(0.001, 1.0))) for _ in range(300)]
    for p, tau in models:
        m = derive_effective(build_symmetric(p), AncillaSpec(), tau).matrix()
        plus, minus = block_decompose(m)
        for field in ("mu_z", "nu_z", "mu_x", "nu_x"):
            assert type(getattr(plus, field)) is float and type(getattr(minus, field)) is float
        if p in ROUNDING_OMEGA_MODELS:
            assert minus.omega_z != 0
        block = EffectiveBlockParams.from_block(minus, scale=frobenius_norm(m))
        gamma, g = symmetric_odd_block(p, tau)
        assert block.gamma == pytest.approx(gamma, rel=1e-15, abs=0.0)
        assert block.g == pytest.approx(g, rel=1e-15, abs=0.0)


def test_two_level_block_params():
    with pytest.raises(ValidationError):
        TwoLevelBlockParams(0.0, 0.0, 1.0, 0.0, sector="diagonal")
    b = TwoLevelBlockParams(0.1, 0.2, 0.3, 0.4, sector="plus")
    m = b.matrix()
    assert m[0, 0] == complex(0.1, 0.2)
    assert m[1, 1] == -complex(0.1, 0.2)
    assert m[0, 1] == m[1, 0] == complex(0.3, 0.4)


def test_closed_forms_at_time_zero():
    block = EffectiveBlockParams(gamma=0.7, g=0.2)
    assert transition_probability(block, 0.0) == 0.0
    assert survival_probability(block, 0.0) == 1.0
    assert coherence(block, 0.0) == 0.0
    with pytest.raises(ValidationError):
        transition_probability(block, -1.0)


def test_closed_forms_long_time_asymptotes_and_stability():
    block = EffectiveBlockParams(gamma=1.0, g=0.5)
    for t in (50.0, 1e3, 1e6):
        assert abs(transition_probability(block, t) - 0.5) < 1e-12
        assert abs(survival_probability(block, t) - 0.5) < 1e-12
        c = coherence(block, t)
        assert abs(c.real + 0.5) < 1e-12 and abs(c.imag) < 1e-12


def test_closed_forms_undamped_limit_is_rabi():
    block = EffectiveBlockParams(gamma=0.9, g=0.0)
    for t in (0.3, 1.1, 2.0):
        assert transition_probability(block, t) == pytest.approx(
            np.sin(0.9 * t) ** 2, abs=1e-14
        )


@given(
    st.floats(0.0, 5.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 50.0),
)
@settings(max_examples=100, deadline=None)
def test_probabilities_sum_to_one_and_coherence_bounded(gamma, g, t):
    block = EffectiveBlockParams(gamma=gamma, g=g)
    pt = transition_probability(block, t)
    ps = survival_probability(block, t)
    assert abs(pt + ps - 1.0) < 1e-14
    assert 0.0 <= pt <= 1.0
    assert abs(coherence(block, t)) <= 0.5 + 1e-12


def test_closed_forms_match_block_evolution_oracle():
    block = EffectiveBlockParams(gamma=0.8, g=0.3)
    h_block = np.array([[0.0, 0.8 - 0.3j], [0.8 - 0.3j, 0.0]])
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for t in (0.5, 1.5, 3.0):
        psi = taylor_expm(-1j * t * h_block, terms=40) @ psi0
        psi = psi / np.linalg.norm(psi)
        assert abs(abs(psi[0]) ** 2 - survival_probability(block, t)) < 1e-12
        assert abs(abs(psi[1]) ** 2 - transition_probability(block, t)) < 1e-12
        assert abs(psi[0] * psi[1].conj() - coherence(block, t)) < 1e-12


def test_block_decompose_reads_off_coefficients():
    omega_zp, omega_xp = 0.3 + 0.1j, 1.2 - 0.4j
    omega_zm, omega_xm = -0.2 + 0.05j, 0.7 + 0.9j
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[3, 3] = omega_zp, -omega_zp
    m[0, 3] = m[3, 0] = omega_xp
    m[1, 1], m[2, 2] = omega_zm, -omega_zm
    m[1, 2] = m[2, 1] = omega_xm
    m += (0.05 - 0.02j) * np.eye(4)  # identity part must be ignored
    plus, minus = block_decompose(m)
    assert plus.sector == "plus" and minus.sector == "minus"
    assert abs(plus.omega_z - omega_zp) < 1e-14
    assert abs(plus.omega_x - omega_xp) < 1e-14
    assert abs(minus.omega_z - omega_zm) < 1e-14
    assert abs(minus.omega_x - omega_xm) < 1e-14


def test_block_decompose_rejections():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    m[1, 0] = 1.0
    with pytest.raises(NotBlockDiagonalError):
        block_decompose(m)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 3], m[3, 0] = 1.0, -1.0
    with pytest.raises(NotBlockDiagonalError):
        block_decompose(m)
    with pytest.raises(BadDimensionError):
        block_decompose(np.zeros((3, 3)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_block_decompose_matches_coefficient_oracle(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = random_anisotropic_params(rng)
    tau = float(rng.uniform(0.01, 0.5))
    plus, minus = block_decompose(anisotropic_effective_matrix(p, tau))
    ozp, oxp, ozm, oxm = anisotropic_block_coefficients(p, tau)
    scale = max(1.0, abs(ozp), abs(oxp), abs(ozm), abs(oxm))
    assert abs(plus.omega_z - ozp) < 1e-12 * scale
    assert abs(plus.omega_x - oxp) < 1e-12 * scale
    assert abs(minus.omega_z - ozm) < 1e-12 * scale
    assert abs(minus.omega_x - oxm) < 1e-12 * scale


def test_block_decompose_of_derived_generator_hits_published_regimes():
    for name, params in FIG5_REALIZATIONS.items():
        eff = derive_effective(build_anisotropic(params), AncillaSpec(), 1.0)
        plus, _ = block_decompose(eff.matrix())
        target = FIG5_REGIMES[name]
        assert abs(plus.omega_z - target.omega_z) < 1e-12, name
        assert abs(plus.omega_x - target.omega_x) < 1e-12, name


def test_block_propagator_identity_at_t_zero():
    b = TwoLevelBlockParams(0.3, -0.2, 1.1, 0.4, sector="plus")
    assert np.allclose(block_propagator(b, 0.0), np.eye(2))


@pytest.mark.parametrize(
    "fields",
    [
        (0.0, 0.0, 1.0, 0.0),
        (0.5, 0.0, 0.8, -0.3),
        (0.1, 0.1, 1.0, 1.0),
        (0.01, 0.01, 1.0, 0.1),
        (0.1, 0.1, 1.0, 10.0),
        (2.0, -1.5, 0.0, 0.0),
    ],
)
def test_block_propagator_matches_series_oracle(fields):
    b = TwoLevelBlockParams(*fields, sector="plus")
    for t in (0.1, 0.7, 2.0):
        direct = taylor_expm(-1j * t * b.matrix(), terms=80)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(block_propagator(b, t) - direct)) < 1e-10 * scale


def test_block_propagator_exceptional_point():
    # Omega = i a, omega = a makes nu = 0 with a nonzero generator; the
    # exponential truncates exactly to 1 - i M t there
    a = 0.8
    b = TwoLevelBlockParams(mu_z=0.0, nu_z=a, mu_x=a, nu_x=0.0, sector="plus")
    m = b.matrix()
    assert abs((m @ m).sum()) < 1e-14
    for t in (0.5, 2.0, 7.0):
        expected = np.eye(2) - 1j * t * m
        assert np.max(np.abs(block_propagator(b, t) - expected)) < 1e-8 * max(1.0, t)


def test_block_propagator_continuous_across_series_threshold():
    b = TwoLevelBlockParams(0.0, 0.0, 1.0, 0.0, sector="plus")
    below = block_propagator(b, 0.9e-8)
    above = block_propagator(b, 1.1e-8)
    assert np.max(np.abs(below - above)) < 1e-7


def test_evolve_block_state_matches_propagator():
    b = TwoLevelBlockParams(0.2, -0.1, 0.9, -0.4, sector="minus")
    psi0 = np.array([0.6, 0.8j])
    for t in (0.4, 1.3, 3.7):
        u = block_propagator(b, t) @ psi0
        u = u / np.linalg.norm(u)
        assert np.max(np.abs(evolve_block_state(b, psi0, t) - u)) < 1e-12


def test_evolve_block_state_overflow_safe():
    b = TwoLevelBlockParams(0.0, 0.0, 1.0, -50.0, sector="minus")
    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi = evolve_block_state(b, psi0, 100.0)  # |Im nu| t ~ 5000
    assert np.all(np.isfinite(psi.view(float)))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    # composing moderate steps must land on the same ray
    step = psi0
    for _ in range(100):
        step = evolve_block_state(b, step, 1.0)
    assert np.max(np.abs(step - psi)) < 1e-8


def test_evolve_block_state_validation():
    b = TwoLevelBlockParams(0.0, 0.0, 1.0, 0.0, sector="plus")
    with pytest.raises(BadDimensionError):
        evolve_block_state(b, np.ones(3), 1.0)
    with pytest.raises(ValidationError):
        evolve_block_state(b, np.zeros(2), 1.0)


def test_bell_states_orthonormal():
    mat = np.array([BELL_STATES[k] for k in sorted(BELL_STATES)])
    assert np.allclose(mat @ mat.conj().T, np.eye(4), atol=1e-15)


def test_bell_fidelity_examples():
    for name, vec in BELL_STATES.items():
        rho = DensityMatrix.from_pure(vec)
        assert bell_fidelity(rho, name) == pytest.approx(1.0, abs=1e-14)
    rho = DensityMatrix.from_pure(BELL_STATES["psi_minus"])
    assert bell_fidelity(rho, "psi_plus") == pytest.approx(0.0, abs=1e-14)
    assert bell_fidelity(DensityMatrix.maximally_mixed(4), "phi_plus") == pytest.approx(0.25)
    with pytest.raises(ValidationError):
        bell_fidelity(rho, "psi")


def test_concurrence_reference_values():
    assert concurrence(DensityMatrix.basis_state(4, 0)) == pytest.approx(0.0, abs=1e-8)
    for vec in BELL_STATES.values():
        assert concurrence(DensityMatrix.from_pure(vec)) == pytest.approx(1.0, abs=1e-10)
    assert concurrence(DensityMatrix.maximally_mixed(4)) == pytest.approx(0.0, abs=1e-10)
    product = np.kron(np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, 0.0]))
    assert concurrence(DensityMatrix.from_pure(product)) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(NotPSDError):
        concurrence(np.diag([0.6, 0.5, 0.0, -0.1]))


def test_concurrence_matches_exact_pure_state_formula():
    rng = np.random.Generator(np.random.PCG64(2245))
    for _ in range(200):
        a, b, c, d = random_ket(rng, 4)
        exact = 2.0 * abs(a * d - b * c)  # |psi^T (sy x sy) psi|
        assert abs(concurrence(DensityMatrix.from_pure([a, b, c, d])) - exact) < 1e-14


def test_concurrence_partially_entangled_and_werner():
    theta = np.pi / 8
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.cos(theta), np.sin(theta)
    assert concurrence(DensityMatrix.from_pure(psi)) == pytest.approx(
        np.sin(2 * theta), abs=1e-10
    )
    bell = BELL_STATES["psi_minus"]
    for p, expected in ((0.6, 0.4), (0.2, 0.0)):
        rho = p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4
        assert concurrence(DensityMatrix(rho)) == pytest.approx(expected, abs=1e-10)


def test_embed_block_state():
    assert np.array_equal(
        embed_block_state([0.6, 0.8], "plus"), np.array([0.6, 0, 0, 0.8], dtype=complex)
    )
    assert np.array_equal(
        embed_block_state([0.6, 0.8], "minus"), np.array([0, 0.6, 0.8, 0], dtype=complex)
    )
    with pytest.raises(BadDimensionError):
        embed_block_state([1.0, 0.0, 0.0], "plus")


def test_damped_block_converges_to_singlet():
    p = SymmetricParams(gamma_xy=0.1, gamma_z=0.5, g_xy=1.0, g_z=0.3)
    _, minus = block_decompose(derive_effective(build_symmetric(p), AncillaSpec(), 0.05).matrix())
    t = 75.0 / minus.mu_x  # tanh(2 g t) = tanh(75), fully saturated
    psi = embed_block_state(evolve_block_state(minus, [1.0, 0.0], t), "minus")
    rho = DensityMatrix.from_pure(psi)
    assert bell_fidelity(rho, "psi_minus") > 1.0 - 1e-10
    assert concurrence(rho) > 1.0 - 1e-9


def test_fig4_rows_structure_and_asymptotes():
    p = SymmetricParams(gamma_xy=0.1, gamma_z=0.5, g_xy=1.0, g_z=0.3)
    block = EffectiveBlockParams(*symmetric_odd_block(p, 0.05))
    pops = fig4_population_rows(block, gt_max=15.0, n_samples=400)
    assert len(pops) == 400
    assert pops[0] == (0.0, 0.0, 1.0)
    assert pops[-1][0] == 15.0
    assert abs(pops[-1][1] - 0.5) < 1e-5 and abs(pops[-1][2] - 0.5) < 1e-5
    cohs = fig4_coherence_rows(block, gt_max=15.0, n_samples=400)
    assert len(cohs) == 400 and cohs[0] == (0.0, 0.0, 0.0)
    assert abs(cohs[-1][1] + 0.5) < 1e-5
    with pytest.raises(ValidationError):
        fig4_population_rows(EffectiveBlockParams(gamma=0.0, g=0.1))


def test_fig5_rows_structure_and_consistency():
    block = FIG5_REGIMES["c"]
    rows = fig5_rows(block, mxt_max=40.0, n_samples=100)
    assert len(rows) == 100
    assert rows[0] == (0.0, 0.0, 0.0, 0.0)
    mxt, pop11, re_coh, im_coh = rows[57]
    psi = evolve_block_state(block, np.array([1.0, 0.0]), mxt / block.mu_x)
    assert abs(pop11 - abs(psi[1]) ** 2) < 1e-12
    coh = psi[0] * np.conj(psi[1])
    assert abs(re_coh - coh.real) < 1e-12 and abs(im_coh - coh.imag) < 1e-12
    with pytest.raises(ValidationError):
        fig5_rows(TwoLevelBlockParams(0.0, 0.0, 0.0, 1.0, sector="plus"))
    with pytest.raises(ValidationError):
        fig5_rows(TwoLevelBlockParams(0.0, 0.0, 1.0, 0.0, sector="minus"))


def test_fig5_strong_damping_reaches_even_bell_state():
    rows = fig5_rows(FIG5_REGIMES["c"], mxt_max=40.0, n_samples=400)
    psi = evolve_block_state(
        FIG5_REGIMES["c"], np.array([1.0, 0.0]), 40.0 / FIG5_REGIMES["c"].mu_x
    )
    rho = DensityMatrix.from_pure(embed_block_state(psi, "plus"))
    assert bell_fidelity(rho, "phi_plus") > 0.99
    assert abs(rows[-1][1] - abs(psi[1]) ** 2) < 1e-12


def test_fig5_regimes_are_distinct():
    finals = {}
    for name, block in FIG5_REGIMES.items():
        rows = fig5_rows(block, mxt_max=40.0, n_samples=400)
        finals[name] = np.array([r[1] for r in rows])
    for a, b in (("a", "b"), ("a", "c"), ("b", "c")):
        assert np.max(np.abs(finals[a] - finals[b])) > 0.05
