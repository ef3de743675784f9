import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIG5_REALIZATIONS,
    FIG5_REGIMES,
    anisotropic_block_coefficients,
    anisotropic_effective_matrix,
    block_matrix,
    coherence,
    random_anisotropic_params,
    random_ket,
    random_symmetric_params,
    survival_probability,
    symmetric_odd_block,
    taylor_expm,
    transition_probability,
)
from zenon.dynamics import DensityMatrix
from zenon.effective import AncillaSpec, derive_effective
from zenon.entanglement import (
    BELL_STATES,
    TwoLevelBlockParams,
    bell_fidelity,
    block_decompose,
    block_propagator,
    block_rows,
    concurrence,
    embed_block_state,
    evolve_block_state,
    fig5_rows,
)
from zenon.errors import (
    BadDimensionError,
    NotBlockDiagonalError,
    ValidationError,
)
from zenon.spin_models import SymmetricParams, build_anisotropic, build_symmetric


def odd_block(gamma: float, g: float) -> TwoLevelBlockParams:
    """The odd-parity block omega sx with omega = gamma - i g, the closed forms' block."""
    return TwoLevelBlockParams(0.0, 0.0, gamma, -g, sector="minus")


def row_at(block: TwoLevelBlockParams, t: float):
    """(t_row, pop01, pop10, coh) of block_rows' last row, on the axis through
    mu_x * t; t_row is the time block_rows used, t to rounding."""
    x, pop01, pop10, re_coh, im_coh = block_rows(block, block.mu_x * t, 2)[-1]
    return x / block.mu_x, pop01, pop10, complex(re_coh, im_coh)


def assert_rows_match_the_closed_forms(gamma: float, g: float, rows, atol: float) -> None:
    for x, pop01, pop10, re_coh, im_coh in rows:
        t = x / gamma
        assert abs(pop10 - transition_probability(gamma, g, t)) <= atol, t
        assert abs(pop01 - survival_probability(gamma, g, t)) <= atol, t
        assert abs(complex(re_coh, im_coh) - coherence(gamma, g, t)) <= atol, t


# Couplings whose two odd-sector diagonal entries round differently, so the derived
# Omega is a few ulps of the generator's entries instead of exactly 0:
# (-gamma_z + g_z) - g_z and (-gamma_z - g_z) + g_z fall in different binades.
ROUNDING_OMEGA_MODELS = [
    SymmetricParams(gamma_xy=0.1, gamma_z=-0.1, g_xy=1.0, g_z=1.0),
    SymmetricParams(gamma_xy=0.1, gamma_z=0.3, g_xy=1.0, g_z=2.0**23),
]


def test_derived_odd_block_matches_the_hand_rates():
    rng = np.random.Generator(np.random.PCG64(4716))
    models = [(p, 0.05) for p in ROUNDING_OMEGA_MODELS]
    models += [(random_symmetric_params(rng), float(rng.uniform(0.001, 1.0))) for _ in range(300)]
    for p, tau in models:
        m = derive_effective(build_symmetric(p), AncillaSpec(), tau).matrix()
        plus, minus = block_decompose(m)
        for field in ("mu_z", "nu_z", "mu_x", "nu_x"):
            assert type(getattr(plus, field)) is float and type(getattr(minus, field)) is float
        gamma, g = symmetric_odd_block(p, tau)
        assert minus.mu_x == pytest.approx(gamma, rel=1e-15, abs=0.0)
        assert -minus.nu_x == pytest.approx(g, rel=1e-15, abs=0.0)
        if p in ROUNDING_OMEGA_MODELS:
            assert minus.omega_z != 0
        else:  # the derived block's curves are the closed forms of the hand rates
            rows = block_rows(minus, math.copysign(15.0, gamma), 50)
            assert_rows_match_the_closed_forms(gamma, g, rows, 1e-14)


def test_two_level_block_params():
    with pytest.raises(ValidationError):
        TwoLevelBlockParams(0.0, 0.0, 1.0, 0.0, sector="diagonal")
    b = TwoLevelBlockParams(0.1, 0.2, 0.3, 0.4, sector="plus")
    m = block_matrix(b)
    assert m[0, 0] == complex(0.1, 0.2)
    assert m[1, 1] == -complex(0.1, 0.2)
    assert m[0, 1] == m[1, 0] == complex(0.3, 0.4)


def test_closed_forms_at_time_zero():
    block = odd_block(0.7, 0.2)
    assert block_rows(block, 1.0)[0] == (0.0, 1.0, 0.0, 0.0, 0.0)
    assert transition_probability(0.7, 0.2, 0.0) == 0.0
    assert survival_probability(0.7, 0.2, 0.0) == 1.0
    assert coherence(0.7, 0.2, 0.0) == 0.0
    for gamma, x_max in ((0.7, -1.0), (-0.7, 1.0)):  # t = x_max / gamma < 0
        with pytest.raises(ValidationError, match="t >= 0"):
            block_rows(odd_block(gamma, 0.2), x_max)
    with pytest.raises(ValidationError):
        transition_probability(0.7, 0.2, -1.0)


def test_closed_forms_long_time_asymptotes_and_stability():
    block = odd_block(1.0, 0.5)
    for t in (50.0, 1e3, 1e6):
        t, pop01, pop10, coh = row_at(block, t)
        assert abs(pop10 - 0.5) < 1e-12 and abs(pop01 - 0.5) < 1e-12
        assert abs(coh.real + 0.5) < 1e-12 and abs(coh.imag) < 1e-12
        assert abs(pop10 - transition_probability(1.0, 0.5, t)) < 1e-14
        assert abs(coh - coherence(1.0, 0.5, t)) < 1e-14


def test_closed_forms_undamped_limit_is_rabi():
    block = odd_block(0.9, 0.0)
    for t in (0.3, 1.1, 2.0):
        t, _, pop10, _ = row_at(block, t)
        assert pop10 == pytest.approx(np.sin(0.9 * t) ** 2, abs=1e-14)
        assert transition_probability(0.9, 0.0, t) == pytest.approx(np.sin(0.9 * t) ** 2, abs=1e-14)


@given(
    st.floats(0.01, 5.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 50.0),
)
@settings(max_examples=100, deadline=None)
def test_probabilities_sum_to_one_and_coherence_bounded(gamma, g, t):
    t, pop01, pop10, coh = row_at(odd_block(gamma, g), t)
    assert abs(pop10 + pop01 - 1.0) < 1e-14
    assert 0.0 <= pop10 <= 1.0 and 0.0 <= pop01 <= 1.0
    assert abs(coh) <= 0.5 + 1e-12
    # both routes take the phase gamma t to rounding, so they part by ulps of it
    tol = 1e-14 * max(1.0, gamma * t)
    assert abs(pop10 - transition_probability(gamma, g, t)) < tol
    assert abs(pop01 - survival_probability(gamma, g, t)) < tol
    assert abs(coh - coherence(gamma, g, t)) < tol


def test_closed_forms_match_block_evolution_oracle():
    block = odd_block(0.8, 0.3)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for t in (0.5, 1.5, 3.0):
        t, pop01, pop10, coh = row_at(block, t)
        psi = taylor_expm(-1j * t * block_matrix(block), terms=40) @ psi0
        psi = psi / np.linalg.norm(psi)
        assert abs(abs(psi[0]) ** 2 - pop01) < 1e-12
        assert abs(abs(psi[1]) ** 2 - pop10) < 1e-12
        assert abs(psi[0] * psi[1].conj() - coh) < 1e-12
        assert abs(abs(psi[0]) ** 2 - survival_probability(0.8, 0.3, t)) < 1e-12
        assert abs(abs(psi[1]) ** 2 - transition_probability(0.8, 0.3, t)) < 1e-12
        assert abs(psi[0] * psi[1].conj() - coherence(0.8, 0.3, t)) < 1e-12


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
        direct = taylor_expm(-1j * t * block_matrix(b), terms=80)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(block_propagator(b, t) - direct)) < 1e-10 * scale


def test_block_propagator_exceptional_point():
    # Omega = i a, omega = a makes nu = 0 with a nonzero generator; the
    # exponential truncates exactly to 1 - i M t there
    a = 0.8
    b = TwoLevelBlockParams(mu_z=0.0, nu_z=a, mu_x=a, nu_x=0.0, sector="plus")
    m = block_matrix(b)
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


def test_entanglement_measures_take_a_raw_matrix_only_as_a_state():
    # unit trace and Hermitian, but not PSD: a bad input (exit 2), not a number
    not_a_state = np.diag([2.0, -1.0, 0.0, 0.0])
    for measure in (lambda m: bell_fidelity(m, "phi_plus"), concurrence):
        with pytest.raises(ValidationError, match="not PSD"):
            measure(not_a_state)
    bell = BELL_STATES["phi_plus"]
    assert bell_fidelity(np.outer(bell, bell.conj()), "phi_plus") == pytest.approx(1.0, abs=1e-14)


def test_concurrence_reference_values():
    assert concurrence(DensityMatrix.basis_state(4, 0)) == pytest.approx(0.0, abs=1e-8)
    for vec in BELL_STATES.values():
        assert concurrence(DensityMatrix.from_pure(vec)) == pytest.approx(1.0, abs=1e-10)
    assert concurrence(DensityMatrix.maximally_mixed(4)) == pytest.approx(0.0, abs=1e-10)
    product = np.kron(np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, 0.0]))
    assert concurrence(DensityMatrix.from_pure(product)) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValidationError):
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
    for sector in ("Plus", "bogus", None):
        with pytest.raises(ValidationError, match="sector"):
            embed_block_state([0.6, 0.8], sector)


def test_damped_block_converges_to_singlet():
    p = SymmetricParams(gamma_xy=0.1, gamma_z=0.5, g_xy=1.0, g_z=0.3)
    _, minus = block_decompose(derive_effective(build_symmetric(p), AncillaSpec(), 0.05).matrix())
    t = 75.0 / minus.mu_x  # tanh(2 g t) = tanh(75), fully saturated
    psi = embed_block_state(evolve_block_state(minus, [1.0, 0.0], t), "minus")
    rho = DensityMatrix.from_pure(psi)
    assert bell_fidelity(rho, "psi_minus") > 1.0 - 1e-10
    assert concurrence(rho) > 1.0 - 1e-9


def test_fig4_rows_structure_and_asymptotes():
    # block gamma = 0.2, g = 0.1: the gamma = 2 g regime of the bundled fig4
    gamma, g = symmetric_odd_block(SymmetricParams(gamma_xy=0.1, gamma_z=0.5, g_xy=1.0, g_z=0.3), 0.05)
    rows = block_rows(odd_block(gamma, g), 15.0, 400)
    assert len(rows) == 400
    assert rows[0] == (0.0, 1.0, 0.0, 0.0, 0.0)
    assert rows[-1][0] == 15.0
    _, pop01, pop10, re_coh, _ = rows[-1]
    assert abs(pop10 - 0.5) < 1e-5 and abs(pop01 - 0.5) < 1e-5 and abs(re_coh + 0.5) < 1e-5
    assert_rows_match_the_closed_forms(gamma, g, rows, 1e-14)
    with pytest.raises(ValidationError, match="mu_x"):
        block_rows(odd_block(0.0, 0.1), 15.0)


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


@pytest.mark.parametrize("n_samples", [0, 1])
@pytest.mark.parametrize("rows", [block_rows, fig5_rows])
def test_figure_rows_need_two_samples(rows, n_samples):
    # the grid x_max k / (n_samples - 1): one sample divides by zero, none makes an empty figure
    with pytest.raises(ValidationError, match=f"^n_samples must be at least 2, got {n_samples}$"):
        rows(FIG5_REGIMES["c"], 40.0, n_samples)


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
