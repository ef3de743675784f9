import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    anisotropic_effective_matrix,
    bitloop_ancilla_order,
    random_anisotropic_params,
    random_hermitian,
    random_symmetric_params,
    symmetric_effective_matrix,
)
from zenon.effective import (
    AncillaSpec,
    EffectiveHamiltonian,
    ancilla_blocks,
    ancilla_order,
    derive_effective,
    effective_from_matrix,
    kraus_step,
    remove_identity_shift,
)
from zenon.errors import (
    BadDimensionError,
    NotHermitianError,
    NotPSDError,
    ValidationError,
)
from zenon.linalg import dagger, expm, frobenius_norm, hermitian_eig, kron
from zenon.spin_models import SymmetricParams, build_anisotropic, build_symmetric, pauli


def test_ancilla_spec_validation():
    with pytest.raises(ValidationError):
        AncillaSpec(measured_state=2)
    with pytest.raises(ValidationError):
        AncillaSpec(ancilla_site=0)


def test_ancilla_blocks_of_tensor_products():
    hs = random_hermitian(np.random.Generator(np.random.PCG64(2)), 3)
    h = kron(hs, np.diag([1.0, -1.0]).astype(complex))
    h00, h01, h10, h11 = ancilla_blocks(h, AncillaSpec())
    assert np.allclose(h00, hs)
    assert np.allclose(h11, -hs)
    assert np.allclose(h01, 0)
    assert np.allclose(h10, 0)


def test_ancilla_blocks_measured_state_one_swaps_roles():
    hs = random_hermitian(np.random.Generator(np.random.PCG64(3)), 2)
    h = kron(hs, np.array([[0.25, 0], [0, 0.75]], dtype=complex))
    b0 = ancilla_blocks(h, AncillaSpec(measured_state=0))
    b1 = ancilla_blocks(h, AncillaSpec(measured_state=1))
    assert np.allclose(b0[0], 0.25 * hs)
    assert np.allclose(b1[0], 0.75 * hs)


def test_ancilla_site_permutation_matches_relabelled_operator():
    # a Pauli on the ancilla qubit must look the same wherever that qubit sits
    for site in (1, 2, 3):
        h = pauli("x", site, 3) + 0.5 * pauli("z", site, 3)
        blocks = ancilla_blocks(h, AncillaSpec(ancilla_site=site))
        assert np.allclose(blocks[0], 0.5 * np.eye(4))
        assert np.allclose(blocks[1], np.eye(4))


def test_ancilla_order_matches_bit_loop_oracle():
    for n in range(1, 7):
        dim = 2**n
        for site in range(1, n + 1):
            order = ancilla_order(dim, AncillaSpec(ancilla_site=site))
            assert np.array_equal(order, bitloop_ancilla_order(dim, site)), (n, site)


def test_ancilla_site_rejects_bad_dimensions():
    with pytest.raises(BadDimensionError):
        ancilla_blocks(np.eye(6), AncillaSpec(ancilla_site=1))  # not a power of two
    with pytest.raises(BadDimensionError):
        ancilla_blocks(np.eye(8), AncillaSpec(ancilla_site=4))
    with pytest.raises(BadDimensionError):
        ancilla_blocks(np.eye(5), AncillaSpec())


def test_derive_effective_site_addressing_consistent():
    rng = np.random.Generator(np.random.PCG64(4))
    h = random_hermitian(rng, 8)
    eff_minor = derive_effective(h, AncillaSpec(), 0.1)
    # move qubit 1 to the minor slot by permuting basis bits, then compare
    perm = [((k & 3) << 1) | (k >> 2) for k in range(8)]
    h_moved = h[np.ix_(perm, perm)]
    eff_site1 = derive_effective(h_moved, AncillaSpec(ancilla_site=1), 0.1)
    assert np.allclose(eff_site1.h0, eff_minor.h0, atol=1e-12)
    assert np.allclose(eff_site1.gamma, eff_minor.gamma, atol=1e-12)


def test_kraus_step_identity_and_unitary_cases():
    assert np.allclose(kraus_step(np.zeros((4, 4)), AncillaSpec(), 1.0), np.eye(2))
    hs = random_hermitian(np.random.Generator(np.random.PCG64(5)), 2)
    h = kron(hs, np.eye(2, dtype=complex))
    k = kraus_step(h, AncillaSpec(), 0.7)
    assert np.allclose(k, expm(-0.7j * hs), atol=1e-13)


def test_kraus_step_validation():
    with pytest.raises(NotHermitianError):
        kraus_step(np.array([[0, 1], [0, 0]]), AncillaSpec(), 0.1)
    with pytest.raises(ValidationError):
        kraus_step(np.zeros((4, 4)), AncillaSpec(), 0.0)


def test_kraus_step_close_to_effective_exponential():
    p = SymmetricParams(gamma_xy=0.5, gamma_z=0.25, g_xy=1.0, g_z=0.15)
    tau = 0.01  # g_xy * tau = 0.01
    h = build_symmetric(p)
    k = kraus_step(h, AncillaSpec(), tau)
    eff = derive_effective(h, AncillaSpec(), tau)
    target = expm(-1j * tau * eff.h0 - 0.5 * tau**2 * eff.gamma)
    assert frobenius_norm(k - target) < 1e-5


def test_kraus_step_residual_vanishes_faster_than_tau_squared():
    h = build_symmetric(SymmetricParams(0.5, 0.25, 1.0, 0.15))
    scale = frobenius_norm(h)
    residuals = []
    for c in (1e-2, 5e-3, 2.5e-3):
        tau = c / scale
        k = kraus_step(h, AncillaSpec(), tau)
        eff = derive_effective(h, AncillaSpec(), tau)
        residuals.append(frobenius_norm(k - expm(-1j * tau * eff.matrix())) / tau**2)
    assert residuals[0] / residuals[1] >= 1.8
    assert residuals[1] / residuals[2] >= 1.8


def test_derive_effective_pure_system_hamiltonian_has_no_decay():
    hs = random_hermitian(np.random.Generator(np.random.PCG64(6)), 4)
    eff = derive_effective(kron(hs, np.eye(2, dtype=complex)), AncillaSpec(), 0.2)
    assert np.allclose(eff.h0, hs, atol=1e-13)
    assert frobenius_norm(eff.gamma) < 1e-13


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_derive_effective_matches_symmetric_closed_form(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = random_symmetric_params(rng)
    tau = float(rng.uniform(0.01, 0.5))
    eff = derive_effective(build_symmetric(p), AncillaSpec(), tau)
    assert np.max(np.abs(eff.matrix() - symmetric_effective_matrix(p, tau))) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_derive_effective_matches_anisotropic_closed_form(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = random_anisotropic_params(rng)
    tau = float(rng.uniform(0.01, 0.5))
    eff = derive_effective(build_anisotropic(p), AncillaSpec(), tau)
    assert np.max(np.abs(eff.matrix() - anisotropic_effective_matrix(p, tau))) < 1e-12


@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 16]))
@settings(max_examples=60, deadline=None)
def test_derive_effective_gamma_always_psd(seed, dim):
    rng = np.random.Generator(np.random.PCG64(seed))
    h = random_hermitian(rng, dim)
    eff = derive_effective(h, AncillaSpec(), 0.1)
    w = hermitian_eig(eff.gamma).eigenvalues
    assert w[0] >= -1e-10 * max(1.0, frobenius_norm(eff.gamma))


def test_derive_effective_gamma_equals_coupling_product():
    rng = np.random.Generator(np.random.PCG64(7))
    h = random_hermitian(rng, 8)
    eff = derive_effective(h, AncillaSpec(), 0.1)
    _, b, c, _ = ancilla_blocks(h, AncillaSpec())
    assert np.allclose(eff.gamma, b @ c, atol=1e-12)
    assert np.allclose(b, dagger(c), atol=1e-14)


def test_derive_effective_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        derive_effective(m, AncillaSpec(), 0.1)


def test_effective_hamiltonian_validation():
    with pytest.raises(NotPSDError):
        EffectiveHamiltonian(h0=np.eye(2), gamma=np.diag([1.0, -1.0]), tau=0.1)
    with pytest.raises(NotHermitianError):
        EffectiveHamiltonian(h0=np.array([[0, 1], [0, 0]]), gamma=np.eye(2), tau=0.1)
    with pytest.raises(BadDimensionError):
        EffectiveHamiltonian(h0=np.eye(2), gamma=np.eye(4), tau=0.1)
    with pytest.raises(ValidationError):
        EffectiveHamiltonian(h0=np.eye(2), gamma=np.eye(2), tau=0.0)


def test_effective_hamiltonian_json_roundtrip():
    p = SymmetricParams(0.3, -0.2, 0.9, 0.1)
    eff = derive_effective(build_symmetric(p), AncillaSpec(), 0.05)
    again = EffectiveHamiltonian.from_json(eff.to_json())
    assert np.array_equal(again.h0, eff.h0)
    assert np.array_equal(again.gamma, eff.gamma)
    assert again.tau == eff.tau


def test_effective_from_matrix_splits_and_rejects():
    p = SymmetricParams(0.3, -0.2, 0.9, 0.1)
    eff = derive_effective(build_symmetric(p), AncillaSpec(), 0.05)
    again = effective_from_matrix(eff.matrix(), eff.tau)
    assert np.allclose(again.h0, eff.h0, atol=1e-13)
    assert np.allclose(again.gamma, eff.gamma, atol=1e-12)
    with pytest.raises(NotPSDError):
        effective_from_matrix(np.diag([1j, -1j]), 0.1)  # growth direction present


def test_remove_identity_shift():
    assert np.allclose(remove_identity_shift(np.eye(3)), np.zeros((3, 3)))
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(remove_identity_shift(sz), sz)
    m = sz + (2.0 + 0.5j) * np.eye(2)
    assert np.allclose(remove_identity_shift(m), sz, atol=1e-15)
