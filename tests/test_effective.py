import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ancilla_blocks,
    anisotropic_effective_matrix,
    bitloop_ancilla_order,
    counting_kernels,
    eigenvalue_step_norm,
    kraus_step,
    pauli,
    random_complex,
    random_anisotropic_params,
    random_hermitian,
    random_symmetric_params,
    symmetric_effective_matrix,
    taylor_kraus_step,
    verdict,
)
from zenon.effective import (
    AncillaSpec,
    EffectiveHamiltonian,
    _check_step_norm,
    ancilla_order,
    derive_effective,
    kraus_from_eig,
    kraus_from_series,
    remove_identity_shift,
)
from zenon.errors import (
    BadDimensionError,
    NotHermitianError,
    NotPSDError,
    NumericalError,
    ValidationError,
)
from zenon.linalg import (
    EIGVALSH_MIN_DIM,
    as_psd,
    dagger,
    expm,
    frobenius_norm,
    hermitian_eig,
    kron,
    matrix_from_json,
)
from zenon.spin_models import SymmetricParams, build_anisotropic, build_symmetric


def test_ancilla_spec_validation():
    for site in (0, -1, True, False, 1.5, 2.0, "2"):  # None or an int >= 1, never a bool
        with pytest.raises(ValidationError, match="^ancilla_site must be None or an int >= 1"):
            AncillaSpec(ancilla_site=site)
    for good in (None, 1, np.int64(2)):
        assert AncillaSpec(ancilla_site=good).ancilla_site == good


def test_ancilla_blocks_of_tensor_products():
    hs = random_hermitian(np.random.Generator(np.random.PCG64(2)), 3)
    h = kron(hs, np.diag([1.0, -1.0]).astype(complex))
    h00, h01, h10, h11 = ancilla_blocks(h, AncillaSpec())
    assert np.allclose(h00, hs)
    assert np.allclose(h11, -hs)
    assert np.allclose(h01, 0)
    assert np.allclose(h10, 0)


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
    # every ancilla address of 3- and 4-qubit registers: the bit-loop
    # permutation moves the ancilla to the minor slot of the default spec
    for n in (3, 4):
        h = random_hermitian(rng, 2**n)
        for site in range(1, n + 1):
            order = bitloop_ancilla_order(2**n, site)
            want = derive_effective(h[np.ix_(order, order)], AncillaSpec(), 0.1)
            got = derive_effective(h, AncillaSpec(ancilla_site=site), 0.1)
            for a, b in ((got.h0, want.h0), (got.gamma, want.gamma)):
                assert frobenius_norm(a - b) <= 1e-12 * max(1.0, frobenius_norm(b)), (n, site)


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


def test_kraus_step_rejects_unresolved_phases():
    h = kron(np.diag([1.0, -1.0]), np.eye(2))
    for scale, tau in ((1e10, 1e300), (1.0, 1e300), (1.0, 2.0**53)):  # tau * |w| = inf, 1e300, 2^53
        with pytest.raises(NumericalError):
            kraus_step(scale * h, AncillaSpec(), tau)


@pytest.mark.parametrize("dim", [4, 8, 16, 64, 256])
def test_kraus_from_eig_matches_taylor_oracle(dim):
    # every ancilla site, tau from far below to just under the
    # stroboscopic limit; at tau * spread = 1e-4 the identity-plus-phase form
    # keeps K's error proportional to tau (the plain V e^{-i tau w} V^dag
    # agrees with the oracle only to about 3e-16 there)
    h = random_hermitian(np.random.Generator(np.random.PCG64(dim)), dim)
    eig = hermitian_eig(h)
    spread = eig.eigenvalues[-1] - eig.eigenvalues[0]
    sites = [None, *range(1, dim.bit_length())]
    for site, tau_spread in itertools.product(sites, (1e-4, 0.05, 0.5, 0.99)):
        spec = AncillaSpec(ancilla_site=site)
        oracle = taylor_kraus_step(h, spec, tau_spread / spread)
        k = kraus_from_eig(eig, spec, tau_spread / spread)
        rel = frobenius_norm(k - oracle) / frobenius_norm(oracle)
        assert rel <= (1e-18 if tau_spread == 1e-4 else 4e-15), (site, tau_spread, rel)


@pytest.mark.parametrize("dim", [EIGVALSH_MIN_DIM, 64, 256])
def test_kraus_from_series_matches_taylor_oracle(dim):
    # the bounds of the eigh route's oracle test, at every ancilla site and
    # tau * spread up to 0.45, all certified; and the two routes agree to 1e-15
    h = random_hermitian(np.random.Generator(np.random.PCG64(dim)), dim)
    eig = hermitian_eig(h)
    spread = eig.eigenvalues[-1] - eig.eigenvalues[0]
    sites = [None, *range(1, dim.bit_length())]
    for site, tau_spread in itertools.product(sites, (1e-4, 0.05, 0.2, 0.45)):
        spec, tau = AncillaSpec(ancilla_site=site), tau_spread / spread
        k = kraus_from_series(h, spec, tau)
        assert k is not None, (site, tau_spread)
        oracle = taylor_kraus_step(h, spec, tau)
        rel = frobenius_norm(k - oracle) / frobenius_norm(oracle)
        assert rel <= (1e-18 if tau_spread == 1e-4 else 4e-15), (site, tau_spread, rel)
        k_eig = kraus_from_eig(eig, spec, tau)
        assert frobenius_norm(k - k_eig) <= 1e-15 * frobenius_norm(k_eig), (site, tau_spread)


def test_kraus_from_series_leaves_small_warning_and_bad_inputs_to_eigh():
    rng = np.random.Generator(np.random.PCG64(5))
    small = random_hermitian(rng, EIGVALSH_MIN_DIM - 2)
    assert kraus_from_series(small, AncillaSpec(), 1e-3) is None  # below EIGVALSH_MIN_DIM
    h = random_hermitian(rng, 2 * EIGVALSH_MIN_DIM)
    w = np.linalg.eigvalsh(h)
    assert kraus_from_series(h, AncillaSpec(), 0.1 / (w[-1] - w[0])) is not None
    # ||Y||_F / sqrt(d) >= 1 proves tau * spread >= 1: refused before any product
    assert kraus_from_series(h, AncillaSpec(), 4 * math.sqrt(2 * EIGVALSH_MIN_DIM) / frobenius_norm(h)) is None
    with pytest.raises(NotHermitianError):  # the gate's own error, as the eigh route's
        kraus_from_series(np.full_like(h, math.nan), AncillaSpec(), 0.1)


@pytest.mark.parametrize("dim", [EIGVALSH_MIN_DIM, EIGVALSH_MIN_DIM + 8, 256])
def test_step_norm_certificate_keeps_the_eigenvalue_rule_at_its_boundary(dim, monkeypatch):
    rng = np.random.Generator(np.random.PCG64(dim))
    u, _ = np.linalg.qr(random_complex(rng, dim))
    v, _ = np.linalg.qr(random_complex(rng, dim))
    sv_sq = np.linspace(0.99, 1.0, dim)  # ||I - K^dag K||_F <= 0.16: the certificate's bound holds
    calls = counting_kernels(monkeypatch, ("cholesky", "eigvalsh", "eigh"))
    for f in (0.45, 0.55, 0.9, 1.1):
        sv_sq[-1] = 1.0 + f * 1e-10
        k = (u * np.sqrt(sv_sq)) @ dagger(v)
        calls.clear()
        got = verdict(_check_step_norm, k)
        # (1 + 1e-10 / 2) I - K^dag K is positive definite at f = 0.45 alone
        assert [name for name, _ in calls] == (["cholesky"] if f < 0.5 else ["cholesky", "eigvalsh"])
        assert got == verdict(eigenvalue_step_norm, k)
        assert (got is None) == (f < 1)


def test_step_norm_certificate_keeps_the_verdicts_on_extreme_inputs():
    dim = EIGVALSH_MIN_DIM + 8
    k = np.eye(dim, dtype=complex)
    cases = [k, k * (1 + 2e-10), k * 1e150, k * 1e300, k * 1e-300]
    for bad in (np.inf, np.nan):
        a = k.copy()
        a[1, 2] = bad
        cases.append(a)
    with np.errstate(over="ignore", invalid="ignore"):
        verdicts = [(verdict(_check_step_norm, a), verdict(eigenvalue_step_norm, a)) for a in cases]
    assert all(new == old for new, old in verdicts)
    assert [got is None for got, _ in verdicts] == [True, False, False, False, True, False, False]


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
    assert w[0] >= -1e-10 * frobenius_norm(eff.gamma)


def test_weak_coupling_gamma_passes_the_psd_rule():
    # g_xy down to 1e-7 against couplings of order 10: the second-moment
    # form <m|H^2|m> - H_0^2 cancels to its rounding there, the product form
    # B B^dag stays PSD to rounding relative to its own norm
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(300):
        gamma_xy, gamma_z, g_z = (float(x) for x in rng.uniform(1, 20, 3))
        g_xy = float(10 ** rng.uniform(-7, -2))
        p = SymmetricParams(gamma_xy=gamma_xy, gamma_z=gamma_z, g_xy=g_xy, g_z=g_z)
        eff = derive_effective(build_symmetric(p), AncillaSpec(), 0.05)
        as_psd(eff.gamma)


def test_derive_effective_gamma_equals_coupling_product():
    rng = np.random.Generator(np.random.PCG64(7))
    h = random_hermitian(rng, 8)
    eff = derive_effective(h, AncillaSpec(), 0.1)
    _, b, c, _ = ancilla_blocks(h, AncillaSpec())
    assert np.allclose(eff.gamma, b @ c, atol=1e-12)
    assert np.allclose(b, dagger(c), atol=1e-14)


def test_derive_effective_peak_memory_is_three_copies_of_its_input():
    # as_hermitian's copy, A^dag and residual of H bound the peak; the blocks
    # are released before the constructor gates h0 and Gamma
    h = random_hermitian(np.random.Generator(np.random.PCG64(12)), 512)
    tracemalloc.start()
    try:
        derive_effective(h, AncillaSpec(), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * h.nbytes


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


@pytest.mark.parametrize("tau", [0.0, -0.05, float("nan"), math.inf])
def test_derive_effective_rejects_a_step_that_is_not_positive(tau):
    # the constructor's check, the only one on this path
    with pytest.raises(ValidationError, match="^tau must be positive"):
        derive_effective(build_symmetric(SymmetricParams(0.3, -0.2, 0.9, 0.1)), AncillaSpec(), tau)


def test_effective_hamiltonian_json_roundtrip():
    p = SymmetricParams(0.3, -0.2, 0.9, 0.1)
    eff = derive_effective(build_symmetric(p), AncillaSpec(), 0.05)
    obj = json.loads(json.dumps(eff.to_json()))
    assert np.array_equal(matrix_from_json(obj["h0"]), eff.h0)
    assert np.array_equal(matrix_from_json(obj["gamma"]), eff.gamma)
    assert obj["tau"] == eff.tau


def test_remove_identity_shift():
    assert np.allclose(remove_identity_shift(np.eye(3)), np.zeros((3, 3)))
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(remove_identity_shift(sz), sz)
    m = sz + (2.0 + 0.5j) * np.eye(2)
    assert np.allclose(remove_identity_shift(m), sz, atol=1e-15)
