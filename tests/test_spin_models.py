import dataclasses
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    kron_xyz_hamiltonian,
    nine_term_anisotropic,
    nine_term_symmetric,
    pauli,
    random_anisotropic_params,
    random_symmetric_params,
)
from zenon.config import SWEEP_KEYS, load_scenario
from zenon.errors import NumericalError, SiteOutOfRangeError, ValidationError
from zenon.linalg import commutator, frobenius_norm, is_hermitian
from zenon.spin_models import (
    SIGMA,
    AnisotropicParams,
    SymmetricParams,
    build_anisotropic,
    build_symmetric,
    xyz_hamiltonian,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_pauli_single_qubit():
    assert np.allclose(pauli("z", 1, 1), np.diag([1, -1]))
    assert np.allclose(pauli("x", 1, 1) @ pauli("y", 1, 1), 1j * pauli("z", 1, 1))


def test_pauli_embedding_order():
    # site 1 is the most significant factor
    assert np.allclose(pauli("z", 1, 2), np.diag([1, 1, -1, -1]))
    assert np.allclose(pauli("z", 2, 2), np.diag([1, -1, 1, -1]))


@given(st.sampled_from("xyz"), st.integers(1, 3))
def test_pauli_matches_manual_kron(axis, site):
    ops = [SIGMA[axis] if k == site else np.eye(2) for k in (1, 2, 3)]
    manual = np.kron(np.kron(ops[0], ops[1]), ops[2])
    assert np.array_equal(pauli(axis, site, 3), manual)


def test_params_reject_non_finite():
    with pytest.raises(ValidationError):
        SymmetricParams(gamma_xy=float("nan"), gamma_z=0, g_xy=0, g_z=0)
    with pytest.raises(ValidationError):
        AnisotropicParams(1, 2, float("inf"), 0, 0, 0, 0, 0, 0)


def test_build_symmetric_zero_params():
    p = SymmetricParams(0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(build_symmetric(p), np.zeros((8, 8)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_build_symmetric_diagonal_entry(seed):
    p = random_symmetric_params(np.random.Generator(np.random.PCG64(seed)))
    h = build_symmetric(p)
    # <000|H|000>: all three zz bonds aligned
    assert h[0, 0] == pytest.approx(p.gamma_z + 2 * p.g_z)
    assert is_hermitian(h, 1e-14) or frobenius_norm(h) == 0


def _decades(seed: int, n: int) -> list[float]:
    """n couplings of random sign and magnitude from 1e-6 to 1e6."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [float(x) for x in rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-6, 6, n)]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_symmetric_is_anisotropic_special_case(seed):
    # the symmetric H is built as an anisotropic one; against the hand-written
    # symmetric sum only the order of the diagonal zz additions differs
    p = SymmetricParams(*_decades(seed, 4))
    h, ref = build_symmetric(p), nine_term_symmetric(p)
    assert np.max(np.abs(h - ref)) <= np.spacing(np.max(np.abs(ref)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_build_anisotropic_matches_nine_term_oracle(seed):
    p = AnisotropicParams(*_decades(seed, 9))
    assert np.array_equal(build_anisotropic(p), nine_term_anisotropic(p))


def test_bundled_symmetric_couplings_build_bit_identically():
    checked = 0
    for path in sorted(CONFIGS.glob("*.json")):
        s = load_scenario(path)
        if s.model != "symmetric":
            continue
        for entry in s.grid or [{}]:
            couplings = {k: v for k, v in entry.items() if k not in SWEEP_KEYS}
            p = dataclasses.replace(s.params, **couplings)
            assert np.array_equal(build_symmetric(p), nine_term_symmetric(p)), path.name
            checked += 1
    assert checked


def _ring_bonds(n: int, couplings) -> list:
    """XYZ bonds (i, i+1) around an n-site ring, couplings[i - 1] = (Jx, Jy, Jz)."""
    return [
        ((i, i % n + 1), a, couplings[i - 1][k]) for i in range(1, n + 1) for k, a in enumerate("xyz")
    ]


def test_xyz_ring_matches_explicit_kron_sum():
    couplings = np.random.default_rng(41).uniform(-2, 2, (4, 3))
    h = xyz_hamiltonian(4, _ring_bonds(4, couplings))
    ref = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        j = (i + 1) % 4
        for k, a in enumerate("xyz"):
            ops = [SIGMA[a] if site in (i, j) else np.eye(2) for site in range(4)]
            ref += couplings[i, k] * np.kron(np.kron(np.kron(ops[0], ops[1]), ops[2]), ops[3])
    assert np.array_equal(h, ref)


def test_heisenberg_ring_conserves_total_sz():
    n = 5
    h = xyz_hamiltonian(n, _ring_bonds(n, np.full((n, 3), 0.7)))
    total_sz = sum(pauli("z", site, n) for site in range(1, n + 1))
    assert frobenius_norm(h) > 1.0
    assert frobenius_norm(commutator(h, total_sz)) < 1e-14


def test_xyz_hamiltonian_names_the_bond_whose_sum_overflows():
    # x then y on the same pair: half the entries become J + J = inf
    bonds = [((1, 2), "x", 1e308), ((1, 2), "y", 1e308), ((2, 3), "z", 1e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^the XYZ sum overflows the double range at bond \(1, 2\) y$"):
            xyz_hamiltonian(3, bonds)
    # bonds at 1e308 on disjoint entries stay finite
    assert np.isfinite(xyz_hamiltonian(3, [((1, 2), "x", 1e308), ((2, 3), "z", 1e308)])).all()


def test_xyz_hamiltonian_rejects_bad_sites():
    with pytest.raises(SiteOutOfRangeError, match=r"^site 4 outside 1\.\.3$"):
        xyz_hamiltonian(3, [((1, 4), "x", 1.0)])
    with pytest.raises(SiteOutOfRangeError, match=r"^site 0 outside 1\.\.3$"):
        xyz_hamiltonian(3, [((0, 2), "z", 1.0)])
    with pytest.raises(SiteOutOfRangeError, match=r"^bond \(2, 2\) joins site 2 to itself$"):
        xyz_hamiltonian(3, [((2, 2), "y", 1.0)])
    # the checks run bond by bond, in the order given: self-bond, axis, sites
    with pytest.raises(SiteOutOfRangeError, match="joins site 5 to itself"):
        xyz_hamiltonian(3, [((1, 2), "x", 1.0), ((5, 5), "w", 1.0)])
    with pytest.raises(ValidationError, match=r"^axis must be one of 'x', 'y', 'z', got 'w'$"):
        xyz_hamiltonian(3, [((1, 2), "x", 1.0), ((1, 9), "w", 1.0)])
    with pytest.raises(ValidationError, match=r"^n_qubits must be positive, got 0$"):
        xyz_hamiltonian(0, [((1, 2), "x", 1.0)])


_COUPLINGS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200, 1.0, -0.7, 3])


@st.composite
def _bond_lists(draw):
    """(n_qubits, bonds): 1-6 qubits and up to 12 bonds, repeats allowed."""
    n = draw(st.integers(1, 6))
    if n == 1:
        return n, []
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(tuple)
    bond = st.tuples(pair, st.sampled_from("xyz"), _COUPLINGS | st.floats(-1e3, 1e3))
    return n, draw(st.lists(bond, max_size=12))


@given(_bond_lists())
@settings(max_examples=300, deadline=None)
def test_xyz_hamiltonian_is_the_kronecker_sum_bit_for_bit(case):
    n, bonds = case
    h = xyz_hamiltonian(n, bonds)
    ref = kron_xyz_hamiltonian(n, bonds)
    assert h.dtype == ref.dtype and h.shape == ref.shape
    assert np.array_equal(h.view(np.int64), ref.view(np.int64))


def test_xyz_hamiltonian_is_ten_times_faster_than_the_kronecker_sum_at_nine_qubits():
    rng = np.random.default_rng(37)
    bonds = []
    for _ in range(37):
        i, j = rng.choice(np.arange(1, 10), 2, replace=False)
        bonds.append(((int(i), int(j)), "xyz"[rng.integers(3)], float(rng.normal())))

    def best(build, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            h = build(9, bonds)
            times.append(time.perf_counter() - start)
        return min(times), h

    fast, h = best(xyz_hamiltonian, 5)
    slow, ref = best(kron_xyz_hamiltonian, 3)
    assert np.array_equal(h.view(np.int64), ref.view(np.int64))
    assert slow >= 10 * fast, (slow, fast)


def test_build_symmetric_swap_invariance():
    # exchanging the two system qubits permutes basis bits 1 and 2
    p = SymmetricParams(0.7, -0.4, 1.1, 0.2)
    h = build_symmetric(p)
    perm = [int(f"{(k >> 1) & 1}{(k >> 2) & 1}{k & 1}", 2) for k in range(8)]
    assert np.allclose(h[np.ix_(perm, perm)], h, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_build_anisotropic_hermitian(seed):
    p = random_anisotropic_params(np.random.Generator(np.random.PCG64(seed)))
    h = build_anisotropic(p)
    assert is_hermitian(h, 1e-14) or frobenius_norm(h) == 0


def test_build_anisotropic_ising_limit_commutes_with_all_z():
    p = AnisotropicParams(0, 0, 0.9, 0, 0, -0.4, 0, 0, 1.3)
    h = build_anisotropic(p)
    for site in (1, 2, 3):
        assert frobenius_norm(commutator(h, pauli("z", site, 3))) < 1e-14
