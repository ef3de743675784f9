import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_complex, random_hermitian, random_psd, taylor_expm
from zenon.errors import NotHermitianError, NotPSDError, ValidationError
from zenon.linalg import (
    as_cmatrix,
    commutator,
    dagger,
    expm,
    frobenius_norm,
    hermitian_eig,
    is_hermitian,
    kron,
    matrix_from_json,
    matrix_to_json,
    psd_sqrt,
    trace,
    write_csv,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_as_cmatrix_rejects_non_square():
    with pytest.raises(ValidationError):
        as_cmatrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        as_cmatrix([1, 2, 3])


def test_dagger_examples():
    assert np.array_equal(dagger(np.eye(2)), np.eye(2))
    m = np.array([[1j, 2], [3, 4j]])
    assert np.array_equal(dagger(m), np.array([[-1j, 3], [2, -4j]]))


@given(st.integers(0, 2**32 - 1))
def test_dagger_involution(seed):
    m = random_complex(np.random.Generator(np.random.PCG64(seed)), 4)
    assert np.array_equal(dagger(dagger(m)), m)


def test_algebra_helpers():
    a = random_complex(np.random.Generator(np.random.PCG64(0)), 3)
    b = random_complex(np.random.Generator(np.random.PCG64(1)), 3)
    assert np.allclose(commutator(a, b) + commutator(b, a), 0)
    assert trace(a) == pytest.approx(complex(np.trace(a)))
    assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a))


def test_kron_ordering():
    # first argument is the major index
    assert np.allclose(kron(SZ, np.eye(2)), np.diag([1, 1, -1, -1]))
    v00 = np.zeros(4)
    v00[0] = 1
    assert np.allclose(kron(SX, SX) @ v00, np.eye(4)[3])


def test_is_hermitian():
    assert is_hermitian(SY)
    assert is_hermitian(np.zeros((3, 3)))
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))


def test_hermitian_eig_pauli_z():
    eig = hermitian_eig(SZ)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])


def test_hermitian_eig_pauli_x_eigenvectors():
    eig = hermitian_eig(SX)
    minus, plus = eig.eigenvectors[:, 0], eig.eigenvectors[:, 1]
    # compare projectors so the arbitrary phase drops out
    assert np.allclose(np.outer(plus, plus.conj()), np.ones((2, 2)) / 2, atol=1e-12)
    assert np.allclose(np.outer(minus, minus.conj()), np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0, 1], [0, 0]]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_hermitian_eig_reconstructs(seed):
    m = random_hermitian(np.random.Generator(np.random.PCG64(seed)), 8)
    eig = hermitian_eig(m)
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    v = eig.eigenvectors
    assert frobenius_norm(dagger(v) @ v - np.eye(8)) < 1e-12
    rebuilt = (v * eig.eigenvalues) @ dagger(v)
    assert frobenius_norm(rebuilt - m) < 1e-10 * max(1.0, frobenius_norm(m))
    assert np.sum(eig.eigenvalues) == pytest.approx(trace(m).real, abs=1e-10)


def test_expm_zero_and_pauli_rotation():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    # exp(-i (pi/2) sx) = -i sx
    assert np.allclose(expm(-0.5j * np.pi * SX), -1j * SX, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_expm_matches_series_on_small_norms(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    m = random_complex(rng, 4)
    m = m * (0.9 / max(1.0, frobenius_norm(m)))
    gap = frobenius_norm(expm(m) - taylor_expm(m))
    assert gap <= 1e-12 * max(1.0, frobenius_norm(taylor_expm(m)))


@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8]))
@settings(max_examples=30)
def test_expm_inverse_property(seed, dim):
    rng = np.random.Generator(np.random.PCG64(seed))
    m = random_complex(rng, dim)
    m = m * (10.0 / max(1.0, frobenius_norm(m))) * rng.uniform(0.05, 1.0)
    assert frobenius_norm(expm(m) @ expm(-m) - np.eye(dim)) < 1e-10


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_expm_unitary_for_hermitian_generators(t):
    rng = np.random.Generator(np.random.PCG64(5))
    h = random_hermitian(rng, 6)
    u = expm(-1j * t * h)
    assert frobenius_norm(dagger(u) @ u - np.eye(6)) < 1e-10


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotHermitianError):
        psd_sqrt(np.array([[0, 1], [0, 0]]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_psd_sqrt_squares_back(seed):
    m = random_psd(np.random.Generator(np.random.PCG64(seed)), 5)
    r = psd_sqrt(m)
    assert is_hermitian(r, 1e-10) or frobenius_norm(r) == 0
    assert frobenius_norm(r @ r - m) < 1e-10 * max(1.0, frobenius_norm(m))


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 100.0))
@settings(max_examples=25)
def test_psd_sqrt_scaling(seed, s):
    m = random_psd(np.random.Generator(np.random.PCG64(seed)), 4)
    assert np.allclose(psd_sqrt(s**2 * m), s * psd_sqrt(m), atol=1e-9 * s * frobenius_norm(m))


def test_matrix_json_roundtrip():
    m = random_complex(np.random.Generator(np.random.PCG64(3)), 5)
    obj = matrix_to_json(m)
    assert obj["dim"] == 5
    assert np.array_equal(matrix_from_json(obj), m)


def test_matrix_json_rejects_mismatched_counts():
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": [1, 2, 3], "im": [0, 0, 0, 0]})
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 0, "re": [], "im": []})
    with pytest.raises(ValidationError):
        matrix_from_json({"re": [1], "im": [0]})
    with pytest.raises(ValidationError):
        matrix_from_json([1, 2])


def test_write_csv_integers_and_float_edge_cases(tmp_path):
    rows = [
        (1, np.int64(7), -0.0, 5e-324),
        (2, 0, 1e300, float("nan")),
        (3, np.int64(-4), np.float64(0.1), 2),
    ]
    path = tmp_path / "t.csv"
    write_csv(path, ["step", "count", "x", "y"], rows)
    assert path.read_text() == (
        "step,count,x,y\n"
        "1,7,-0.0,5e-324\n"
        "2,0,1e+300,nan\n"
        "3,-4,0.1,2\n"
    )
    again = tmp_path / "u.csv"
    write_csv(again, ["step", "count", "x", "y"], rows)
    assert again.read_bytes() == path.read_bytes()
