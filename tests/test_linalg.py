import itertools
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    counting_kernels,
    eig_sqrt,
    eigenvalue_as_psd,
    expression_hermitian_part,
    expression_is_hermitian,
    expression_psd_eig,
    hermitian_eigvals,
    horner_expm,
    mp_expm,
    mp_relative_error,
    percell_csv,
    random_complex,
    random_hermitian,
    random_psd,
    taylor_expm,
    verdict,
)
from zenon.errors import NotHermitianError, NotPSDError, ValidationError
from zenon.linalg import (
    CSV_BLOCK_ROWS,
    CSV_PART_MIN_ROWS,
    EIGVALSH_MIN_DIM,
    EXPM_SCALE_LIMIT,
    as_cmatrix,
    as_hermitian,
    as_psd,
    certified_above,
    commutator,
    dagger,
    expm,
    frobenius_norm,
    hermitian_eig,
    hermitian_part,
    hermitian_residual,
    is_hermitian,
    kron,
    matrix_from_json,
    matrix_to_json,
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


def _bits(a: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a float or complex array, so -0.0 != +0.0 and
    NaN payloads count."""
    return np.ascontiguousarray(a).view(np.int64)


HELPER_INPUTS = ["random", "hermitian", "real", "integer", "fortran", "sliced", "signed_zeros", "nan"]


def _helper_input(kind: str, seed: int, dim: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    m = random_complex(rng, dim)
    if kind == "hermitian":
        return expression_hermitian_part(m)
    if kind == "real":
        return m.real.copy()
    if kind == "integer":
        return rng.integers(-5, 6, (dim, dim))
    if kind == "fortran":
        return np.asfortranarray(m)
    if kind == "sliced":
        return random_complex(rng, 3 * dim)[1::3, ::2][:, :dim]
    if kind == "signed_zeros":
        parts = m.view(np.float64)  # the real and imaginary words of m
        parts[rng.random(parts.shape) < 0.6] = 0.0
        parts[rng.random(parts.shape) < 0.5] *= -1.0  # flips the sign of some zeros too
        return expression_hermitian_part(m) if seed % 2 else m
    m[rng.integers(dim), rng.integers(dim)] = complex(np.nan, 1.0) if seed % 2 else np.nan
    return m


@given(st.sampled_from(HELPER_INPUTS), st.integers(0, 2**32 - 1), st.integers(1, 9))
@settings(max_examples=150)
def test_one_pass_hermitian_helpers_match_the_expression_forms_bit_for_bit(kind, seed, dim):
    a = _helper_input(kind, seed, dim)
    part, oracle = hermitian_part(a), expression_hermitian_part(a)
    assert part.dtype == oracle.dtype == (float if kind == "integer" else a.dtype)  # real stays real
    assert part.shape == oracle.shape and np.array_equal(_bits(part), _bits(oracle))
    for tol in (1e-10, 1e-14, 0.0):
        assert is_hermitian(a, tol) == expression_is_hermitian(a, tol)
    if kind == "nan":
        assert not is_hermitian(a)
    elif kind == "hermitian" or (kind == "signed_zeros" and seed % 2):
        assert hermitian_residual(a) == 0.0 and is_hermitian(a, 0.0)
    if not is_hermitian(a):
        with pytest.raises(NotHermitianError):
            as_hermitian(a)
    else:
        expected = expression_hermitian_part(as_cmatrix(a))
        gated = as_hermitian(a)  # the expression form, as a complex matrix
        assert gated.dtype == complex and np.array_equal(_bits(gated), _bits(expected))
        eig, ref = hermitian_eig(a), np.linalg.eigh(expected)
        assert np.array_equal(_bits(eig.eigenvalues), _bits(ref[0]))
        assert np.array_equal(_bits(eig.eigenvectors), _bits(ref[1]))
        assert np.allclose(hermitian_eigvals(a), ref[0], rtol=0, atol=1e-13 * max(1.0, frobenius_norm(a)))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=40)
def test_eigh_of_the_psd_gate_is_the_expression_psd_eig_bit_for_bit(seed, dim):
    # what state_factor reads: eigh of the matrix as_psd stored, with no second gate
    m = random_psd(np.random.Generator(np.random.PCG64(seed)), dim)
    gated, ref = as_psd(m), expression_psd_eig(m)
    w, v = np.linalg.eigh(gated)
    assert np.array_equal(_bits(w), _bits(ref.eigenvalues))
    assert np.array_equal(_bits(v), _bits(ref.eigenvectors))
    assert np.array_equal(_bits(gated), _bits(expression_hermitian_part(m)))
    assert np.array_equal(_bits(as_hermitian(gated)), _bits(gated))  # the gate is idempotent


def test_eigenvalue_helpers_share_the_hermiticity_check():
    for check in (hermitian_eigvals, as_psd):
        with pytest.raises(NotHermitianError):
            check(np.array([[0, 1], [0, 0]]))
        with pytest.raises(NotHermitianError):
            check(np.array([[1.0, np.nan], [np.nan, 1.0]]))


PSD_MESSAGE = re.compile(r"minimum eigenvalue (-\d\.\d{6}e[-+]\d+) is below the PSD tolerance -(\d\.\d{6}e[-+]\d+)")


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dim", [4, 8, EIGVALSH_MIN_DIM + 8])
def test_check_psd_gives_psd_eig_verdict_and_message_at_the_rule_boundary(seed, dim):
    rng = np.random.Generator(np.random.PCG64(seed))
    v, _ = np.linalg.qr(random_complex(rng, dim))  # a random unitary
    w = np.linspace(1.0, 3.0, dim)
    tol = 1e-10 * np.linalg.norm(w[1:])  # the rule's tolerance, to O(tol^2) relative
    for factor in (0.5, 2.0):
        w[0] = -factor * tol
        a = (v * w) @ dagger(v)  # exactly as V diag(w) V^dag
        if factor < 1:
            as_psd(a)
            expression_psd_eig(a)
            continue
        messages = []
        for check in (as_psd, expression_psd_eig):
            with pytest.raises(NotPSDError) as info:
                check(a)
            messages.append(PSD_MESSAGE.fullmatch(str(info.value)))
        assert all(messages)
        assert len({m.group(2) for m in messages}) == 1  # one tolerance, to the last digit
        for m in messages:
            assert float(m.group(1)) == pytest.approx(w[0], rel=1e-5)
            assert float(m.group(2)) == pytest.approx(tol, rel=1e-9)


@pytest.mark.parametrize("dim", [EIGVALSH_MIN_DIM, EIGVALSH_MIN_DIM + 8, 256])
def test_as_psd_certificate_keeps_the_eigenvalue_rule_at_its_boundary(dim, monkeypatch):
    rng = np.random.Generator(np.random.PCG64(dim))
    v, _ = np.linalg.qr(random_complex(rng, dim))
    w = np.linspace(1.0, 3.0, dim)
    tol = 1e-10 * np.linalg.norm(w[1:])
    calls = counting_kernels(monkeypatch, ("cholesky", "eigvalsh", "eigh"))
    for f in (0.45, 0.55, 0.9, 1.1):
        w[0] = -f * tol
        a = (v * w) @ dagger(v)
        expected = verdict(eigenvalue_as_psd, a)
        assert (expected is None) == (f < 1)
        calls.clear()
        assert verdict(as_psd, a) == expected
        # A + (tol / 2) I is positive definite at f = 0.45 alone: there the
        # factorization settles the gate and no eigenvalue is read
        assert [name for name, _ in calls] == (["cholesky"] if f < 0.5 else ["cholesky", "eigvalsh"])
        if expected is None:
            assert np.array_equal(_bits(as_psd(a)), _bits(eigenvalue_as_psd(a)))


@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_as_psd_certificate_keeps_the_verdicts_on_extreme_inputs(scale):
    rng = np.random.Generator(np.random.PCG64(40))
    dim = EIGVALSH_MIN_DIM + 8
    v, _ = np.linalg.qr(random_complex(rng, dim))
    w = np.linspace(0.0, 2.0, dim)
    cases = []
    for first in (0.0, -2.0, -1e-11, -2e-9):
        w[0] = first
        cases.append(((v * w) @ dagger(v)) * scale)
    for bad in (np.inf, -np.inf, np.nan):
        a = cases[0].copy()
        a[3, 3] = bad
        cases.append(a)
        a = cases[0].copy()
        a[2, 5] = a[5, 2] = bad
        cases.append(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the norms of the 1e300 cases
        verdicts = [(verdict(as_psd, a), verdict(eigenvalue_as_psd, a)) for a in cases]
    assert all(new == old for new, old in verdicts)
    assert [got is None for got, _ in verdicts[:4]] == [True, False, True, False]
    assert all(got is not None for got, _ in verdicts[4:])


def test_certified_above_refuses_what_it_cannot_prove():
    h = np.eye(EIGVALSH_MIN_DIM, dtype=complex)
    assert certified_above(h, -1e-10) and certified_above(h * 1e-290, -1e-300)
    assert not certified_above(np.eye(EIGVALSH_MIN_DIM - 1, dtype=complex), -1e-10)  # below its dimension
    assert not certified_above(h, -1e-13)  # the backward-error bound exceeds a quarter of the floor
    assert not certified_above(h * 1e-310, -1e-320)  # a subnormal shift: no relative error bound
    for floor in (-math.inf, math.nan):
        assert not certified_above(h, floor)
    h[0, 0] = -1.0
    assert not certified_above(h, -1e-10)  # not positive: the factorization fails
    h[0, 0] = np.nan
    assert not certified_above(h, -1e-10)


@pytest.mark.parametrize("dim", [EIGVALSH_MIN_DIM - 1, EIGVALSH_MIN_DIM])
def test_hermitian_eigvals_takes_eigvalsh_from_its_minimum_dimension(dim, monkeypatch):
    h = random_hermitian(np.random.Generator(np.random.PCG64(dim)), dim)
    ref = np.linalg.eigh(expression_hermitian_part(h))[0]
    calls = []

    def counting(name):
        kernel = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append(name)
            return kernel(a, *args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    w = hermitian_eigvals(h)
    if dim < EIGVALSH_MIN_DIM:
        assert calls == ["eigh"] and np.array_equal(_bits(w), _bits(ref))
    else:
        assert calls == ["eigvalsh"] and np.allclose(w, ref, rtol=0, atol=1e-13 * frobenius_norm(h))


@pytest.mark.parametrize("helper", [is_hermitian, hermitian_part, hermitian_residual])
def test_one_pass_hermitian_helpers_hold_one_temporary(helper):
    h = random_hermitian(np.random.Generator(np.random.PCG64(9)), 512)  # 4 MB
    tracemalloc.start()
    try:
        helper(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * h.nbytes


def test_hermitian_part_halves_first_only_where_the_sum_overflows():
    # the sum of the entries fits below 1.79e308: the expression's bits
    for big in (0.89e308, 1e307, 5e-324):
        a = np.array([[big, -big * 1j], [big, -big]])
        assert np.array_equal(_bits(hermitian_part(a)), _bits(expression_hermitian_part(a)))
        with np.errstate(over="ignore"):  # the norm's first try, which as_hermitian's caller owns
            assert np.array_equal(_bits(as_hermitian(hermitian_part(a))), _bits(hermitian_part(a)))
    # A + A^dag overflows where (A + A^dag) / 2 does not: A / 2 + A^dag / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes
        a = np.array([[1.5e308, 1e308], [1.2e308 + 1.7e308j, -1.5e308j]])
        part = hermitian_part(a)
        expected = a / 2 + dagger(a) / 2
        assert np.array_equal(_bits(part), _bits(expected)) and np.isfinite(part).all()
        assert part[0, 1] == 1.1e308 - 0.85e308j
    with np.errstate(over="ignore"):  # the norm's first try, which as_hermitian's caller owns
        h = as_hermitian(np.diag([1.5e308, 1.5e308]))
    assert np.array_equal(h, np.diag([1.5e308, 1.5e308]))
    # infinite and NaN entries keep the expression's values
    for bad in (np.inf, np.nan):
        a = np.array([[bad, 1.0], [1e308, 1.0]])
        assert np.array_equal(hermitian_part(a), expression_hermitian_part(a), equal_nan=True)


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


def _mp_case(d: int, norm: float):
    """(A, exp(A) in mpmath at 40 digits) for a seeded random A with ||A||_F
    = norm.  At d = 64, A is the Kronecker sum X (x) I + I (x) Y of two 8x8
    draws, Y with a zero diagonal so that every entry of A is an entry of X or
    of Y, exact; its exponential is exp(X) (x) exp(Y)."""
    import mpmath

    rng = np.random.Generator(np.random.PCG64((d, round(math.log10(norm)) + 3)))
    if d != 64:
        a = random_complex(rng, d)
        return a * (norm / np.linalg.norm(a)), None
    x, y = random_complex(rng, 8), random_complex(rng, 8)
    np.fill_diagonal(y, 0.0)
    scale = norm / np.linalg.norm(np.kron(x, np.eye(8)) + np.kron(np.eye(8), y))
    x, y = x * scale, y * scale
    ex, ey = mp_expm(x), mp_expm(y)
    with mpmath.workdps(40):
        exact = mpmath.matrix(64, 64)
        for i, j, k, l in itertools.product(range(8), repeat=4):
            exact[8 * i + k, 8 * j + l] = ex[i, j] * ey[k, l]
    return np.kron(x, np.eye(8)) + np.kron(np.eye(8), y), exact


@pytest.mark.parametrize("d", [1, 2, 4, 8, 64])
def test_expm_is_as_accurate_as_the_horner_form_against_40_digits(d):
    """Relative Frobenius error against mpmath at most twice the Horner form's,
    or 2^s u (u = 1.1e-16), the rounding of one evaluation after the s
    squarings that double a relative error each: that floor is the bare 2u
    below ||A||_F = EXPM_SCALE_LIMIT."""
    for norm in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2):
        a, exact = _mp_case(d, norm)
        exact = mp_expm(a) if exact is None else exact
        squarings = max(0, math.ceil(math.log2(norm / EXPM_SCALE_LIMIT)))
        err, horner = mp_relative_error(expm(a), exact), mp_relative_error(horner_expm(a), exact)
        assert err <= max(2 * horner, 2.0**squarings * 2.2e-16), (norm, err, horner)


def test_psd_sqrt_examples():
    # the PSD square root is eig_sqrt of a checked eigendecomposition
    assert np.allclose(eig_sqrt(expression_psd_eig(np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]))
    assert np.allclose(eig_sqrt(expression_psd_eig(np.zeros((2, 2)))), np.zeros((2, 2)))
    with pytest.raises(NotPSDError):
        eig_sqrt(expression_psd_eig(np.diag([1.0, -1.0])))
    with pytest.raises(NotHermitianError):
        eig_sqrt(expression_psd_eig(np.array([[0, 1], [0, 0]])))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_psd_sqrt_squares_back(seed):
    m = random_psd(np.random.Generator(np.random.PCG64(seed)), 5)
    r = eig_sqrt(expression_psd_eig(m))
    assert is_hermitian(r, 1e-10) or frobenius_norm(r) == 0
    assert frobenius_norm(r @ r - m) < 1e-10 * max(1.0, frobenius_norm(m))


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 100.0))
@settings(max_examples=25)
def test_psd_sqrt_scaling(seed, s):
    m = random_psd(np.random.Generator(np.random.PCG64(seed)), 4)
    root = eig_sqrt(expression_psd_eig(m))
    assert np.allclose(eig_sqrt(expression_psd_eig(s**2 * m)), s * root, atol=1e-9 * s * frobenius_norm(m))


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
        (1, 7, -0.0, 5e-324),
        (2, 0, 1e300, float("nan")),
        (3, -4, 0.1, 2),
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
    for numpy_row in ((1, np.int64(7), -0.0, 5e-324), (3, -4, np.float64(0.1), 2)):
        with pytest.raises(ValueError, match="4 Python ints and floats"):
            write_csv(path, ["step", "count", "x", "y"], [numpy_row])


_PLAIN_CELLS = [0.1, -0.0, 0.0, math.inf, -math.inf, math.nan, 1e16, 1e-5, 5e-324, 1e300, 2.5, 0, 7, -3, 10**20]
_ODD_CELLS = [
    True, False, np.bool_(True), np.float64(0.1), np.float64(1e16), np.float32(0.1), np.float32(1e-5),
    np.int64(-4), np.int32(9), np.float64(-0.0),
]
_PLAIN_ROWS = st.lists(st.lists(st.sampled_from(_PLAIN_CELLS), min_size=2, max_size=2), max_size=8)
_ODD_ROW = st.one_of(
    st.lists(st.sampled_from(_PLAIN_CELLS), max_size=6).filter(lambda row: len(row) != 2),
    st.lists(st.sampled_from(_ODD_CELLS), min_size=1, max_size=2).map(lambda row: (row + [0.5])[:2]),
)


@given(_PLAIN_ROWS, _ODD_ROW, st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_write_csv_rows_match_the_per_cell_writer_byte_for_byte(rows, odd, at):
    # plain rows of the header's width are the per-cell writer's bytes; one
    # row of another width or with a cell of another type raises instead
    with tempfile.TemporaryDirectory() as tmp:
        fast, slow = Path(tmp) / "fast.csv", Path(tmp) / "slow.csv"
        write_csv(fast, ["a", "b"], rows)
        percell_csv(slow, ["a", "b"], rows)
        assert fast.read_bytes() == slow.read_bytes()
        with pytest.raises(ValueError):
            write_csv(fast, ["a", "b"], rows[:at] + [odd] + rows[at:])


def test_write_csv_plain_rows_and_mixed_rows(tmp_path):
    write_csv(tmp_path / "t.csv", list("abcd"), [(1, 0.5, -0.0, 1e16), (math.nan, math.inf, 10**20, -3)])
    assert (tmp_path / "t.csv").read_text() == "a,b,c,d\n1,0.5,-0.0,1e+16\nnan,inf,100000000000000000000,-3\n"
    for mixed in ([True, np.float32(0.1), np.int64(2), 1e-5], [1, 0.5, -0.0, np.float64(1e16)], (), (math.nan, math.inf)):
        with pytest.raises(ValueError, match="4 Python ints and floats"):
            write_csv(tmp_path / "t.csv", list("abcd"), [(1, 0.5, -0.0, 1e16), mixed])


def _same_as_percell(tmp_path, rows):
    write_csv(tmp_path / "fast.csv", ["a", "b", "c", "d"], rows)
    percell_csv(tmp_path / "slow.csv", ["a", "b", "c", "d"], rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()
    return (tmp_path / "fast.csv").read_text()


def _plain_table(n: int) -> list[list]:
    # exact Python floats of every magnitude and ints, width 4
    rng = np.random.default_rng(n)
    values = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-30, 30, size=(n, 1))
    return [[*row, k] for k, row in enumerate(values.tolist())]


_B = CSV_BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 3 * _B + 7])
def test_write_csv_is_the_per_cell_writer_across_block_boundaries(tmp_path, n):
    text = _same_as_percell(tmp_path, _plain_table(n))
    assert text.count("\n") == n + 1


_ODD_ROWS = {
    "ragged": [0.25, 3, -1.5],
    "empty": [],
    "bool": [0.25, True, -1.5, False],
    "numpy_scalar": [np.float64(0.1), np.int64(-4), np.float32(1e-5), 2],
}


@pytest.mark.parametrize("at", [_B - 1, _B, _B + 1])
@pytest.mark.parametrize("kind", list(_ODD_ROWS))
def test_write_csv_odd_row_before_on_and_after_a_block_boundary(tmp_path, kind, at):
    # row _B - 1 ends the first block and row _B starts the second: the block
    # holding the odd row raises, and the blocks before it stay written
    rows = _plain_table(2 * _B + 3)
    rows[at] = _ODD_ROWS[kind]
    with pytest.raises(ValueError, match="4 Python ints and floats"):
        write_csv(tmp_path / "t.csv", list("abcd"), rows)
    percell_csv(tmp_path / "ref.csv", list("abcd"), rows[: at // _B * _B])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_M = CSV_PART_MIN_ROWS


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counting_fork(monkeypatch) -> list:
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize(
    "n", [2 * _M - 1, 2 * _M, 2 * _M + 1, 2 * _M + _B - 1, 2 * _M + _B, 3 * _M - 1, 3 * _M, 3 * _M + 1, 3 * _M + _B + 5]
)
def test_write_csv_in_parts_is_the_one_part_write(tmp_path, monkeypatch, n):
    # three usable cores: below 2 _M rows one part, below 3 _M two, then
    # three, split at block starts; an iterator always takes one part
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = _counting_fork(monkeypatch)
    rows = _plain_table(n)
    write_csv(tmp_path / "parts.csv", list("abcd"), rows)
    _no_children_left()
    assert len(forks) == min(3, n // _M) - 1
    write_csv(tmp_path / "one.csv", list("abcd"), iter(rows))
    assert len(forks) == min(3, n // _M) - 1
    assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert (tmp_path / "parts.csv").read_text().count("\n") == n + 1


@pytest.mark.parametrize("at", [0, _M - 1, _M, _M + _B + 3, 2 * _M - 1, 2 * _M + 40])
def test_write_csv_odd_row_in_any_part_is_the_one_part_error(tmp_path, monkeypatch, at):
    # 2 _M + 41 rows in two parts, [0, _M) and [_M, 2 _M + 41): the odd row's
    # block raises the one-part path's ValueError whichever process formats
    # it, with the blocks before it written
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rows = _plain_table(2 * _M + 41)
    rows[at] = _ODD_ROWS["numpy_scalar"]
    with pytest.raises(ValueError, match="4 Python ints and floats"):
        write_csv(tmp_path / "t.csv", list("abcd"), rows)
    _no_children_left()
    percell_csv(tmp_path / "ref.csv", list("abcd"), rows[: at // _B * _B])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("fork", ["missing", "raising"])
def test_write_csv_without_a_fork_formats_every_part_itself(tmp_path, monkeypatch, fork):
    rows = _plain_table(3 * _M + 7)
    write_csv(tmp_path / "ref.csv", list("abcd"), iter(rows))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        def refuse():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", refuse)
    write_csv(tmp_path / "t.csv", list("abcd"), rows)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    rows[2 * _M + 1] = _ODD_ROWS["bool"]
    with pytest.raises(ValueError, match="4 Python ints and floats"):
        write_csv(tmp_path / "t.csv", list("abcd"), rows)
    percell_csv(tmp_path / "ref.csv", list("abcd"), rows[: 2 * _M])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _no_children_left()


def test_write_csv_plain_block_of_float_edge_cases(tmp_path):
    # a whole block and part of the next, every cell an exact float
    rows = [[-0.0, 5e-324, 1e16, 1e-05, math.nan, math.inf]] * (_B + 6)
    write_csv(tmp_path / "t.csv", list("abcdef"), rows)
    percell_csv(tmp_path / "ref.csv", list("abcdef"), rows)
    text = (tmp_path / "t.csv").read_text()
    assert text == (tmp_path / "ref.csv").read_text()
    assert text == "a,b,c,d,e,f\n" + "-0.0,5e-324,1e+16,1e-05,nan,inf\n" * (_B + 6)


def test_write_csv_peak_memory_does_not_grow_with_row_count(tmp_path):
    # a block is held as text, never the table: ten times the rows, the
    # same traced peak up to a small constant (the 200 000 rows are 1.2 MB
    # of text)
    def peak(n):
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ["n", "x"], itertools.repeat((7, 0.1), n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) <= peak(20_000) + 16 * 1024


@pytest.mark.parametrize("seed", range(20))
def test_frobenius_norm_is_numpys_norm_bit_for_bit_when_it_does_not_overflow(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = random_complex(rng, 1 + seed % 7) * 10.0 ** rng.uniform(-300, 150)
    assert frobenius_norm(a) == float(np.linalg.norm(a))
    assert frobenius_norm(a.real) == float(np.linalg.norm(a.real))


def test_frobenius_norm_rescales_an_overflowing_sum_of_squares():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's first try overflows
        assert frobenius_norm(np.full((2, 2), 1e160)) == pytest.approx(2e160, rel=1e-15)
        assert frobenius_norm(np.array([[3e200, 0], [4e200j, 0]])) == pytest.approx(5e200, rel=1e-15)
        assert frobenius_norm(np.full((3, 3), 1e308)) == math.inf  # the norm itself is past the range
        assert frobenius_norm(np.array([[math.inf, 1.0]])) == math.inf
        assert math.isnan(frobenius_norm(np.array([[math.nan, 1e200]])))


def test_as_hermitian_refuses_a_matrix_whose_norm_overflowed_before():
    # ||A - A^dag|| and ||A|| once both read inf, and inf <= 1e-10 inf passed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NotHermitianError):
            as_hermitian([[0, 1e160], [0, 0]])
        h = as_hermitian([[1e160, 2e160j], [-2e160j, 0]])
    assert np.array_equal(h, np.array([[1e160, 2e160j], [-2e160j, 0]]))
