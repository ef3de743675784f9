"""Dense complex linear algebra kernels shared by the rest of the package.

Matrices are plain numpy arrays of dtype complex128, square, row-major.
Everything here is pure: no function mutates its argument, so values can be
shared freely between callers and threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, NotPSDError, NumericalError, ValidationError

HERMITICITY_RTOL = 1e-10
EXPM_SCALE_LIMIT = 0.5
EXPM_SERIES_ORDER = 18
EIGVALSH_MIN_DIM = 32


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting anything else."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def trace(a: np.ndarray) -> complex:
    return complex(np.trace(a))


def frobenius_norm(a: np.ndarray) -> float:
    """np.linalg.norm(a), unless its sum of squares overflows (entries past
    about 1e154) where the norm itself need not: then the norm of a divided by
    its largest modulus, times that modulus.  inf only for an infinite entry
    or a norm past the double range; a NaN stays NaN.  The caller owns numpy's
    overflow warning of the first try, as of any other kernel."""
    nrm = float(np.linalg.norm(a))
    if nrm == math.inf:
        with np.errstate(over="ignore", invalid="ignore"):
            big = float(np.max(np.abs(a)))
            if big < math.inf:
                nrm = big * float(np.linalg.norm(np.divide(a, big)))
    return nrm


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with a's index as the major (most significant) one."""
    return np.kron(a, b)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """A^dag written once into a fresh C-ordered buffer, for the caller to
    finish in place."""
    return np.conjugate(a.swapaxes(-1, -2), order="C")


def _halved_sum(a: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2 in adj's own buffer: the same elementwise operations,
    in the same operand order, as the expression, so bit for bit."""
    np.add(a, adj, out=adj)
    adj /= 2
    return adj


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A^dag) / 2, with A^dag its one temporary (an integer A is
    taken as float, as the quotient would be)."""
    a = np.asarray(a)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    return _halved_sum(a, _adjoint(a))


def hermitian_residual(a: np.ndarray) -> float:
    """||A - A^dag||_F, the difference formed in A^dag's one buffer."""
    a = np.asarray(a)
    adj = _adjoint(a)
    return frobenius_norm(np.subtract(a, adj, out=adj))


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_RTOL) -> bool:
    """Relative Frobenius test of A == A^dag (a zero matrix passes; a NaN fails)."""
    return hermitian_residual(a) <= tol * frobenius_norm(a)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors is unitary with column k
    belonging to eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_hermitian(a) -> np.ndarray:
    """The package's one Hermiticity gate: as_cmatrix(a) symmetrized to
    (A + A^dag) / 2 bit for bit, or NotHermitianError unless
    ||A - A^dag||_F <= HERMITICITY_RTOL ||A||_F (a NaN fails); one copy of A
    and one A^dag serve the check and the sum."""
    m = as_cmatrix(a)
    adj = _adjoint(m)
    if not frobenius_norm(m - adj) <= HERMITICITY_RTOL * frobenius_norm(m):
        raise NotHermitianError(
            f"matrix is not Hermitian within relative tolerance {HERMITICITY_RTOL:g}"
        )
    return _halved_sum(m, adj)


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, symmetrized before solving."""
    return EigenDecomposition(*np.linalg.eigh(as_hermitian(a)))


def hermitian_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, for a caller that reads no
    eigenvector: as_hermitian, then _eigvals."""
    return _eigvals(as_hermitian(a))


def _eigvals(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a gated Hermitian h: eigvalsh from dimension
    EIGVALSH_MIN_DIM on.  Below it eigh's eigenvalues serve: the vectors cost
    microseconds there, while a first eigvalsh maps 64 KB of LAPACK code (its
    eigenvalue-only tridiagonal solver) that a small run never needs otherwise."""
    return np.linalg.eigvalsh(h) if h.shape[0] >= EIGVALSH_MIN_DIM else np.linalg.eigh(h)[0]


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The input is halved until its Frobenius norm is at most 0.5, an order-18
    Taylor polynomial is evaluated in Horner form, and the result is squared
    back up.  At that norm the series truncation error sits far below double
    rounding, so no Pade machinery is needed.
    """
    m = as_cmatrix(a)
    n = m.shape[0]
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        nrm = float(np.linalg.norm(m))  # unscaled: past 1e154 no squaring stays finite
    if not np.isfinite(nrm):
        raise NumericalError(f"matrix exponential of a matrix with Frobenius norm {nrm}")
    squarings = 0
    if nrm > EXPM_SCALE_LIMIT:
        squarings = int(np.ceil(np.log2(nrm / EXPM_SCALE_LIMIT)))
    b = m / (2.0**squarings)
    eye = np.eye(n, dtype=complex)
    out = eye.copy()
    for k in range(EXPM_SERIES_ORDER, 0, -1):
        out = eye + (b / k) @ out
    for _ in range(squarings):
        out = out @ out
    return out


def _psd_rule(a, w: np.ndarray) -> None:
    """The one PSD rule, on A's ascending eigenvalues w: w_0 below -tol
    raises NotPSDError, tol = 1e-10 times the Frobenius norm of A."""
    tol = 1e-10 * frobenius_norm(a)
    if w[0] < -tol:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.6e} is below the PSD tolerance -{tol:.6e}")


def psd_eig(a) -> EigenDecomposition:
    """hermitian_eig of a positive semidefinite matrix (see _psd_rule)."""
    eig = hermitian_eig(a)
    _psd_rule(a, eig.eigenvalues)
    return eig


def as_psd(a) -> np.ndarray:
    """The package's one PSD gate: as_hermitian(a), returned once _psd_rule
    has read its eigenvalues alone (_eigvals); raises what psd_eig raises."""
    h = as_hermitian(a)
    _psd_rule(a, _eigvals(h))
    return h


def eig_sqrt(eig: EigenDecomposition) -> np.ndarray:
    """V sqrt(w) V^dag of an eigendecomposition (w, V), negative w clamped to 0."""
    v = eig.eigenvectors
    return hermitian_part((v * np.sqrt(np.clip(eig.eigenvalues, 0.0, None))) @ dagger(v))


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix (see psd_eig);
    eigenvalues in [-tol, 0) are clamped to zero."""
    return eig_sqrt(psd_eig(a))


def matrix_to_json(a) -> dict:
    """Serialize a square complex matrix to {dim, re, im} with row-major entries."""
    m = as_cmatrix(a)
    return {
        "dim": int(m.shape[0]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


_PLAIN_CELLS = frozenset((float, int))


def write_csv(path, header: list[str], rows) -> None:
    """Write a header line and one line per row, a sequence of cells.

    Integers are written as integers and every other value as
    repr(float(v)), the shortest string that reads back to the same double,
    so rerunning a scenario reproduces the file byte for byte.
    """
    def cell(v) -> str:
        return str(v) if isinstance(v, (int, np.integer)) else repr(float(v))

    def line(row) -> str:
        # a row of exact Python floats and ints, nearly every row, is its
        # cells' reprs; bools and numpy scalars take the per-cell rule
        if _PLAIN_CELLS.issuperset(map(type, row)):
            return ",".join(map(repr, row)) + "\n"
        return ",".join(map(cell, row)) + "\n"

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        # lines are streamed, not joined, so a long table is never held as text
        fh.writelines(map(line, rows))


def finite_reals(values) -> np.ndarray | None:
    """values as a float array if each is a finite JSON number (an int or a
    float within the double range, never a bool), else None: the one rule."""
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, values))):
        return None
    try:
        return np.array(values, dtype=float) if all(map(math.isfinite, values)) else None
    except OverflowError:  # math.isfinite of an int beyond the double range
        return None


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of matrix_to_json; rejects mismatched entry counts and non-real entries."""
    if not isinstance(obj, dict):
        raise ValidationError("matrix object must be a JSON mapping")
    try:
        dim = obj["dim"]
        re = list(obj["re"])
        im = list(obj["im"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"matrix object needs dim/re/im fields: {exc}") from exc
    if type(dim) is not int or dim < 1:
        raise ValidationError(f"matrix dim must be a positive integer, got {dim!r}")
    if len(re) != dim * dim or len(im) != dim * dim:
        raise ValidationError(
            f"matrix entry count mismatch: dim {dim} needs {dim * dim} entries, "
            f"got {len(re)} real and {len(im)} imaginary"
        )
    re, im = finite_reals(re), finite_reals(im)
    if re is None or im is None:
        raise ValidationError("matrix entries must be finite real numbers, never booleans")
    return (re + 1j * im).reshape(dim, dim)
