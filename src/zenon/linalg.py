"""Dense complex linear algebra kernels shared by the rest of the package.

Matrices are plain numpy arrays of dtype complex128, square, row-major.
Everything here is pure: no function mutates its argument, so values can be
shared freely between callers and threads.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, NotPSDError, NumericalError, ValidationError

HERMITICITY_RTOL = 1e-10
EXPM_SCALE_LIMIT = 0.5
EXPM_SERIES_ORDER = 18
EIGVALSH_MIN_DIM = 32
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_NORMAL = 2.0**-1022
_TAYLOR = [1.0 / math.factorial(k) for k in range(EXPM_SERIES_ORDER + 1)]


def _is_count(v) -> bool:
    """An int (a Python or numpy integer), not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting anything else."""
    return _square(np.array(a, dtype=complex))


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
    in the same operand order, as the expression, so bit for bit.  Where the
    sum of finite entries overflows, A^dag / 2 + A / 2 instead, finite
    whenever the result is; only that rare case pays for the temporary A / 2."""
    try:
        with np.errstate(over="raise"):
            np.add(a, adj, out=adj)
    except FloatingPointError:
        np.conjugate(a.swapaxes(-1, -2), out=adj)
        adj /= 2
        adj += a / 2
        return adj
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
    ||A - A^dag||_F <= HERMITICITY_RTOL ||A||_F (a NaN fails); one A^dag
    serves the check and the sum.  A complex ndarray is read where it lies,
    not copied: only A^dag's buffer is written."""
    m = _square(np.asarray(a, dtype=complex))
    adj = _adjoint(m)
    if not frobenius_norm(m - adj) <= HERMITICITY_RTOL * frobenius_norm(m):
        raise NotHermitianError(
            f"matrix is not Hermitian within relative tolerance {HERMITICITY_RTOL:g}"
        )
    return _halved_sum(m, adj)


def hermitian_eig(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, symmetrized before solving."""
    return EigenDecomposition(*np.linalg.eigh(as_hermitian(a)))


def _eigvals(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a gated Hermitian h: eigvalsh from dimension
    EIGVALSH_MIN_DIM on.  Below it eigh's eigenvalues serve: the vectors cost
    microseconds there, while a first eigvalsh maps 64 KB of LAPACK code (its
    eigenvalue-only tridiagonal solver) that a small run never needs otherwise."""
    return np.linalg.eigvalsh(h) if h.shape[0] >= EIGVALSH_MIN_DIM else np.linalg.eigh(h)[0]


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The input is halved until its Frobenius norm is at most 0.5, the
    order-18 Taylor polynomial is evaluated as I + q(B), and the result is
    squared back up.  At that norm the series truncation error sits far below
    double rounding, so no Pade machinery is needed.  q, the series without
    its constant term, is evaluated by Paterson and Stockmeyer (SIAM J.
    Comput. 2, 60 (1973)): B^2 .. B^5, then three Horner steps in B^5, 7
    products where Horner's rule takes 18.  The identity is added last, as
    Horner's last step adds it, so U - I keeps its relative accuracy at small
    norms.
    """
    m = as_cmatrix(a)
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        nrm = float(np.linalg.norm(m))  # unscaled: past 1e154 no squaring stays finite
    if not np.isfinite(nrm):
        raise NumericalError(f"matrix exponential of a matrix with Frobenius norm {nrm}")
    squarings = 0
    if nrm > EXPM_SCALE_LIMIT:
        squarings = int(np.ceil(np.log2(nrm / EXPM_SCALE_LIMIT)))
    n = m.shape[0]
    b = m  # as_cmatrix's own copy, scaled in place
    b /= 2.0**squarings
    b2 = b @ b
    powers = (b, b2, b2 @ b, b2 @ b2)  # B^1 .. B^4
    b5 = powers[3] @ b
    out = None
    for low in (15, 10, 5, 0):  # q's degrees low .. low + 4, the highest first
        chunk = _TAYLOR[low + 1] * b
        for r in range(2, min(5, EXPM_SERIES_ORDER + 1 - low)):
            chunk += _TAYLOR[low + r] * powers[r - 1]
        if low:
            chunk.flat[:: n + 1] += _TAYLOR[low]
        if out is not None:
            chunk += b5 @ out
        out = chunk
    out.flat[:: n + 1] += 1.0
    for _ in range(squarings):
        out = out @ out
    return out


def as_psd(a) -> np.ndarray:
    """The package's one PSD gate: as_hermitian(a) (NotHermitianError),
    returned unless its smallest eigenvalue lies below -tol, tol = 1e-10
    ||A||_F (NotPSDError).  From EIGVALSH_MIN_DIM on a Cholesky certificate
    of A + (tol / 2) I usually settles the pass, and the eigenvalues alone
    (_eigvals) decide wherever it does not."""
    h = as_hermitian(a)
    tol = 1e-10 * frobenius_norm(a)
    if not certified_above(h, -tol):
        w = _eigvals(h)
        if w[0] < -tol:
            raise NotPSDError(f"minimum eigenvalue {w[0]:.6e} is below the PSD tolerance -{tol:.6e}")
    return h


def certified_above(h: np.ndarray, floor: float) -> bool:
    """Whether a Cholesky factorization proves every eigenvalue of the
    Hermitian h at least floor < 0.  It factors h + (-floor / 2) I: one that
    completes is exact for a matrix within (d + 1)^2 u ||.||_F of it in the
    2-norm (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 10.5), so it is tried only where that bound is at most -floor / 4,
    on finite h of dimension d >= EIGVALSH_MIN_DIM (below it, no LAPACK
    routine beyond the eigensolver's).  False proves nothing: the caller's
    eigenvalue rule decides, and so keeps every verdict and message."""
    d = h.shape[0]
    if d < EIGVALSH_MIN_DIM:
        return False
    shift = -floor / 2
    with np.errstate(over="ignore"):  # an overflowing norm only refuses the certificate
        bound = (d + 1) ** 2 * _UNIT_ROUNDOFF * frobenius_norm(h)
    if not (_SMALLEST_NORMAL <= shift < math.inf and bound <= shift / 2):  # a NaN refuses
        return False
    x = h.copy()
    x.flat[:: d + 1] += shift
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


def matrix_to_json(a) -> dict:
    """Serialize a square complex matrix to {dim, re, im} with row-major entries."""
    m = as_cmatrix(a)
    return {
        "dim": int(m.shape[0]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


CSV_BLOCK_ROWS = 256
"""Rows write_csv checks, formats and writes as one string."""
CSV_PART_MIN_ROWS = 16 * CSV_BLOCK_ROWS
"""Fewest rows write_csv gives one process: 37 ms of 9-column rows, a fork 3 ms."""
_PLAIN_CELLS = frozenset((float, int))


def _format_rows(fh, width: int, rows_of, lo: int, hi: int) -> None:
    """write_csv's one check and format path, for rows lo .. hi - 1."""
    for start in range(lo, hi, CSV_BLOCK_ROWS):
        block = rows_of(slice(start, min(start + CSV_BLOCK_ROWS, hi)))
        if set(map(len, block)) != {width} or not _PLAIN_CELLS.issuperset(
            map(type, itertools.chain.from_iterable(block))
        ):
            raise ValueError(f"a CSV row is not {width} Python ints and floats")
        cells = map(repr, itertools.chain.from_iterable(block))
        # zip over `width` references to the one iterator: each tuple is a row's cells
        fh.write("\n".join(map(",".join, zip(*[cells] * width))))
        fh.write("\n")


def _fork_format(spill, width: int, rows_of, lo: int, hi: int) -> int | None:
    """The pid of a forked child that writes rows lo .. hi - 1 to spill, exit
    status 0 if it could; None where fork raises."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            _format_rows(spill, width, rows_of, lo, hi)
            spill.flush()
            code = 0
        finally:  # the child never returns, whatever it raised
            os._exit(code)
    return pid


def write_csv(path, header: list[str], n_rows: int, rows_of) -> None:
    """Write a header line and n_rows lines, each row a sequence of
    len(header) Python ints and floats: each cell is repr(v), for a float
    the shortest string that reads back to the same double, so rerunning a
    scenario reproduces the file byte for byte.

    rows_of(slice(start, stop)) returns the list of rows start .. stop - 1.
    It is asked only for slices that start at a multiple of CSV_BLOCK_ROWS
    and span at most that many rows, in order within each part, and each
    block is one write, its cells' reprs regrouped into lines by the
    header's width.  A block with a row of another width or a cell of
    another type (a bool, a numpy scalar) raises ValueError; the blocks
    before it stay written.  Only one block is held as text, so a long
    table never is.

    On Linux the rows are split at block starts into parts, one per usable
    core at most and none below CSV_PART_MIN_ROWS.  Forked children write
    all but the first to temporary files that os.sendfile appends; a part
    whose child fails or could not start is formatted here, so the file and
    any ValueError are the one-part write's.
    """
    width = len(header)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    k = max(1, min(cores, n_rows // CSV_PART_MIN_ROWS))
    bounds = [n_rows // CSV_BLOCK_ROWS * i // k * CSV_BLOCK_ROWS for i in range(k)] + [n_rows]
    with open(path, "w") as fh, contextlib.ExitStack() as spills:
        fh.write(",".join(header) + "\n")
        fh.flush()  # a child inherits no buffered text
        parts = [(lo, hi, spills.enter_context(tempfile.TemporaryFile("w+"))) for lo, hi in zip(bounds[1:], bounds[2:])]
        pids = []
        try:
            for lo, hi, spill in parts:
                pids.append(_fork_format(spill, width, rows_of, lo, hi))
            _format_rows(fh, width, rows_of, 0, bounds[1])
        finally:  # every child is reaped, whatever this process raised
            codes = [1 if pid is None else os.waitpid(pid, 0)[1] for pid in pids]
        for (lo, hi, spill), code in zip(parts, codes):
            fh.flush()
            size, done = os.fstat(spill.fileno()).st_size, 0
            while code == 0 and done < size:
                done += os.sendfile(fh.fileno(), spill.fileno(), done, size - done)
            if code:
                _format_rows(fh, width, rows_of, lo, hi)


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
