"""Conditional evolution step and its stroboscopic effective generator.

A composite Hamiltonian lives on system (x) ancilla with the ancilla as a
dimension-2 factor, prepared and measured in |0>.  The conditional step of
a run that finds the ancilla in |0> again is the sub-block
K(tau) = <0| exp(-i H tau) |0>, built from the eigendecomposition
H = V diag(w) V^dag as I + V_0 diag(exp(-i tau w) - 1) V_0^dag (no matrix
exponential of the composite), or from dimension 32 on, where a norm bound
certifies it, as a Taylor series on the ancilla-|0> columns alone
(kraus_from_series, no eigendecomposition); in the small-tau limit n such
steps are generated by

    H_eff = H_0 - i (tau / 2) Gamma,

with H_0 = <0|H|0> and Gamma = B B^dag >= 0, B = <0|H|1>.  Gamma is
returned in this product form, positive semidefinite by construction; the
second-moment form <0|H^2|0> - H_0^2 of the same operator is computed only
to check it, a strong internal consistency check on the block bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionError, NumericalError, ValidationError
from .linalg import (
    EIGVALSH_MIN_DIM,
    _TAYLOR,
    _UNIT_ROUNDOFF,
    EigenDecomposition,
    _eigvals,
    _is_count,
    as_cmatrix,
    as_hermitian,
    as_psd,
    certified_above,
    dagger,
    frobenius_norm,
    hermitian_part,
    matrix_to_json,
    trace,
)

GAMMA_FORM_ATOL = 1e-12


@dataclass(frozen=True)
class AncillaSpec:
    """Which factor of the composite space is the measured ancilla, whose
    outcome |0> continues the conditional evolution.

    ancilla_site None means the least significant dimension-2 factor of a
    space of even dimension (any system dimension).  An integer selects a
    1-based qubit of a power-of-two register, counted from the most
    significant factor, and the operator is permuted so that qubit becomes
    the least significant one.
    """

    ancilla_site: int | None = None

    def __post_init__(self):
        if self.ancilla_site is not None and not (_is_count(self.ancilla_site) and self.ancilla_site >= 1):
            raise ValidationError(f"ancilla_site must be None or an int >= 1, got {self.ancilla_site!r}")


def _check_tau(tau) -> None:
    """The one rule on a step length: ValidationError unless 0 < tau < inf
    (a NaN fails)."""
    if not 0 < tau < math.inf:
        raise ValidationError(f"tau must be positive, got {tau}")


def ancilla_order(dim: int, spec: AncillaSpec) -> np.ndarray:
    """Basis permutation placing the ancilla as the least significant factor.

    Returns `order` such that A_canonical = A[np.ix_(order, order)]; position
    j = 2*s + a of the canonical matrix holds system index s and ancilla bit a.
    """
    if dim < 2 or dim % 2 != 0:
        raise BadDimensionError(f"composite dimension must be even, got {dim}")
    if spec.ancilla_site is None:
        return np.arange(dim)
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise BadDimensionError(
            f"ancilla_site addressing needs a power-of-two dimension, got {dim}"
        )
    site = spec.ancilla_site
    if site > n:
        raise BadDimensionError(f"ancilla_site {site} outside 1..{n}")
    # one axis per qubit, most significant first; the ancilla's axis moves last
    axes = [k for k in range(n) if k != site - 1] + [site - 1]
    return np.arange(dim).reshape((2,) * n).transpose(axes).ravel()


def ancilla_rows(dim: int, spec: AncillaSpec) -> tuple[np.ndarray, np.ndarray]:
    """Composite indices (rows_0, rows_1) of ancilla states |0> and |1>, each
    in system-index order: the one reader of the ancilla layout."""
    order = ancilla_order(dim, spec)
    return order[0::2], order[1::2]


def kraus_from_eig(eig: EigenDecomposition, spec: AncillaSpec, tau: float) -> np.ndarray:
    """<0| exp(-i H tau) |0> from H = V diag(w) V^dag as I + V_0 diag(phi) V_0^dag, V_0
    the rows of V for ancilla state |0> in canonical order: V's rounding enters
    K scaled by tau, not at full size as in V exp(-i tau w) V^dag.  phi =
    exp(-i tau w) - 1 (_phase_minus_one).  K's operator norm is verified to be
    <= 1 + 1e-10 (_check_step_norm)."""
    _check_tau(tau)
    vm = eig.eigenvectors[ancilla_rows(eig.eigenvalues.size, spec)[0]]
    w = eig.eigenvalues.tolist()  # ascending
    top = tau * max(-w[0], w[-1])  # the largest |tau w|
    if not top < 2.0**53:  # from there on a double resolves no phase mod 2 pi
        raise NumericalError(f"step phase tau * |w| = {top:g} is not resolved in double precision")
    phi = _phase_minus_one(eig.eigenvalues, tau, top)
    k = np.eye(vm.shape[0], dtype=complex) + (vm * phi) @ dagger(vm)
    _check_step_norm(k)
    return k


def _phase_minus_one(w: np.ndarray, tau: float, top: float) -> np.ndarray:
    """exp(-i tau w) - 1 for real w with every |tau w| <= top < 2^53: an
    order-18 series at |tau w| / 2^s <= 1/2, doubled s times by
    expm1(2x) = expm1(x) (2 + expm1(x)), with no libm sin (new library pages
    for a protocol run)."""
    s = max(0, math.frexp(top)[1] + 1)
    z = w * (-1j * math.ldexp(tau, -s))
    phi = z / 18
    for j in range(17, 0, -1):
        phi = z / j * (1 + phi)
    for _ in range(s):
        phi = phi * (2 + phi)
    return phi


def kraus_from_series(h: np.ndarray, spec: AncillaSpec, tau) -> np.ndarray | None:
    """<0| exp(-i H tau) |0> of a composite of dimension d >= EIGVALSH_MIN_DIM
    without an eigendecomposition, where a norm bound certifies it; None
    wherever it does not (d < EIGVALSH_MIN_DIM, or the certificate refuses),
    and the caller's eigh route decides.  The caller has checked tau.

    H is gated once (as_hermitian, whose errors are the eigh route's) and
    Y = tau (H - c I), c = tr H / d, is formed in the gate's buffer.  Y's
    eigenvalues straddle 0, so tau * (Bohr spread) <= 2 ||Y||_2, and
    ||Y||_2 <= b = (||Y^4||_F + rounding)^(1/4) (Al-Mohy and Higham, SIAM J.
    Matrix Anal. Appl. 31, 970 (2009)), ||Y^2 Y^2||_F summed a row block at a
    time.  Where 2b <= 1 - 2^-16 no regime warning can fire: the slack covers
    eigh's rounding of the spread at |tau c| <= 2^20, beyond which the phase
    is left to eigh.  tau * spread >= ||Y||_2 >= ||Y||_F / sqrt(d), so an
    input with ||Y||_F >= sqrt(d) certainly warns and pays no product.

    K = e^(-i tau c) [e^(-iY)]_00 is then the Taylor series of degree m, the
    least with b^(m+1) / (m+1)! < u, by Horner in Y^2 on the ancilla-|0>
    columns E_0: e^(-iY) E_0 = sum_j (Y^2)^j (-1)^j (E_0 / (2j)! - i Y E_0 /
    (2j+1)!), Y E_0 being Y's own columns, and the last step forms the |0>
    rows alone.  The phase is _phase_minus_one's and the identity is added
    last, so K - I keeps its relative accuracy; _check_step_norm checks K.
    """
    d = h.shape[0]
    if d < EIGVALSH_MIN_DIM:
        return None
    y = as_hermitian(h)
    c = float(np.trace(y).real) / d
    top = tau * abs(c)
    if not top <= 2.0**20:
        return None
    y.flat[:: d + 1] -= c
    y *= tau
    nrm = frobenius_norm(y)
    if not nrm < math.sqrt(d):
        return None
    z = y @ y
    rows, fourth = 64, 0.0  # Z Z = Y^4 is Hermitian: each row block from its diagonal on
    for lo in range(0, d, rows):
        blk = z[lo : lo + rows] @ z[:, lo:]
        fourth += 2 * frobenius_norm(blk) ** 2 - frobenius_norm(blk[:, :rows]) ** 2
    # fl(Y^2) and fl(Z Z) are each within gamma_d of their products, summed: 4 d u ||Y||_F^4
    b = (math.sqrt(fourth) * (1 + 2 * d * d * _UNIT_ROUNDOFF) + 4 * d * _UNIT_ROUNDOFF * nrm**4) ** 0.25
    if not 2 * b <= 1 - 2.0**-16:
        return None
    m = next(n for n in range(len(_TAYLOR) - 1) if b ** (n + 1) * _TAYLOR[n + 1] < _UNIT_ROUNDOFF)
    r0 = ancilla_rows(d, spec)[0]
    cols = np.arange(r0.size)
    y0 = y[:, r0]
    del y
    half = m // 2  # p and q, the two Horner buffers, are d x d/2
    p = y0 * ((-1) ** half * -1j * _TAYLOR[2 * half + 1])
    p[r0, cols] += (-1) ** half * _TAYLOR[2 * half]  # read only if half > 0, so I waits for the end
    q = np.empty_like(p)
    for j in range(half - 1, 0, -1):
        np.matmul(z, p, out=q)
        np.multiply(y0, (-1) ** j * -1j * _TAYLOR[2 * j + 1], out=p)
        q += p
        q[r0, cols] += (-1) ** j * _TAYLOR[2 * j]
        p, q = q, p
    del q
    k = -1j * y0[r0]  # [e^(-iY)]_00 - I, the last Horner step on the |0> rows alone
    del y0
    if half:
        k += z[r0] @ p
    del z, p  # released before the norm check
    phi = complex(_phase_minus_one(np.array([c]), tau, top)[0])
    k *= 1 + phi
    k.flat[:: r0.size + 1] += phi
    k.flat[:: r0.size + 1] += 1.0
    _check_step_norm(k)
    return k


def _check_step_norm(k: np.ndarray) -> None:
    """NumericalError unless ||K||_2^2 <= 1 + 1e-10: linalg.certified_above
    on I - K^dag K proves it, or else the largest eigenvalue of K^dag K
    decides."""
    gram = as_hermitian(dagger(k) @ k)
    if not certified_above(np.eye(k.shape[0], dtype=complex) - gram, -1e-10):
        sv_sq = _eigvals(gram)[-1]
        if sv_sq > 1.0 + 1e-10:
            raise NumericalError(
                f"conditional step has operator norm {np.sqrt(sv_sq):.12f} > 1"
            )


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Stroboscopic generator split into Hermitian drift and PSD decay parts.

    The full non-Hermitian matrix is h0 - i (tau / 2) gamma, see matrix().
    h0 and gamma are stored as the package's two gates return them:
    linalg.as_hermitian(h0) and linalg.as_psd(gamma), each exactly Hermitian.
    """

    h0: np.ndarray
    gamma: np.ndarray
    tau: float

    def __post_init__(self):
        _check_tau(self.tau)
        with np.errstate(over="ignore"):  # a norm past 1e154 is rescaled, not warned about
            h0 = as_hermitian(self.h0)
            gamma = as_psd(self.gamma)
        if h0.shape != gamma.shape:
            raise BadDimensionError(
                f"h0 and gamma shapes differ: {h0.shape} vs {gamma.shape}"
            )
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "gamma", gamma)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def matrix(self) -> np.ndarray:
        """The non-Hermitian generator h0 - i (tau/2) gamma."""
        return self.h0 - 0.5j * self.tau * self.gamma

    def to_json(self) -> dict:
        return {
            "h0": matrix_to_json(self.h0),
            "gamma": matrix_to_json(self.gamma),
            "tau": float(self.tau),
        }


def derive_effective(h, spec: AncillaSpec, tau: float) -> EffectiveHamiltonian:
    """Effective generator of the repeated-measurement limit.

    Gamma is the product B B^dag, B = <0|H|1>.  Its second-moment form
    <0|H^2|0> - H_0^2, read from the |0> rows and columns of H alone, is only
    its check: the two must agree to GAMMA_FORM_ATOL (relative to the larger
    of 1 and the moment form's norm) or a NumericalError is raised, as it is,
    without numpy's overflow warnings, for a Gamma beyond the double range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hm = as_hermitian(h)
        rm, ro = ancilla_rows(hm.shape[0], spec)
        rows = hm[rm]
        h0 = rows[:, rm]
        b = rows[:, ro]
        gamma = b @ dagger(b)
        # a finite norm proves every entry finite; only an overflowing one needs the entry test
        if not math.isfinite(frobenius_norm(gamma)) and not np.isfinite(gamma).all():
            raise NumericalError("the decay operator Gamma = B B^dag overflows the double range")
        gamma_moment = rows @ hm[:, rm] - h0 @ h0
        gap = frobenius_norm(gamma_moment - gamma)
        if not gap <= GAMMA_FORM_ATOL * max(1.0, frobenius_norm(gamma_moment)):
            raise NumericalError(f"the two decay-operator forms disagree by {gap:.3e} (Frobenius)")
    del hm, rows, b, gamma_moment  # dead before the constructor gates h0 and gamma
    return EffectiveHamiltonian(h0=h0, gamma=gamma, tau=tau)


def decay_generator(h_eff) -> np.ndarray:
    """The Hermitian operator i (H_eff - H_eff^dag), tau Gamma of H_eff.

    Raises NumericalError, without numpy's warnings, when it overflows the
    double range (an anti-Hermitian part near the limit)."""
    m = as_cmatrix(h_eff)
    with np.errstate(over="ignore", invalid="ignore"):
        g = hermitian_part(1j * (m - dagger(m)))
        # a finite norm proves every entry finite; only an overflowing one needs the entry test
        if not math.isfinite(frobenius_norm(g)) and not np.isfinite(g).all():
            raise NumericalError("the decay generator i (H_eff - H_eff^dag) overflows the double range")
    return g


def remove_identity_shift(a) -> np.ndarray:
    """Subtract (tr A / dim) I, leaving the traceless part."""
    m = as_cmatrix(a)
    return m - (trace(m) / m.shape[0]) * np.eye(m.shape[0], dtype=complex)
