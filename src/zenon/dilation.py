"""Hermitian dilation of a non-Hermitian generator onto system (x) ancilla.

Given a target generator H_eff on the system alone, build the composite
Hermitian Hamiltonian

    H = (H_eff + H_eff^dag)/2 (x) |0><0|  +  R (x) (|0><1| + |1><0|),
    R = sqrt(c I + G / tau) = V sqrt(c + w / tau) V^dag,

whose repeated-measurement limit reproduces H_eff up to the identity shift
-i tau c / 2.  G = i (H_eff - H_eff^dag) = V diag(w) V^dag is the decay
generator; c = max(0, -M), M = w_0 / tau, lifts its weights to >= 0, and on
G's own eigenvectors R's null weight c + w_0 / tau is exactly 0.  tau is
0.01 over G's largest Bohr frequency f: deep in the stroboscopic regime, at
the price of an ancilla coupling of order sqrt(f / tau).
validate_stroboscopic is protocol.stroboscopic_error on the dilated model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix
from .effective import AncillaSpec, _check_tau, decay_generator, derive_effective, remove_identity_shift
from .errors import (
    NotHermitianError,
    NumericalError,
    RoundTripFailureError,
    StroboscopicRegimeWarning,
    ValidationError,
    ZeroAntiHermitianPartError,
)
from .linalg import (
    as_cmatrix,
    dagger,
    frobenius_norm,
    hermitian_eig,
    hermitian_part,
    hermitian_residual,
    kron,
    matrix_to_json,
)
from .protocol import ProtocolConfig, steps_for, stroboscopic_error

ROUNDTRIP_TOL = 1e-10
TAU_BOHR_PRODUCT = 0.01
GAMMA_TAU_LIMIT = 0.15

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


def choose_tau(f: float) -> float:
    """tau = 0.01 / f; rejects f <= 0 (nothing to dilate for a Hermitian input)."""
    if not f > 0:
        raise ZeroAntiHermitianPartError(
            f"max Bohr frequency of the anti-Hermitian part is {f:g}; "
            "supply tau explicitly for (near-)Hermitian inputs"
        )
    return TAU_BOHR_PRODUCT / f


@dataclass(frozen=True)
class DilationResult:
    """Composite Hermitian Hamiltonian plus the bookkeeping scalars.

    f is the largest Bohr frequency of i (H_eff - H_eff^dag) and M the
    smallest eigenvalue of that operator divided by tau; the identity lift
    applied under the square root, c = max(0, -M), is read from M.
    """

    h: np.ndarray
    tau: float
    f: float
    m: float

    def __post_init__(self):
        hm = as_cmatrix(self.h)
        with np.errstate(over="ignore"):  # frobenius_norm retries an overflowing sum of squares
            residual, scale = hermitian_residual(hm), frobenius_norm(hm)
        if not residual <= 1e-12 * max(1.0, scale):  # a NaN fails
            raise NotHermitianError("dilated Hamiltonian must be Hermitian to 1e-12")
        _check_tau(self.tau)
        object.__setattr__(self, "h", hm)
        if self.f * self.tau > 0.011:
            warnings.warn(
                f"f * tau = {self.f * self.tau:.4g} > 0.011; dilation leaves the "
                "intended stroboscopic regime",
                StroboscopicRegimeWarning,
                stacklevel=3,
            )

    @property
    def c(self) -> float:
        return max(0.0, -self.m)

    def to_json(self) -> dict:
        return {
            "H": matrix_to_json(self.h),
            "tau": float(self.tau),
            "c": float(self.c),
            "f": float(self.f),
            "M": float(self.m),
        }


def dilate(h_eff, tau: float | None = None, fallback: float | None = None) -> DilationResult:
    """Build the composite Hermitian Hamiltonian realizing h_eff at step tau,
    with f, M, c and R = V sqrt(c + w / tau) V^dag from one eigh of G.  A tau
    of None takes choose_tau(f) from that same eigh, or fallback when f is 0;
    the tau so chosen, or given, must be positive and finite (ValidationError).

    Raises NumericalError when c + w / tau overflows the double range; R is
    finite whenever those weights are (its entries are at most
    sqrt(max(c + w / tau)) in modulus)."""
    m = as_cmatrix(h_eff)
    with np.errstate(over="ignore"):  # frobenius_norm retries; an infinite spread is refused below
        eig = hermitian_eig(decay_generator(m))
        w = eig.eigenvalues
        f = float(w[-1] - w[0])
    if tau is None:
        tau = choose_tau(f) if f > 0 or fallback is None else fallback
    _check_tau(tau)  # the one check of every source, before tau divides: choose_tau(inf) is 0
    with np.errstate(over="ignore"):  # an overflow is refused below
        m_min = float(w[0]) / tau
        c = max(0.0, -m_min)
        lifted = c + w / tau
    if not np.all(np.isfinite(lifted)):
        raise NumericalError(f"c + w / tau overflows at tau = {tau:.4g}: decay spread {f:.4g}")
    v = eig.eigenvectors  # lifted is >= 0 by construction; the clip only guards the square root
    coupling = hermitian_part((v * np.sqrt(np.clip(lifted, 0.0, None))) @ dagger(v))
    h = kron(hermitian_part(m), _P0) + kron(coupling, _FLIP)
    return DilationResult(h=h, tau=tau, f=f, m=m_min)


@dataclass(frozen=True)
class RoundTripReport:
    """Residuals of dilate -> derive_effective against the dilation targets,
    at step tau."""

    tau: float
    hermitian_residual: float
    gamma_residual: float
    traceless_residual: float
    recovered_shift: float


def roundtrip_check(h_eff, tau: float | None = None, fallback: float | None = None) -> RoundTripReport:
    """Dilate (tau and fallback as dilate takes them), re-derive, and compare
    against the construction targets.

    The recovered generator equals the input plus the pure identity shift
    -i tau c / 2 (reported as recovered_shift = -tau c / 2 on the imaginary
    part), so the traceless parts must agree.  Raises RoundTripFailureError
    when any residual exceeds ROUNDTRIP_TOL relative to max(1, target norm).
    """
    m = as_cmatrix(h_eff)
    res = dilate(m, tau, fallback)
    tau = res.tau
    eff = derive_effective(res.h, AncillaSpec(), tau)
    with np.errstate(over="ignore"):  # frobenius_norm retries an overflowing sum of squares
        herm_target = hermitian_part(m)
        gamma_target = res.c * np.eye(m.shape[0], dtype=complex) + decay_generator(m) / tau
        r_herm = frobenius_norm(eff.h0 - herm_target)
        r_gamma = frobenius_norm(eff.gamma - gamma_target)
        r_traceless = frobenius_norm(remove_identity_shift(eff.matrix()) - remove_identity_shift(m))
        checks = (
            (r_herm, max(1.0, frobenius_norm(herm_target))),
            (r_gamma, max(1.0, frobenius_norm(gamma_target))),
            (r_traceless, max(1.0, frobenius_norm(remove_identity_shift(m)))),
        )
    shift = -tau * res.c / 2.0
    for residual, scale in checks:
        if residual > ROUNDTRIP_TOL * scale:
            raise RoundTripFailureError(
                f"round trip residuals (hermitian {r_herm:.3e}, gamma {r_gamma:.3e}, "
                f"traceless {r_traceless:.3e}) exceed {ROUNDTRIP_TOL:g}"
            )
    return RoundTripReport(
        tau=tau,
        hermitian_residual=r_herm,
        gamma_residual=r_gamma,
        traceless_residual=r_traceless,
        recovered_shift=shift,
    )


def validate_stroboscopic(h_eff, tau: float, t: float, rho0: DensityMatrix) -> float:
    """protocol.stroboscopic_error of the dilated model over n = steps_for(t, tau)
    steps: the Frobenius distance between the normalized exact protocol state
    and rho0 propagated by the generator derived from the dilated model,
    which is h_eff (to roundtrip_check's residuals) plus an identity shift
    that normalization removes.  A reference state that collapses raises
    ProbabilityUnderflowError.  The ancilla coupling scale
    gamma tau = sqrt(f tau) must stay below 0.15 for the comparison to be
    meaningful.
    """
    if not t > 0:
        raise ValidationError(f"t must be positive, got {t}")
    res = dilate(h_eff, tau)
    if math.sqrt(max(res.f, 0.0) * tau) >= GAMMA_TAU_LIMIT:
        raise ValidationError(
            f"gamma tau = sqrt(f tau) = {math.sqrt(res.f * tau):.3f} >= {GAMMA_TAU_LIMIT}"
        )
    return stroboscopic_error(ProtocolConfig(res.h, AncillaSpec(), tau, steps_for(t, tau)), rho0)
