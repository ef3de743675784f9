"""Hermitian dilation of a non-Hermitian generator onto system (x) ancilla.

Given a target generator H_eff on the system alone, build the composite
Hermitian Hamiltonian

    H = (H_eff + H_eff^dag)/2 (x) |0><0|  +  R (x) (|0><1| + |1><0|),
    R = sqrt(c I + i (H_eff - H_eff^dag) / tau),

whose repeated-measurement limit reproduces H_eff up to the identity shift
-i tau c / 2.  The constant c = max(0, -M) with M the smallest eigenvalue of
i (H_eff - H_eff^dag) / tau lifts the operator under the square root to
positive semidefinite; tau is chosen as 0.01 over the largest Bohr frequency
of i (H_eff - H_eff^dag), keeping the protocol deep in the stroboscopic
regime at the price of an ancilla coupling of order sqrt(f / tau).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix, conditional_trajectory, normalize
from .effective import AncillaSpec, derive_effective, remove_identity_shift
from .errors import (
    NotHermitianError,
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
    kron,
    matrix_from_json,
    matrix_to_json,
    psd_sqrt,
)
from .protocol import ProtocolConfig, simulate_conditional

ROUNDTRIP_TOL = 1e-10
TAU_BOHR_PRODUCT = 0.01
GAMMA_TAU_LIMIT = 0.15

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


def bohr_frequencies(a) -> np.ndarray:
    """All eigenvalue gaps |w_j - w_i|, i < j, of a Hermitian matrix, ascending."""
    w = hermitian_eig(a).eigenvalues
    if w.size < 2:
        return np.array([])
    gaps = w[None, :] - w[:, None]
    iu = np.triu_indices(w.size, k=1)
    return np.sort(np.abs(gaps[iu]))


def decay_generator(h_eff) -> np.ndarray:
    """The Hermitian operator i (H_eff - H_eff^dag)."""
    m = as_cmatrix(h_eff)
    return hermitian_part(1j * (m - dagger(m)))


def choose_tau(f: float) -> float:
    """tau = 0.01 / f; rejects f <= 0 (nothing to dilate for a Hermitian input)."""
    if not f > 0:
        raise ZeroAntiHermitianPartError(
            f"max Bohr frequency of the anti-Hermitian part is {f:g}; "
            "supply tau explicitly for (near-)Hermitian inputs"
        )
    return TAU_BOHR_PRODUCT / f


def dilation_step(h_eff, fallback: float | None = None) -> float:
    """Step tau for dilating h_eff: choose_tau of the largest Bohr frequency
    of its decay generator, or fallback when that frequency is 0."""
    w = hermitian_eig(decay_generator(h_eff)).eigenvalues
    f = float(w[-1] - w[0]) if w.size > 1 else 0.0
    if f > 0 or fallback is None:
        return choose_tau(f)
    return fallback


@dataclass(frozen=True)
class DilationResult:
    """Composite Hermitian Hamiltonian plus the bookkeeping scalars.

    f is the largest Bohr frequency of i (H_eff - H_eff^dag), M the smallest
    eigenvalue of that operator divided by tau, and c = max(0, -M) the
    identity lift applied under the square root.
    """

    h: np.ndarray
    tau: float
    c: float
    f: float
    m: float

    def __post_init__(self):
        hm = as_cmatrix(self.h)
        if frobenius_norm(hm - dagger(hm)) > 1e-12 * max(1.0, frobenius_norm(hm)):
            raise NotHermitianError("dilated Hamiltonian must be Hermitian to 1e-12")
        if not self.tau > 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if self.c != max(0.0, -self.m):
            raise ValidationError(f"c = {self.c} is not max(0, -M) for M = {self.m}")
        object.__setattr__(self, "h", hm)
        if self.f * self.tau > 0.011:
            warnings.warn(
                f"f * tau = {self.f * self.tau:.4f} > 0.011; dilation leaves the "
                "intended stroboscopic regime",
                StroboscopicRegimeWarning,
                stacklevel=2,
            )

    def to_json(self) -> dict:
        return {
            "H": matrix_to_json(self.h),
            "tau": float(self.tau),
            "c": float(self.c),
            "f": float(self.f),
            "M": float(self.m),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DilationResult":
        if not isinstance(obj, dict):
            raise ValidationError("dilation result must be a JSON mapping")
        try:
            return cls(
                h=matrix_from_json(obj["H"]),
                tau=float(obj["tau"]),
                c=float(obj["c"]),
                f=float(obj["f"]),
                m=float(obj["M"]),
            )
        except KeyError as exc:
            raise ValidationError(f"missing field {exc} in dilation result") from exc


def dilate(h_eff, tau: float) -> DilationResult:
    """Build the composite Hermitian Hamiltonian realizing h_eff at step tau."""
    m = as_cmatrix(h_eff)
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    g0 = decay_generator(m)
    w = hermitian_eig(g0).eigenvalues
    f = float(w[-1] - w[0]) if w.size > 1 else 0.0
    m_min = float(w[0]) / tau
    c = max(0.0, -m_min)
    dim = m.shape[0]
    gamma_target = c * np.eye(dim, dtype=complex) + g0 / tau
    coupling = psd_sqrt(gamma_target)
    h = kron(hermitian_part(m), _P0) + kron(coupling, _FLIP)
    return DilationResult(h=hermitian_part(h), tau=tau, c=c, f=f, m=m_min)


@dataclass(frozen=True)
class RoundTripReport:
    """Residuals of dilate -> derive_effective against the dilation targets."""

    hermitian_residual: float
    gamma_residual: float
    traceless_residual: float
    recovered_shift: float


def roundtrip_check(h_eff, tau: float) -> RoundTripReport:
    """Dilate, re-derive, and compare against the construction targets.

    The recovered generator equals the input plus the pure identity shift
    -i tau c / 2 (reported as recovered_shift = -tau c / 2 on the imaginary
    part), so the traceless parts must agree.  Raises RoundTripFailureError
    when any residual exceeds ROUNDTRIP_TOL relative to max(1, target norm).
    """
    m = as_cmatrix(h_eff)
    res = dilate(m, tau)
    eff = derive_effective(res.h, AncillaSpec(), tau)
    herm_target = hermitian_part(m)
    gamma_target = res.c * np.eye(m.shape[0], dtype=complex) + decay_generator(m) / tau
    r_herm = frobenius_norm(eff.h0 - herm_target)
    r_gamma = frobenius_norm(eff.gamma - gamma_target)
    recovered = eff.matrix()
    r_traceless = frobenius_norm(
        remove_identity_shift(recovered) - remove_identity_shift(m)
    )
    shift = -tau * res.c / 2.0
    checks = (
        (r_herm, max(1.0, frobenius_norm(herm_target))),
        (r_gamma, max(1.0, frobenius_norm(gamma_target))),
        (r_traceless, max(1.0, frobenius_norm(remove_identity_shift(m)))),
    )
    for residual, scale in checks:
        if residual > ROUNDTRIP_TOL * scale:
            raise RoundTripFailureError(
                f"round trip residuals (hermitian {r_herm:.3e}, gamma {r_gamma:.3e}, "
                f"traceless {r_traceless:.3e}) exceed {ROUNDTRIP_TOL:g}"
            )
    return RoundTripReport(
        hermitian_residual=r_herm,
        gamma_residual=r_gamma,
        traceless_residual=r_traceless,
        recovered_shift=shift,
    )


def validate_stroboscopic(h_eff, tau: float, t: float, rho0: DensityMatrix) -> float:
    """Distance between the dilated protocol and direct h_eff propagation.

    Runs the exact repeated-measurement protocol on the dilated Hamiltonian
    for n = round(t / tau) steps and compares the normalized conditional
    state against the final state of conditional_trajectory under h_eff at
    n tau (a reference that collapses raises ProbabilityUnderflowError),
    returning the Frobenius distance.  The ancilla coupling scale gamma tau =
    sqrt(f tau) must stay below 0.15 for the comparison to be meaningful.
    """
    m = as_cmatrix(h_eff)
    if not t > 0:
        raise ValidationError(f"t must be positive, got {t}")
    res = dilate(m, tau)
    if math.sqrt(max(res.f, 0.0) * tau) >= GAMMA_TAU_LIMIT:
        raise ValidationError(
            f"gamma tau = sqrt(f tau) = {math.sqrt(res.f * tau):.3f} >= {GAMMA_TAU_LIMIT}"
        )
    n_steps = max(1, round(t / tau))
    cfg = ProtocolConfig(h=res.h, spec=AncillaSpec(), tau=tau, n_steps=n_steps)
    exact = normalize(simulate_conditional(cfg, rho0))
    _, _, states = conditional_trajectory(m, rho0, n_steps * tau, 2)
    return frobenius_norm(exact.rho - states[-1])
