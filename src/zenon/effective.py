"""Conditional evolution step and its stroboscopic effective generator.

A composite Hamiltonian lives on system (x) ancilla with the ancilla as a
dimension-2 factor.  The conditional step for survival outcome m is the
sub-block K(tau) = <m| exp(-i H tau) |m>, and in the small-tau limit n such
steps are generated by

    H_eff = H_0 - i (tau / 2) Gamma,

with H_0 = <m|H|m> and Gamma = <m|H^2|m> - H_0^2 = <m|H|o><o|H|m> >= 0
(m = measured ancilla state, o = the other one).  Both Gamma forms are
computed and must agree; their equality is a strong internal consistency
check on the block bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    NumericalError,
    ValidationError,
)
from .linalg import (
    as_cmatrix,
    dagger,
    frobenius_norm,
    hermitian_eig,
    hermitian_part,
    expm,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    trace,
)
from .errors import NotHermitianError, NotPSDError

GAMMA_FORM_ATOL = 1e-12
GAMMA_PSD_RTOL = 1e-10


@dataclass(frozen=True)
class AncillaSpec:
    """Which factor of the composite space is the measured ancilla.

    ancilla_site None means the least significant dimension-2 factor of a
    space of even dimension (any system dimension).  An integer selects a
    1-based qubit of a power-of-two register, counted from the most
    significant factor, and the operator is permuted so that qubit becomes
    the least significant one.  measured_state is the ancilla outcome that
    continues the conditional evolution.
    """

    ancilla_site: int | None = None
    measured_state: int = 0

    def __post_init__(self):
        if self.measured_state not in (0, 1):
            raise ValidationError(
                f"measured_state must be 0 or 1, got {self.measured_state}"
            )
        if self.ancilla_site is not None and self.ancilla_site < 1:
            raise ValidationError(f"ancilla_site must be >= 1, got {self.ancilla_site}")


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


def _canonical(h: np.ndarray, spec: AncillaSpec) -> np.ndarray:
    order = ancilla_order(h.shape[0], spec)
    return h[np.ix_(order, order)]


def ancilla_blocks(h, spec: AncillaSpec = AncillaSpec()):
    """System-space blocks (<m|A|m>, <m|A|o>, <o|A|m>, <o|A|o>) of a composite
    operator, with m the measured ancilla state and o the other one."""
    hc = _canonical(as_cmatrix(h), spec)
    m = spec.measured_state
    o = 1 - m
    return (hc[m::2, m::2], hc[m::2, o::2], hc[o::2, m::2], hc[o::2, o::2])


def kraus_step(h, spec: AncillaSpec, tau: float) -> np.ndarray:
    """Exact conditional step <m| exp(-i H tau) |m>.

    As a sub-block of a unitary its operator norm cannot exceed 1; that is
    verified to 1e-10 before returning.
    """
    hm = as_cmatrix(h)
    if not is_hermitian(hm):
        raise NotHermitianError("composite Hamiltonian must be Hermitian")
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    hc = _canonical(hm, spec)
    u = expm(-1j * tau * hc)
    m = spec.measured_state
    k = u[m::2, m::2]
    sv_sq = hermitian_eig(dagger(k) @ k).eigenvalues[-1]
    if sv_sq > 1.0 + 1e-10:
        raise NumericalError(
            f"conditional step has operator norm {np.sqrt(sv_sq):.12f} > 1"
        )
    return k


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Stroboscopic generator split into Hermitian drift and PSD decay parts.

    The full non-Hermitian matrix is h0 - i (tau / 2) gamma, see matrix().
    """

    h0: np.ndarray
    gamma: np.ndarray
    tau: float

    def __post_init__(self):
        h0 = as_cmatrix(self.h0)
        gamma = as_cmatrix(self.gamma)
        if h0.shape != gamma.shape:
            raise BadDimensionError(
                f"h0 and gamma shapes differ: {h0.shape} vs {gamma.shape}"
            )
        if not self.tau > 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if not is_hermitian(h0):
            raise NotHermitianError("h0 must be Hermitian")
        if not is_hermitian(gamma):
            raise NotHermitianError("gamma must be Hermitian")
        w = hermitian_eig(gamma).eigenvalues
        if w[0] < -GAMMA_PSD_RTOL * max(1.0, frobenius_norm(gamma)):
            raise NotPSDError(f"gamma has eigenvalue {w[0]:.6e} below tolerance")
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

    @classmethod
    def from_json(cls, obj: dict) -> "EffectiveHamiltonian":
        if not isinstance(obj, dict):
            raise ValidationError("effective Hamiltonian must be a JSON mapping")
        try:
            return cls(
                h0=matrix_from_json(obj["h0"]),
                gamma=matrix_from_json(obj["gamma"]),
                tau=float(obj["tau"]),
            )
        except KeyError as exc:
            raise ValidationError(f"missing field {exc} in effective Hamiltonian") from exc


def derive_effective(h, spec: AncillaSpec, tau: float) -> EffectiveHamiltonian:
    """Effective generator of the repeated-measurement limit.

    Gamma is computed both as the second-moment defect <m|H^2|m> - H_0^2 and
    as the product <m|H|o><o|H|m>; the two must agree to GAMMA_FORM_ATOL
    (relative to the larger of 1 and its norm) or a NumericalError is raised.
    """
    hm = as_cmatrix(h)
    if not is_hermitian(hm):
        raise NotHermitianError("composite Hamiltonian must be Hermitian")
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    hc = _canonical(hm, spec)
    m = spec.measured_state
    o = 1 - m
    h0 = hc[m::2, m::2]
    b = hc[m::2, o::2]
    c = hc[o::2, m::2]
    gamma_product = b @ c
    h2 = hc @ hc
    gamma_moment = h2[m::2, m::2] - h0 @ h0
    gap = frobenius_norm(gamma_moment - gamma_product)
    if gap > GAMMA_FORM_ATOL * max(1.0, frobenius_norm(gamma_moment)):
        raise NumericalError(
            f"the two decay-operator forms disagree by {gap:.3e} (Frobenius)"
        )
    return EffectiveHamiltonian(
        h0=hermitian_part(h0),
        gamma=hermitian_part((gamma_moment + gamma_product) / 2),
        tau=tau,
    )


def effective_from_matrix(h_eff, tau: float) -> EffectiveHamiltonian:
    """Split a non-Hermitian generator into (h0, gamma, tau).

    The anti-Hermitian part is read as -i (tau/2) gamma, so gamma must come
    out positive semidefinite for the split to be a valid decay operator.
    """
    m = as_cmatrix(h_eff)
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    h0 = hermitian_part(m)
    gamma = hermitian_part(1j * (m - dagger(m)) / tau)
    return EffectiveHamiltonian(h0=h0, gamma=gamma, tau=tau)


def remove_identity_shift(a) -> np.ndarray:
    """Subtract (tr A / dim) I, leaving the traceless part."""
    m = as_cmatrix(a)
    return m - (trace(m) / m.shape[0]) * np.eye(m.shape[0], dtype=complex)
