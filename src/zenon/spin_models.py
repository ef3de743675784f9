"""Multi-qubit Pauli operators and the two three-spin interaction models.

Conventions used everywhere: basis states are labelled |q1 q2 ... qn> with
qubit 1 as the most significant bit of the basis index, and sigma_z|0> = +|0>.
In the three-spin models qubits 1 and 2 are the system pair and qubit 3 is
the repeatedly measured ancilla.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import SiteOutOfRangeError, ValidationError

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_EYE2 = np.eye(2, dtype=complex)


def pauli(axis: str, site: int, n_qubits: int) -> np.ndarray:
    """Single-site Pauli operator embedded in an n-qubit register.

    site is 1-based; site 1 is the most significant tensor factor.
    """
    if axis not in SIGMA:
        raise ValidationError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if n_qubits < 1:
        raise ValidationError(f"n_qubits must be positive, got {n_qubits}")
    if not 1 <= site <= n_qubits:
        raise SiteOutOfRangeError(f"site {site} outside 1..{n_qubits}")
    out = np.array([[1.0 + 0j]])
    for k in range(1, n_qubits + 1):
        out = np.kron(out, SIGMA[axis] if k == site else _EYE2)
    return out


def _check_finite(obj) -> None:
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise ValidationError(f"coupling {f.name} must be a finite real, got {v!r}")


@dataclass(frozen=True)
class SymmetricParams:
    """Couplings of the exchange model with identical system-ancilla terms."""

    gamma_xy: float
    gamma_z: float
    g_xy: float
    g_z: float

    def __post_init__(self):
        _check_finite(self)

    def as_anisotropic(self) -> "AnisotropicParams":
        return AnisotropicParams(
            gamma_x=self.gamma_xy,
            gamma_y=self.gamma_xy,
            gamma_z=self.gamma_z,
            alpha_x=self.g_xy,
            alpha_y=self.g_xy,
            alpha_z=self.g_z,
            beta_x=self.g_xy,
            beta_y=self.g_xy,
            beta_z=self.g_z,
        )


@dataclass(frozen=True)
class AnisotropicParams:
    """Nine independent couplings: gamma_* within the pair, alpha_* qubit 1
    to ancilla, beta_* qubit 2 to ancilla."""

    gamma_x: float
    gamma_y: float
    gamma_z: float
    alpha_x: float
    alpha_y: float
    alpha_z: float
    beta_x: float
    beta_y: float
    beta_z: float

    def __post_init__(self):
        _check_finite(self)


def _two_body(axis: str, i: int, j: int) -> np.ndarray:
    return pauli(axis, i, 3) @ pauli(axis, j, 3)


def build_symmetric(p: SymmetricParams) -> np.ndarray:
    """8x8 three-spin Hamiltonian with equal couplings of both system qubits
    to the ancilla."""
    h = p.gamma_xy * (_two_body("x", 1, 2) + _two_body("y", 1, 2))
    h = h + p.gamma_z * _two_body("z", 1, 2)
    h = h + p.g_xy * (_two_body("x", 1, 3) + _two_body("y", 1, 3))
    h = h + p.g_xy * (_two_body("x", 2, 3) + _two_body("y", 2, 3))
    h = h + p.g_z * (_two_body("z", 1, 3) + _two_body("z", 2, 3))
    return h


def build_anisotropic(p: AnisotropicParams) -> np.ndarray:
    """8x8 three-spin Hamiltonian with one coupling per axis per bond."""
    h = p.gamma_x * _two_body("x", 1, 2)
    h = h + p.gamma_y * _two_body("y", 1, 2)
    h = h + p.gamma_z * _two_body("z", 1, 2)
    h = h + p.alpha_x * _two_body("x", 1, 3)
    h = h + p.alpha_y * _two_body("y", 1, 3)
    h = h + p.alpha_z * _two_body("z", 1, 3)
    h = h + p.beta_x * _two_body("x", 2, 3)
    h = h + p.beta_y * _two_body("y", 2, 3)
    h = h + p.beta_z * _two_body("z", 2, 3)
    return h
