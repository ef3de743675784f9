"""Pauli operators, the n-qubit XYZ bond builder, and the three-spin models.

Conventions used everywhere: basis states are labelled |q1 q2 ... qn> with
qubit 1 as the most significant bit of the basis index, and sigma_z|0> = +|0>.
In the three-spin models qubits 1 and 2 are the system pair and qubit 3 is
the repeatedly measured ancilla.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .errors import SiteOutOfRangeError, ValidationError
from .linalg import finite_reals

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_EYE2 = np.eye(2, dtype=complex)


def _chain(axis: str, sites: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """sigma_axis at each of the 1-based sites and the identity elsewhere, as
    one Kronecker chain with site 1 the most significant factor."""
    if axis not in SIGMA:
        raise ValidationError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    for site in sites:
        if not 1 <= site <= n_qubits:
            raise SiteOutOfRangeError(f"site {site} outside 1..{n_qubits}")
    factors = [SIGMA[axis] if k in sites else _EYE2 for k in range(1, n_qubits + 1)]
    return reduce(np.kron, factors[1:], factors[0].copy())  # never the shared SIGMA array


def pauli(axis: str, site: int, n_qubits: int) -> np.ndarray:
    """Single-site Pauli operator at the 1-based site of an n-qubit register."""
    return _chain(axis, (site,), n_qubits)


def xyz_hamiltonian(n_qubits: int, bonds) -> np.ndarray:
    """Sum of J sigma_a^i sigma_a^j over bonds ((i, j), a, J), added to zeros in
    the order given; a site outside 1..n_qubits, or i == j, raises SiteOutOfRangeError."""
    if n_qubits < 1:
        raise ValidationError(f"n_qubits must be positive, got {n_qubits}")
    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for (i, j), axis, coupling in bonds:
        if i == j:
            raise SiteOutOfRangeError(f"bond ({i}, {j}) joins site {i} to itself")
        h = h + coupling * _chain(axis, (i, j), n_qubits)
    return h


def _check_finite(obj) -> None:
    for f in fields(obj):
        v = getattr(obj, f.name)
        if finite_reals([v]) is None:
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
        xy, z = self.g_xy, self.g_z  # both system qubits couple alike to the ancilla
        return AnisotropicParams(self.gamma_xy, self.gamma_xy, self.gamma_z, xy, xy, z, xy, xy, z)


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

    def bonds(self) -> list:
        """The nine bonds ((i, j), axis, J) in build order: pairs 1-2, 1-3, 2-3."""
        pairs = (((1, 2), "gamma"), ((1, 3), "alpha"), ((2, 3), "beta"))
        return [(ij, a, getattr(self, f"{name}_{a}")) for ij, name in pairs for a in "xyz"]


def build_symmetric(p: SymmetricParams) -> np.ndarray:
    """8x8 three-spin Hamiltonian with equal couplings of both system qubits
    to the ancilla."""
    return build_anisotropic(p.as_anisotropic())


def build_anisotropic(p: AnisotropicParams) -> np.ndarray:
    """8x8 three-spin Hamiltonian with one coupling per axis per bond."""
    return xyz_hamiltonian(3, p.bonds())
