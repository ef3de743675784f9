"""The Pauli matrices, the n-qubit XYZ bond builder, and the three-spin models.

Conventions used everywhere: basis states are labelled |q1 q2 ... qn> with
qubit 1 as the most significant bit of the basis index, and sigma_z|0> = +|0>.
In the three-spin models qubits 1 and 2 are the system pair and qubit 3 is
the repeatedly measured ancilla.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalError, SiteOutOfRangeError, ValidationError
from .linalg import finite_reals

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_sites(axis: str, sites: tuple[int, ...], n_qubits: int) -> None:
    if axis not in SIGMA:
        raise ValidationError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    for site in sites:
        if not 1 <= site <= n_qubits:
            raise SiteOutOfRangeError(f"site {site} outside 1..{n_qubits}")


def xyz_hamiltonian(n_qubits: int, bonds) -> np.ndarray:
    """Sum of J sigma_a^i sigma_a^j over bonds ((i, j), a, J), added to zeros in
    the order given; a site outside 1..n_qubits, or i == j, raises SiteOutOfRangeError.

    A bond is a signed permutation of the basis: at column k, with b_i and b_j
    the bits of sites i and j, it has its one entry in row k ^ mask (x, y: the
    two bits flipped) or k (z), of sign +1 (x), -(-1)^(b_i + b_j) (y) or
    (-1)^(b_i + b_j) (z).  One fancy-index += per bond adds J times those
    signs, exactly the nonzero terms of the Kronecker sum, so H equals that sum
    bit for bit at O(2^n) work per bond, not O(4^n).  The index arithmetic
    runs on Python ints: numpy's integer bit operations would map new code.
    """
    if n_qubits < 1:
        raise ValidationError(f"n_qubits must be positive, got {n_qubits}")
    dim = 2**n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    flat = h.reshape(-1)  # a view: entry (k ^ mask, k) is flat[(k ^ mask) * dim + k]
    cols = range(dim)
    for (i, j), axis, coupling in bonds:
        if i == j:
            raise SiteOutOfRangeError(f"bond ({i}, {j}) joins site {i} to itself")
        _check_sites(axis, (i, j), n_qubits)
        si, sj = n_qubits - i, n_qubits - j  # site 1 is the most significant bit
        even, odd = float(coupling), -float(coupling)  # J times the sign at even, odd b_i + b_j
        if axis == "x":
            signed = [even] * dim
        else:
            if axis == "y":
                even, odd = odd, even
            signed = [odd if ((k >> si) ^ (k >> sj)) & 1 else even for k in cols]
        mask = 0 if axis == "z" else 1 << si | 1 << sj
        try:
            with np.errstate(over="raise"):
                flat[[(k ^ mask) * dim + k for k in cols]] += np.array(signed)
        except FloatingPointError:
            raise NumericalError(f"the XYZ sum overflows the double range at bond ({i}, {j}) {axis}") from None
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
