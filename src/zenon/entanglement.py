"""Two-qubit block dynamics and entanglement measures.

Any 4x4 effective generator that commutes with sigma1z sigma2z splits into
two fictitious two-level problems: the even-parity block on {|00>, |11>} and
the odd-parity block on {|01>, |10>}.  Each block is Omega sz + omega sx up
to a block identity, with Omega and omega complex; the identity part only
rescales the survival probability and drops out of every normalized
quantity, so it is ignored here.  Both figures are one such block started
in its first basis state: Fig. 4 the odd block of the symmetric model,
Fig. 5 the even block of the anisotropic one."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix, as_density_matrix, state_factor
from .errors import (
    BadDimensionError,
    NotBlockDiagonalError,
    NumericalError,
    ValidationError,
)
from .linalg import as_cmatrix, frobenius_norm, hermitian_eig
from .spin_models import SIGMA

SECTOR_INDICES = {"plus": (0, 3), "minus": (1, 2)}  # block basis in the |00>..|11> basis
BLOCK_TOL = 1e-10
_SMALL_PHASE = 1e-8


def _check_sector(sector) -> None:
    if sector not in SECTOR_INDICES:
        raise ValidationError(f"sector must be 'plus' or 'minus', got {sector!r}")


@dataclass(frozen=True)
class TwoLevelBlockParams:
    """One parity block written as Omega sz + omega sx with
    Omega = mu_z + i nu_z and omega = mu_x + i nu_x."""

    mu_z: float
    nu_z: float
    mu_x: float
    nu_x: float
    sector: str

    def __post_init__(self):
        _check_sector(self.sector)

    @property
    def omega_z(self) -> complex:
        return complex(self.mu_z, self.nu_z)

    @property
    def omega_x(self) -> complex:
        return complex(self.mu_x, self.nu_x)

    @property
    def nu(self) -> complex:
        """The block's frequency sqrt(Omega^2 + omega^2), principal branch."""
        omega_z, omega_x = self.omega_z, self.omega_x
        return cmath.sqrt(omega_z * omega_z + omega_x * omega_x)


def block_decompose(h_eff) -> tuple[TwoLevelBlockParams, TwoLevelBlockParams]:
    """Split a parity-conserving 4x4 generator into its two blocks.

    Raises NotBlockDiagonalError if any entry couples the parity sectors
    beyond BLOCK_TOL (relative), or if a block has an antisymmetric (sy)
    component, which the Omega/omega parameterization cannot carry.
    """
    m = as_cmatrix(h_eff)
    if m.shape[0] != 4:
        raise BadDimensionError(f"expected a 4x4 generator, got {m.shape}")
    tol = BLOCK_TOL * max(1.0, frobenius_norm(m))
    parity = [0, 1, 1, 0]
    for i in range(4):
        for j in range(4):
            if parity[i] != parity[j] and abs(m[i, j]) > tol:
                raise NotBlockDiagonalError(
                    f"entry ({i},{j}) = {m[i, j]:.3e} couples the parity sectors"
                )
    out = []
    for sector, (i, j) in SECTOR_INDICES.items():
        if abs(m[i, j] - m[j, i]) / 2 > tol:
            raise NotBlockDiagonalError(
                f"{sector} block has an antisymmetric coupling component"
            )
        omega_big = (m[i, i] - m[j, j]) / 2.0
        omega_small = (m[i, j] + m[j, i]) / 2.0
        out.append(
            TwoLevelBlockParams(
                mu_z=float(omega_big.real),
                nu_z=float(omega_big.imag),
                mu_x=float(omega_small.real),
                nu_x=float(omega_small.imag),
                sector=sector,
            )
        )
    return out[0], out[1]


def _cos_sinc(nu: complex, t: float, damped: bool) -> tuple[complex, complex]:
    """cos(nu t) and sin(nu t) / nu of a block of frequency nu (its nu
    property, which the caller reads once); damped, both times
    e^{-|Im nu t|}, so neither overflows.

    Both terms are even in nu, so its branch does not matter, and the
    nu -> 0 limit is taken by series when |nu t| is small.
    """
    z = nu * t
    if abs(z) < _SMALL_PHASE:
        return 1.0 - z * z / 2.0, t * (1.0 - z * z / 6.0)
    if not damped:
        return cmath.cos(z), cmath.sin(z) / nu
    plus = cmath.exp(1j * z - abs(z.imag))
    minus = cmath.exp(-1j * z - abs(z.imag))
    return (plus + minus) / 2.0, (plus - minus) / (2j * nu)


def _block_matrix(block: TwoLevelBlockParams, t: float, damped: bool) -> np.ndarray:
    """cos I - i sinc (Omega sz + omega sx), with (cos, sinc) = _cos_sinc(block.nu, t, damped)."""
    cos_term, sinc_term = _cos_sinc(block.nu, t, damped)
    omega_z, omega_x = block.omega_z, block.omega_x
    return np.array(
        [
            [cos_term - 1j * sinc_term * omega_z, -1j * sinc_term * omega_x],
            [-1j * sinc_term * omega_x, cos_term + 1j * sinc_term * omega_z],
        ]
    )


def block_propagator(block: TwoLevelBlockParams, t: float) -> np.ndarray:
    """exp(-i (Omega sz + omega sx) t) in closed form."""
    return _block_matrix(block, t, damped=False)


def evolve_block_state(block: TwoLevelBlockParams, psi0, t: float) -> np.ndarray:
    """Normalized block state at time t, safe against exp overflow.

    cos(nu t) and sin(nu t) grow like e^{|Im nu| t}; both are rescaled by
    e^{-|Im nu t|} before applying the propagator, which changes nothing
    after normalization.
    """
    psi = np.asarray(psi0, dtype=complex).ravel()
    if psi.size != 2:
        raise BadDimensionError(f"block state must have 2 components, got {psi.size}")
    if np.linalg.norm(psi) == 0:
        raise ValidationError("block state must be nonzero")
    out = _block_matrix(block, t, damped=True) @ psi
    nrm = np.linalg.norm(out)
    if not nrm > 0 or not math.isfinite(nrm):
        raise NumericalError(f"block state norm collapsed to {nrm}")
    return out / nrm


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

BELL_STATES = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) * _INV_SQRT2,
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) * _INV_SQRT2,
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) * _INV_SQRT2,
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) * _INV_SQRT2,
}


def _as_state(state) -> DensityMatrix:
    """A two-qubit state as dynamics.as_density_matrix reads it."""
    state = as_density_matrix(state)
    if state.dim != 4:
        raise BadDimensionError(f"two-qubit state must be 4x4, got {state.rho.shape}")
    return state


def bell_fidelity(state, which: str) -> float:
    """<bell| rho |bell> for one of the four named Bell states."""
    if which not in BELL_STATES:
        raise ValidationError(
            f"unknown Bell state {which!r}; choose from {sorted(BELL_STATES)}"
        )
    rho = _as_state(state).rho
    vec = BELL_STATES[which]
    val = vec.conj() @ rho @ vec
    if abs(val.imag) > 1e-10:
        raise NumericalError(f"fidelity has imaginary part {val.imag:.3e}")
    return float(val.real)


def concurrence(state) -> float:
    """Two-qubit concurrence C = max(0, l1 - l2 - l3 - l4) of a state (a raw
    matrix must pass DensityMatrix, whose gate is the only PSD check).

    Wootters' l_k are the singular values of M = F^T (sy x sy) F with
    F = state_factor(state) (Uhlmann, PRA 62, 032307 (2000)), read as the
    nonnegative eigenvalues of the Hermitian [[0, M], [M^dag, 0]]."""
    f = state_factor(_as_state(state))
    m = f.T @ np.kron(SIGMA["y"], SIGMA["y"]) @ f
    zero = np.zeros_like(m)
    lam = hermitian_eig(np.block([[zero, m], [m.conj().T, zero]])).eigenvalues[m.shape[0]:]
    return float(max(0.0, lam[-1] - lam[:-1].sum()))


def embed_block_state(psi, sector: str) -> np.ndarray:
    """Lift a 2-component block state to the full two-qubit basis."""
    v = np.asarray(psi, dtype=complex).ravel()
    if v.size != 2:
        raise BadDimensionError(f"block state must have 2 components, got {v.size}")
    _check_sector(sector)
    out = np.zeros(4, dtype=complex)
    out[list(SECTOR_INDICES[sector])] = v
    return out


def block_rows(block: TwoLevelBlockParams, x_max: float, n_samples: int = 400):
    """Rows (x, pop_first, pop_second, re_coh, im_coh) of the block started in
    its first basis state (|00> or |01>), on n_samples uniform points
    x = x_max k / (n_samples - 1) of the dimensionless time mu_x * t.

    The state (cos - i sinc Omega, -i sinc omega) is the propagator's first
    column with cos and sinc scaled by e^{-|Im nu t|}, normalized; coh is
    psi_first psi_second^*.  nu, Omega, omega and mu_x are read once per call.
    """
    if block.mu_x == 0 or x_max / block.mu_x < 0:
        raise ValidationError(f"the time axis x = mu_x t needs mu_x != 0 and t >= 0, got mu_x {block.mu_x}")
    if n_samples < 2:
        raise ValidationError(f"n_samples must be at least 2, got {n_samples}")
    nu, omega_z, omega_x, mu_x = block.nu, block.omega_z, block.omega_x, block.mu_x
    rows = []
    for k in range(n_samples):
        x = x_max * k / (n_samples - 1)
        cos_term, sinc_term = _cos_sinc(nu, x / mu_x, damped=True)
        first = cos_term - 1j * sinc_term * omega_z
        second = -1j * sinc_term * omega_x
        w_first = first.real * first.real + first.imag * first.imag
        w_second = second.real * second.real + second.imag * second.imag
        weight = w_first + w_second
        if not 0 < weight < math.inf:
            raise NumericalError(f"block state weight |psi|^2 = {weight} is not positive and finite")
        coh = first * second.conjugate() / weight
        rows.append((x, w_first / weight, w_second / weight, coh.real, coh.imag))
    return rows


def fig5_rows(block: TwoLevelBlockParams, mxt_max: float = 40.0, n_samples: int = 400):
    """Rows (mxt_axis, pop11, re_coh, im_coh) for the even-parity block
    started in |00>, on a uniform grid of mu_x * t."""
    if block.sector != "plus":
        raise ValidationError("fig5 curves live in the even-parity sector")
    rows = block_rows(block, mxt_max, n_samples)
    return [(mxt, pop11, re_coh, im_coh) for mxt, _, pop11, re_coh, im_coh in rows]
