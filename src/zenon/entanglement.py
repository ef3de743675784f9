"""Two-qubit block dynamics, closed forms, and entanglement measures.

Any 4x4 effective generator that commutes with sigma1z sigma2z splits into
two fictitious two-level problems: the even-parity block on {|00>, |11>} and
the odd-parity block on {|01>, |10>}.  Each block is Omega sz + omega sx up
to a block identity, with Omega and omega complex; the identity part only
rescales the survival probability and drops out of every normalized
quantity, so it is ignored here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix, state_factor
from .errors import (
    BadDimensionError,
    NotBlockDiagonalError,
    NumericalError,
    ValidationError,
)
from .linalg import as_cmatrix, frobenius_norm, hermitian_eig
from .spin_models import SIGMA

PLUS_INDICES = (0, 3)
MINUS_INDICES = (1, 2)
BLOCK_TOL = 1e-10
_SMALL_PHASE = 1e-8


@dataclass(frozen=True)
class EffectiveBlockParams:
    """Odd-parity block with Omega = 0, the closed forms' input: coherent rate
    gamma and measurement-induced damping rate g (both per unit time)."""

    gamma: float
    g: float

    def __post_init__(self):
        if self.g < 0:
            raise ValidationError(f"damping rate g must be nonnegative, got {self.g}")

    @classmethod
    def from_block(cls, block: "TwoLevelBlockParams", scale: float = 1.0) -> "EffectiveBlockParams":
        """omega = gamma - i g of the odd-parity block that block_decompose read off a generator of
        Frobenius norm `scale`; an Omega within BLOCK_TOL max(1, |omega|, scale) is its rounding."""
        if block.sector != "minus":
            raise ValidationError(f"closed forms need the odd-parity block, got {block}")
        if abs(block.omega_z) > BLOCK_TOL * max(1.0, abs(block.omega_x), scale):
            raise NumericalError(f"odd-parity block has Omega = {block.omega_z:.3e}, not 0 to rounding")
        return cls(gamma=block.mu_x, g=-block.nu_x)


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
        if self.sector not in ("plus", "minus"):
            raise ValidationError(f"sector must be 'plus' or 'minus', got {self.sector!r}")

    @property
    def omega_z(self) -> complex:
        return complex(self.mu_z, self.nu_z)

    @property
    def omega_x(self) -> complex:
        return complex(self.mu_x, self.nu_x)

    def matrix(self) -> np.ndarray:
        return self.omega_z * SIGMA["z"] + self.omega_x * SIGMA["x"]


def _sech(x: float) -> float:
    """2 e^{-|x|} / (1 + e^{-2|x|}); exact and overflow-free for any x."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def transition_probability(block: EffectiveBlockParams, t: float) -> float:
    """Normalized population transferred across the odd-parity block,
    1/2 - cos(2 gamma t) sech(2 g t) / 2."""
    if t < 0:
        raise ValidationError(f"t must be nonnegative, got {t}")
    val = 0.5 - 0.5 * math.cos(2.0 * block.gamma * t) * _sech(2.0 * block.g * t)
    return min(max(val, 0.0), 1.0)


def survival_probability(block: EffectiveBlockParams, t: float) -> float:
    """Complement of transition_probability, written in its own stable form."""
    if t < 0:
        raise ValidationError(f"t must be nonnegative, got {t}")
    val = 0.5 + 0.5 * math.cos(2.0 * block.gamma * t) * _sech(2.0 * block.g * t)
    return min(max(val, 0.0), 1.0)


def coherence(block: EffectiveBlockParams, t: float) -> complex:
    """Normalized off-diagonal element between the two block states,
    -(tanh(2 g t) - i sin(2 gamma t) sech(2 g t)) / 2; tends to -1/2."""
    if t < 0:
        raise ValidationError(f"t must be nonnegative, got {t}")
    return complex(
        -0.5 * math.tanh(2.0 * block.g * t),
        0.5 * math.sin(2.0 * block.gamma * t) * _sech(2.0 * block.g * t),
    )


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
    for sector, (i, j) in (("plus", PLUS_INDICES), ("minus", MINUS_INDICES)):
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


def _damped_cos_sinc(z: complex, nu: complex) -> tuple[complex, complex]:
    """cos(z) and sin(z) / nu, both times e^{-|Im z|} so neither overflows."""
    damp = abs(z.imag)
    plus = cmath.exp(1j * z - damp)
    minus = cmath.exp(-1j * z - damp)
    return (plus + minus) / 2.0, (plus - minus) / (2j * nu)


def _block_matrix(block: TwoLevelBlockParams, t: float, cos_sinc) -> np.ndarray:
    """cos I - i sinc (Omega sz + omega sx), with (cos, sinc) = cos_sinc(nu t, nu).

    nu = sqrt(Omega^2 + omega^2) on the principal branch; the result is even
    in nu, so the branch does not matter, and the nu -> 0 limit is taken by
    series when |nu t| is small.
    """
    omega_z, omega_x = block.omega_z, block.omega_x
    nu = cmath.sqrt(omega_z * omega_z + omega_x * omega_x)
    z = nu * t
    if abs(z) < _SMALL_PHASE:
        cos_term, sinc_term = 1.0 - z * z / 2.0, t * (1.0 - z * z / 6.0)
    else:
        cos_term, sinc_term = cos_sinc(z, nu)
    return np.array(
        [
            [cos_term - 1j * sinc_term * omega_z, -1j * sinc_term * omega_x],
            [-1j * sinc_term * omega_x, cos_term + 1j * sinc_term * omega_z],
        ]
    )


def block_propagator(block: TwoLevelBlockParams, t: float) -> np.ndarray:
    """exp(-i (Omega sz + omega sx) t) in closed form."""
    return _block_matrix(block, t, lambda z, nu: (cmath.cos(z), cmath.sin(z) / nu))


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
    out = _block_matrix(block, t, _damped_cos_sinc) @ psi
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


def _as_rho(state) -> np.ndarray:
    rho = state.rho if isinstance(state, DensityMatrix) else as_cmatrix(state)
    if rho.shape[0] != 4:
        raise BadDimensionError(f"two-qubit state must be 4x4, got {rho.shape}")
    return rho


def bell_fidelity(state, which: str) -> float:
    """<bell| rho |bell> for one of the four named Bell states."""
    if which not in BELL_STATES:
        raise ValidationError(
            f"unknown Bell state {which!r}; choose from {sorted(BELL_STATES)}"
        )
    rho = _as_rho(state)
    vec = BELL_STATES[which]
    val = vec.conj() @ rho @ vec
    if abs(val.imag) > 1e-10:
        raise NumericalError(f"fidelity has imaginary part {val.imag:.3e}")
    return float(val.real)


def concurrence(state) -> float:
    """Two-qubit concurrence C = max(0, l1 - l2 - l3 - l4) of rho / tr rho.

    Wootters' l_k are the singular values of M = F^T (sy x sy) F with
    F = state_factor(rho) (Uhlmann, PRA 62, 032307 (2000)), read as the
    nonnegative eigenvalues of the Hermitian [[0, M], [M^dag, 0]]."""
    f = state_factor(_as_rho(state))
    m = f.T @ np.kron(SIGMA["y"], SIGMA["y"]) @ f
    zero = np.zeros_like(m)
    lam = hermitian_eig(np.block([[zero, m], [m.conj().T, zero]])).eigenvalues[m.shape[0]:]
    return float(max(0.0, lam[-1] - lam[:-1].sum()))


def embed_block_state(psi, sector: str) -> np.ndarray:
    """Lift a 2-component block state to the full two-qubit basis."""
    v = np.asarray(psi, dtype=complex).ravel()
    if v.size != 2:
        raise BadDimensionError(f"block state must have 2 components, got {v.size}")
    idx = PLUS_INDICES if sector == "plus" else MINUS_INDICES
    out = np.zeros(4, dtype=complex)
    out[list(idx)] = v
    return out


def _time_axis(rate: float, x_max: float, n_samples: int, name: str) -> list[tuple[float, float]]:
    """(x, t) on n_samples uniform points x = x_max k / (n_samples - 1) of the
    dimensionless time x = rate * t; a zero rate (called name) sets no axis."""
    if rate == 0:
        raise ValidationError(f"curves need {name} != 0 to set the time axis")
    xs = [x_max * k / (n_samples - 1) for k in range(n_samples)]
    return [(x, x / rate) for x in xs]


def fig4_population_rows(block: EffectiveBlockParams, gt_max: float = 15.0, n_samples: int = 400):
    """Rows (gt_axis, pop10, pop01) on a uniform grid of the dimensionless
    time gamma * t."""
    return [
        (gt, transition_probability(block, t), survival_probability(block, t))
        for gt, t in _time_axis(block.gamma, gt_max, n_samples, "gamma")
    ]


def fig4_coherence_rows(block: EffectiveBlockParams, gt_max: float = 15.0, n_samples: int = 400):
    """Rows (gt_axis, re_coh, im_coh) on the same grid as the populations."""
    rows = []
    for gt, t in _time_axis(block.gamma, gt_max, n_samples, "gamma"):
        c = coherence(block, t)
        rows.append((gt, c.real, c.imag))
    return rows


def fig5_rows(block: TwoLevelBlockParams, mxt_max: float = 40.0, n_samples: int = 400):
    """Rows (mxt_axis, pop11, re_coh, im_coh) for the even-parity block
    started in |00>, on a uniform grid of mu_x * t."""
    axis = _time_axis(block.mu_x, mxt_max, n_samples, "mu_x")
    if block.sector != "plus":
        raise ValidationError("fig5 curves live in the even-parity sector")
    psi0 = np.array([1.0, 0.0], dtype=complex)
    rows = []
    for mxt, t in axis:
        psi = evolve_block_state(block, psi0, t)
        coh = psi[0] * np.conj(psi[1])
        rows.append((mxt, float(abs(psi[1]) ** 2), coh.real, coh.imag))
    return rows


FIG5_REGIMES = {
    "a": TwoLevelBlockParams(mu_z=0.1, nu_z=0.1, mu_x=1.0, nu_x=1.0, sector="plus"),
    "b": TwoLevelBlockParams(mu_z=0.01, nu_z=0.01, mu_x=1.0, nu_x=0.1, sector="plus"),
    "c": TwoLevelBlockParams(mu_z=0.1, nu_z=0.1, mu_x=1.0, nu_x=10.0, sector="plus"),
}
