"""Conditional (measurement-filtered) evolution generated by an effective
non-Hermitian Hamiltonian, plus the trace-preserving nonlinear form.

Two faces of the same dynamics: propagating with exp(-i H_eff t) gives the
unnormalized conditional state whose trace is the survival probability, and
dividing that trace out is equivalent to integrating the nonlinear equation,
on a factor F of rho = F F^dag (see state_factor) and with A = -i H_eff,

    dF/dt = A F - Re<F, A F> F,

whose last term feeds the lost norm back in.  Both routes are implemented
independently so they can be checked against each other: repeated
conditional steps (exp(-i H_eff dt) here or the protocol's Kraus step) run
through chain.renormalized_blocks, F <- A F advanced up to 64 steps per
stacked product of precomputed powers of A (the sweep's final state and
the protocol's filtered state read only the chain's end,
chain.renormalized_end), and one RK4 integrates
the equation for a density matrix and, with F a single column, for a pure
state, each step taken in the Krylov basis A^j F, j = 0..4, with real
coefficients (_integrate_factor).  The time series keeps the chain's
factors, not its states (TrajectoryStates forms F F^dag on reading): rank /
dim of the dense stack.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chain import renormalized_blocks, renormalized_end
from .effective import EffectiveHamiltonian
from .errors import (
    BadDimensionError,
    NotPSDError,
    NumericalError,
    ProbabilityUnderflowError,
    StepTooLargeError,
    ValidationError,
)
from .linalg import (
    as_cmatrix,
    as_hermitian,
    as_psd,
    dagger,
    expm,
    frobenius_norm,
    trace,
    write_csv,
)

P_MIN = 1e-12
STEP_NORM_LIMIT = 0.1
MAX_RK4_STEPS = 10**6
"""Largest RK4 step count t / dt, checked before the first step, as
protocol.MAX_PROTOCOL_STEPS caps the chain.  At the cap a 4-dimensional mixed
start takes about 11-16 s (2-core Xeon, numpy 2.4), against 26-45 s for the
stage-by-stage step timed beside it; the cases of acceptance criterion 7 plan at
most about 400 steps."""


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite state, stored as linalg.as_psd returns
    it: the one PSD gate every state passes, so state_factor reads rho as it is."""

    rho: np.ndarray

    def __post_init__(self):
        try:
            m = as_psd(self.rho)
        except NotPSDError as exc:
            raise ValidationError(f"density matrix is not PSD: {exc}") from exc
        if abs(trace(m) - 1.0) > 1e-10:
            raise ValidationError(f"density matrix trace {trace(m):.12f} != 1")
        object.__setattr__(self, "rho", m)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def from_pure(cls, psi) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex).ravel()
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(v)
        if not 0 < nrm < math.inf:  # zero, not finite, or under- or overflowed: rescale first
            parts = v.view(float).tolist()  # re, im of each amplitude
            if not all(map(math.isfinite, parts)):
                raise ValidationError("ket has non-finite amplitudes")
            big = max(map(math.hypot, parts[::2], parts[1::2]), default=0.0)  # the largest |amplitude|
            if big == 0:
                raise ValidationError("cannot normalize the zero vector")
            # divided as reals: a complex quotient multiplies by 1 / big, inf for a
            # subnormal big; a modulus past the double range takes the largest part
            v = (v.view(float) / (big if big < math.inf else max(map(abs, parts)))).view(complex)
            nrm = np.linalg.norm(v)
        v = v / nrm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityMatrix":
        if not 0 <= index < dim:
            raise ValidationError(f"basis index {index} outside 0..{dim - 1}")
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls.from_pure(v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def purity(self) -> float:
        return float(trace(self.rho @ self.rho).real)


@dataclass(frozen=True)
class ConditionalState:
    """Unnormalized post-selected state: trace(rho_c) is the survival
    probability p of the filter."""

    rho_c: np.ndarray
    p: float

    def __post_init__(self):
        m = as_hermitian(self.rho_c)
        if abs(self.p - trace(m).real) > 1e-10:
            raise ValidationError(
                f"p {self.p:.12e} does not match trace {trace(m).real:.12e}"
            )
        if not -1e-12 <= self.p <= 1.0 + 1e-9:
            raise ValidationError(f"survival probability {self.p} outside [0, 1]")
        object.__setattr__(self, "rho_c", m)


def evolve_conditional(eff: EffectiveHamiltonian, rho0: DensityMatrix, t: float) -> ConditionalState:
    """Propagate rho0 with exp(-i H_eff t) without normalizing."""
    if not 0 <= t < math.inf:  # a NaN fails
        raise ValidationError(f"t must be nonnegative and finite, got {t}")
    if rho0.dim != eff.dim:
        raise BadDimensionError(f"state dim {rho0.dim} != generator dim {eff.dim}")
    u = expm(-1j * t * eff.matrix())
    rc = u @ rho0.rho @ dagger(u)
    return ConditionalState(rho_c=rc, p=trace(rc).real)


def normalize(cs: ConditionalState) -> DensityMatrix:
    """Divide out the survival probability; fails below P_MIN."""
    if cs.p <= P_MIN:
        raise ProbabilityUnderflowError(
            f"survival probability {cs.p:.3e} at or below floor {P_MIN:g}"
        )
    return DensityMatrix(cs.rho_c / trace(cs.rho_c).real)


def default_time_step(eff: EffectiveHamiltonian) -> float:
    """5e-3 over the larger of ||h0||_F and tau ||gamma||_F."""
    scale = max(frobenius_norm(eff.h0), eff.tau * frobenius_norm(eff.gamma))
    return 5e-3 / scale if scale > 0 else 5e-3


def _integrate_factor(eff: EffectiveHamiltonian, f: np.ndarray, t: float, dt: float | None) -> np.ndarray:
    """Classical RK4 for dF/dt = A F - Re<F, A F> F, A = -i H_eff, from a
    unit-norm F over [0, t], with a shorter last step for the remainder;
    more than MAX_RK4_STEPS planned steps raise StepTooLargeError before
    the first.

    Each step is taken in the Krylov basis b_j = A^j F, j = 0..4, with real
    coefficients: the feedback term is a real scalar times the stage input,
    so a stage input of degree m in A has a slope of degree m + 1, and the
    four stages and the new F are real polynomials in dt and the stages'
    mu = Re<F_i, A F_i>.  One stacked product of the powers A..A^4 (4 d^2
    entries, formed once per call) with F fills the basis, one 5x5 Gram
    R_jk = Re<b_j, b_k> (the Frobenius inner product) gives every mu as a
    quadratic form, rhs maps a stage's coefficients to its slope's in Python
    floats, and the new F is one product of its coefficients with the basis.

    The right-hand side is orthogonal to F, so ||F||_F stays 1 up to the
    truncation error; F is divided by its norm, sqrt(e^T R e) for the new
    coefficients e, after each step, and a drift of the norm from 1 above
    1e-12 in one step raises NumericalError.
    """
    if dt is None:
        dt = min(default_time_step(eff), t)
    if not dt > 0:
        raise StepTooLargeError(f"dt must be positive, got {dt}")
    if dt > t:
        raise StepTooLargeError(f"dt {dt:g} exceeds the integration time {t:g}")
    a = -1j * eff.matrix()
    if dt * frobenius_norm(a) > STEP_NORM_LIMIT:
        raise StepTooLargeError(f"dt * ||H_eff|| = {dt * frobenius_norm(a):.3e} > {STEP_NORM_LIMIT}")
    if not t / dt <= MAX_RK4_STEPS:  # t / dt inf or NaN too
        raise StepTooLargeError(f"t / dt = {t / dt:.3g} RK4 steps planned, more than {MAX_RK4_STEPS}")

    powers = np.empty((4,) + a.shape, dtype=complex)  # A, A^2, A^3, A^4
    powers[0] = a
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], a, out=powers[2])
    np.matmul(powers[1], powers[1], out=powers[3])
    stacked = powers.reshape(-1, a.shape[1])
    basis = np.empty((5,) + f.shape, dtype=complex)
    basis[0] = f  # F is stepped in place as b_0
    f, higher = basis[0], basis[1:].reshape((-1,) + f.shape[1:])
    rows = basis.reshape(5, -1)
    rows_t = rows.T
    weights = np.empty(5, dtype=complex)

    def rhs(c0, c1, c2, c3):
        # F_i = sum c_j b_j of degree <= 3: A F_i - mu F_i, mu = sum c_j c_k R[j][k + 1]
        mu = (
            c0 * (c0 * r01 + c1 * r02 + c2 * r03 + c3 * r04)
            + c1 * (c0 * r11 + c1 * r12 + c2 * r13 + c3 * r14)
            + c2 * (c0 * r12 + c1 * r22 + c2 * r23 + c3 * r24)
            + c3 * (c0 * r13 + c1 * r23 + c2 * r33 + c3 * r34)
        )
        return -mu * c0, c0 - mu * c1, c1 - mu * c2, c2 - mu * c3, c3

    n_full = int(math.floor(t / dt + 1e-12))
    remainder = t - n_full * dt
    tail = [remainder] if remainder > 1e-15 * t else []
    for h in itertools.chain(itertools.repeat(dt, n_full), tail):
        np.dot(stacked, f, out=higher)
        (
            (r00, r01, r02, r03, r04),
            (_, r11, r12, r13, r14),
            (_, _, r22, r23, r24),
            (_, _, _, r33, r34),
            (*_, r44),
        ) = np.dot(rows.conj(), rows_t).real.tolist()  # complex: a real product would load a BLAS kernel
        half = 0.5 * h
        k10, k11, k12, k13, _ = rhs(1.0, 0.0, 0.0, 0.0)
        k20, k21, k22, k23, _ = rhs(1.0 + half * k10, half * k11, half * k12, half * k13)
        k30, k31, k32, k33, _ = rhs(1.0 + half * k20, half * k21, half * k22, half * k23)
        k40, k41, k42, k43, k44 = rhs(1.0 + h * k30, h * k31, h * k32, h * k33)
        sixth = h / 6.0
        e0 = 1.0 + sixth * (k10 + 2.0 * (k20 + k30) + k40)
        e1 = sixth * (k11 + 2.0 * (k21 + k31) + k41)
        e2 = sixth * (k12 + 2.0 * (k22 + k32) + k42)
        e3 = sixth * (k13 + 2.0 * (k23 + k33) + k43)
        e4 = sixth * k44
        s = math.sqrt(  # e^T R e, R symmetric
            e0 * (e0 * r00 + 2.0 * (e1 * r01 + e2 * r02 + e3 * r03 + e4 * r04))
            + e1 * (e1 * r11 + 2.0 * (e2 * r12 + e3 * r13 + e4 * r14))
            + e2 * (e2 * r22 + 2.0 * (e3 * r23 + e4 * r24))
            + e3 * (e3 * r33 + 2.0 * e4 * r34)
            + e4 * e4 * r44
        )
        if not abs(s - 1.0) <= 1e-12:  # a NaN fails
            raise NumericalError(f"norm drift {s - 1.0:.3e} exceeds 1e-12 per step")
        weights[:] = (e0 / s, e1 / s, e2 / s, e3 / s, e4 / s)
        np.dot(weights, rows, out=rows[0])  # out aliases rows: np.dot writes through a copy
    return f.copy()


def integrate_nonlinear(
    eff: EffectiveHamiltonian, rho0: DensityMatrix, t: float, dt: float | None = None
) -> DensityMatrix:
    """RK4 integration of the trace-preserving nonlinear equation, run on the
    factor F = state_factor(rho0): the result F F^dag is positive and of unit
    trace by construction."""
    if not 0 <= t < math.inf:  # a NaN fails
        raise ValidationError(f"t must be nonnegative and finite, got {t}")
    if rho0.dim != eff.dim:
        raise BadDimensionError(f"state dim {rho0.dim} != generator dim {eff.dim}")
    if t == 0:
        return rho0
    f = _integrate_factor(eff, state_factor(rho0), t, dt)
    return DensityMatrix(f @ dagger(f))


def as_density_matrix(state) -> DensityMatrix:
    """state, or a raw matrix passed through DensityMatrix: the one rule."""
    return state if isinstance(state, DensityMatrix) else DensityMatrix(state)


def expectation(state, observable) -> float:
    """tr(rho X) for a state rho (as_density_matrix) and Hermitian X of its
    dimension; the imaginary part must sit below 1e-10."""
    rho = as_density_matrix(state).rho
    x = as_hermitian(observable)
    if x.shape != rho.shape:
        raise BadDimensionError(f"observable dim {x.shape[0]} != state dim {rho.shape[0]}")
    val = trace(rho @ x)
    if abs(val.imag) > 1e-10 * max(1.0, frobenius_norm(x)):
        raise NumericalError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def state_factor(state: DensityMatrix) -> np.ndarray:
    """F with F F^dag = state.rho (gated, so one eigh) and unit Frobenius
    norm: each eigenvector with weight above 1e-14 times the largest
    (rounding noise adds no column) times the square root of its weight."""
    eigenvalues, eigenvectors = np.linalg.eigh(state.rho)
    w = eigenvalues.tolist()  # ascending: the largest weights last
    first = bisect.bisect_right(w, 1e-14 * w[-1])
    f = eigenvectors[:, first:] * np.sqrt(eigenvalues[first:])
    return f / np.linalg.norm(f)


def _grid_chain(h_eff, rho0: DensityMatrix, t_max: float, n_samples: int):
    """(dt, exp(-i h_eff dt), F): the validated start of the chain on the
    factor F of rho0 over a uniform grid of n_samples times from 0 to t_max,
    dt = t_max / (n_samples - 1)."""
    m = as_cmatrix(h_eff)
    if rho0.dim != m.shape[0]:
        raise BadDimensionError(f"state dim {rho0.dim} != generator dim {m.shape[0]}")
    if not 0 < t_max < math.inf:
        raise ValidationError(f"t_max must be positive and finite, got {t_max}")
    if n_samples < 2:
        raise ValidationError(f"n_samples must be at least 2, got {n_samples}")
    dt = t_max / (n_samples - 1)
    return dt, expm(-1j * dt * m), state_factor(rho0)


class TrajectoryStates:
    """conditional_trajectory's states, held as rho0.rho and the chain's
    factors F_k (n - 1, dim, rank): a read-only sequence of shape (n, dim,
    dim) whose states (by int, negative too, or slice) are formed on reading
    by the chain's stacked matmul F_k F_k^dag, bit for bit."""

    def __init__(self, rho: np.ndarray, factors: np.ndarray):
        self._rho, self._factors = rho, factors
        self.shape = (len(factors) + 1,) + rho.shape

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key):
        ks = range(len(self))[key]
        if isinstance(ks, int):
            return self[ks : ks + 1][0]
        fs = self._factors[np.asarray(ks, dtype=np.intp) - 1]  # state 0 is rho, set below
        out = np.matmul(fs, dagger(fs))
        if 0 in ks:
            out[ks.index(0)] = self._rho
        return out


def conditional_trajectory(h_eff, rho0: DensityMatrix, t_max: float, n_samples: int):
    """Normalized conditional states on a uniform grid of n_samples times
    from 0 to t_max under a (possibly non-Hermitian) generator h_eff, with
    survival tracking: (times, survival, states), states a TrajectoryStates
    holding the chain's factors, stored one chain block at a time.  survival
    may reach exactly 0.0 once exp underflows; a trace that reaches 0 leaves
    no state to return and raises ProbabilityUnderflowError."""
    dt, a, f = _grid_chain(h_eff, rho0, t_max, n_samples)
    times = np.arange(n_samples) * dt
    survival = np.empty(n_samples)
    factors = np.empty((n_samples - 1,) + f.shape, dtype=complex)
    survival[0] = 1.0
    k = 1
    for p, fs in renormalized_blocks(a, f, n_samples - 1):
        survival[k : k + len(p)] = p
        factors[k - 1 : k - 1 + len(p)] = fs
        k += len(p)
    if k < n_samples:
        raise ProbabilityUnderflowError(f"conditional probability hit 0.0 at step {k}")
    return times, survival, TrajectoryStates(rho0.rho, factors)


def conditional_final_state(h_eff, rho0: DensityMatrix, t_max: float, n_samples: int):
    """(survival, state) at t_max from the chain's end alone
    (chain.renormalized_end): up to dimension 8 the last sample of
    conditional_trajectory with the same arguments, bit for bit, and the
    chain's end raises where and as that does."""
    _, a, f = _grid_chain(h_eff, rho0, t_max, n_samples)
    p, f = renormalized_end(a, f, n_samples - 1)
    return p, f @ dagger(f)


def basis_labels(dim: int) -> list[str]:
    """Bitstring labels when dim is a power of two, plain indices otherwise."""
    n = dim.bit_length() - 1
    if 2**n == dim and n >= 1:
        return [format(k, f"0{n}b") for k in range(dim)]
    return [str(k) for k in range(dim)]


def default_coherence_pair(dim: int, initial_index: int) -> tuple[int, int]:
    """Pair (k, dim-1-k) whose off-diagonal element the time series reports,
    k = min(initial_index, dim-1-initial_index).  The middle index of an odd
    dim has no partner: that raises ValidationError, as the pair would be a
    population."""
    k = min(initial_index, dim - 1 - initial_index)
    if k == dim - 1 - k:
        raise ValidationError(
            f"basis index {k} is the middle of dimension {dim}: no default coherence pair, set coherence_pair"
        )
    return (k, dim - 1 - k)


def write_timeseries_csv(path, times, survival, states, coherence_pair) -> None:
    """CSV with columns t,p,pop_<basis>...,re_coh,im_coh,purity, written by
    write_csv from the states (TrajectoryStates or a stack) one writer block
    at a time: each block's rows are one column_stack, one list of Python
    floats, so memory stays bounded however long the series.  coherence_pair
    (i, j) indexes the states as given; cli.run_simulate checks it before the
    chain runs."""
    dim = states.shape[1]
    i, j = coherence_pair
    header = ["t", "p"] + [f"pop_{s}" for s in basis_labels(dim)] + ["re_coh", "im_coh", "purity"]

    def block(part):
        s = states[part]
        coh = s[:, i, j]
        return np.column_stack(
            [
                times[part],
                survival[part],
                np.diagonal(s, axis1=1, axis2=2).real,
                coh.real,
                coh.imag,
                np.trace(s @ s, axis1=1, axis2=2).real,
            ]
        ).tolist()

    write_csv(path, header, len(states), block)
