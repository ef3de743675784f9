"""Exact simulation of the repeated-measurement protocol.

One protocol step is: evolve the composite system-ancilla state for tau
under the full Hamiltonian, measure the ancilla, keep the run only when the
ancilla is found in its initial state |0>, i.e. apply K = <0|U(tau)|0>,
which ProtocolConfig builds once: from dimension 32 on by a certified
Taylor series on the ancilla-|0> columns (effective.kraus_from_series),
else from its eigendecomposition of H.  Every
chain here runs K on the factor F of rho0 = F F^dag.  The filtered state
reads only the chain's end, chain.renormalized_end: a block of B steps is
one product K^B F, K^B formed by squarings, at dimension 256 from a mixed
start 9 products for 100 steps.  The exact survival curve reads every step,
chain.renormalized_blocks, up to 64 steps per stacked product, and the
waiting-time Monte Carlo is handed that curve and reads it alone (one
uniform per trajectory against it) to count survivors, so a protocol run
makes one chain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .chain import renormalized_blocks, renormalized_end
from .dynamics import (
    ConditionalState,
    DensityMatrix,
    P_MIN,
    evolve_conditional,
    normalize,
    state_factor,
)
from .effective import AncillaSpec, _check_tau, ancilla_order, derive_effective, kraus_from_eig, kraus_from_series
from .errors import (
    BadDimensionError,
    NumericalError,
    ProbabilityUnderflowError,
    StroboscopicRegimeWarning,
    ValidationError,
)
from .linalg import _is_count, as_cmatrix, dagger, frobenius_norm, hermitian_eig, write_csv

CHAIN_CONSISTENCY_RTOL = 1e-12
MAX_PROTOCOL_STEPS = 10**6
"""Largest protocol step count.  At the cap a 4-dimensional system's exact
curve takes 0.4-0.5 s from a pure start and 0.8-0.9 s from the maximally
mixed one, and a 1000-trajectory Monte Carlo 0.4-0.5 s and 0.8 s (2-core
Xeon, numpy 2.4), at a tracemalloc peak of 33 MB from either start."""
MAX_TRAJECTORIES = 10**9
"""Largest Monte Carlo trajectory count.  At the cap, 200 steps of a
4-dimensional system take 55 s from a pure or the maximally mixed start
(2-core Xeon, numpy 2.4), in O(MC_CHUNK + n_steps) memory."""
MC_CHUNK = 2**12
"""Monte Carlo (pick, u) rows drawn from the Philox stream at a time."""


def steps_for(t: float, tau: float) -> int:
    """round(t / tau) steps of length tau cover time t: at least 1, at most MAX_PROTOCOL_STEPS."""
    ratio = t / tau
    if not ratio <= MAX_PROTOCOL_STEPS + 0.5:  # round(ratio) > MAX_PROTOCOL_STEPS, or ratio inf or NaN
        raise ValidationError(f"t / tau = {t:g} / {tau:g} needs more than {MAX_PROTOCOL_STEPS} steps")
    return max(1, round(ratio))


@dataclass(frozen=True)
class ProtocolConfig:
    """Composite Hamiltonian, ancilla addressing, step length, step count, and
    the step K = <0| exp(-i H tau) |0>: kraus_from_series where its norm
    bound certifies tau times the Bohr spread below 1 (dimension 32 on), else
    kraus_from_eig of the one hermitian_eig of H.

    Emits StroboscopicRegimeWarning when tau times the largest Bohr frequency
    of H reaches 1; the protocol still runs, but the effective-generator
    picture stops being a useful approximation there.  The series route is
    taken only where the warning cannot fire, so the warning, its message,
    K and every error elsewhere are the eigh route's.
    """

    h: np.ndarray
    spec: AncillaSpec
    tau: float
    n_steps: int
    kraus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hm = as_cmatrix(self.h)
        if not _is_count(self.n_steps) or not 0 <= self.n_steps <= MAX_PROTOCOL_STEPS:
            raise ValidationError(f"n_steps must be an int in 0..{MAX_PROTOCOL_STEPS}, got {self.n_steps!r}")
        ancilla_order(hm.shape[0], self.spec)  # validates dimension and site
        object.__setattr__(self, "h", hm)
        _check_tau(self.tau)
        tau_spread = 0.0  # a step from the series route is certified below 1
        with np.errstate(over="ignore", invalid="ignore"):  # too wide a spectrum fails in kraus_from_eig
            kraus = kraus_from_series(hm, self.spec, self.tau)
            if kraus is None:
                eig = hermitian_eig(hm)
                tau_spread = self.tau * (eig.eigenvalues[-1] - eig.eigenvalues[0])
        if tau_spread >= 1.0:
            warnings.warn(
                f"tau * max Bohr frequency = {tau_spread:.3g} >= 1; "
                "stroboscopic limit not trustworthy",
                StroboscopicRegimeWarning,
                stacklevel=3,
            )
        if kraus is None:
            kraus = kraus_from_eig(eig, self.spec, self.tau)
        object.__setattr__(self, "kraus", kraus)

    @property
    def system_dim(self) -> int:
        return self.h.shape[0] // 2


def _chain_start(cfg: ProtocolConfig, rho0: DensityMatrix):
    """(K, F): the Kraus step and the factor of rho0 that start every chain here."""
    if rho0.dim != cfg.system_dim:
        raise BadDimensionError(f"state dim {rho0.dim} != system dim {cfg.system_dim}")
    return cfg.kraus, state_factor(rho0)


def simulate_conditional(cfg: ProtocolConfig, rho0: DensityMatrix) -> ConditionalState:
    """Deterministic filtered state after n_steps successful measurements.

    The survival probability is accumulated two independent ways, as the
    trace of K^n rho0 K^n dagger and as the telescoping product of block
    conditional probabilities of chain.renormalized_end (one product K^B F
    per block, B = end_block_size, the same B and bits as the last block of
    renormalized_blocks up to dimension 8); both must agree to
    CHAIN_CONSISTENCY_RTOL.  A trace that reaches 0 (the chain's end raises)
    or a probability at or below P_MIN leaves no state to normalize:
    ProbabilityUnderflowError.
    """
    k, f = _chain_start(cfg, rho0)
    if cfg.n_steps == 0:
        return ConditionalState(rho_c=rho0.rho.copy(), p=1.0)
    # K^n is released before the chain runs, so the two never share the peak
    k_pow = np.linalg.matrix_power(k, cfg.n_steps)
    p_direct = np.trace(k_pow @ rho0.rho @ dagger(k_pow)).real
    del k_pow
    p_chain, f = renormalized_end(k, f, cfg.n_steps)
    if p_direct > 1e-250:
        gap = abs(p_direct - p_chain)
        if gap > CHAIN_CONSISTENCY_RTOL * max(p_direct, p_chain):
            raise NumericalError(
                f"survival probability routes disagree: {p_direct:.15e} vs {p_chain:.15e}"
            )
    if p_chain <= P_MIN:
        raise ProbabilityUnderflowError(
            f"survival probability {p_chain:.3e} at or below floor {P_MIN:g}"
        )
    p = min(p_chain, 1.0)
    return ConditionalState(rho_c=(f * p) @ dagger(f), p=p)


def conditional_survival_curve(cfg: ProtocolConfig, rho0: DensityMatrix) -> np.ndarray:
    """Exact survival probability after each of the n_steps measurements,
    read from every step of the chain; exactly 0.0 from the step on which the
    conditional trace reaches 0."""
    k, f = _chain_start(cfg, rho0)
    curve = np.zeros(cfg.n_steps)
    step = 0
    for p, _ in renormalized_blocks(k, f, cfg.n_steps):
        curve[step : step + len(p)] = p
        step += len(p)
    return curve


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Survivor counts after each step of a Monte Carlo run:
    survival_counts[k] is the number of trajectories still alive after
    measurement k+1."""

    n_traj: int
    survival_counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.survival_counts, dtype=np.int64)
        if counts.size and (np.any(np.diff(counts) > 0) or counts[0] > self.n_traj):
            raise NumericalError("survivor counts must be non-increasing")
        object.__setattr__(self, "survival_counts", counts)

    def empirical_survival(self) -> np.ndarray:
        return self.survival_counts / self.n_traj


def simulate_trajectories(survival, n_traj: int, seed: int) -> TrajectoryEnsemble:
    """Monte Carlo survivor counts for n_traj independent trajectories of a
    run from rho0, given its exact survival curve: survival =
    conditional_survival_curve(cfg, rho0).

    Waiting-time sampler (Dalibard, Castin and Molmer, PRL 68, 580 (1992)):
    whatever eigenket of rho0 a trajectory starts in, its waiting time T has
    P(T > n) = p_n, the exact survival curve, so it survives step n exactly
    when one uniform u < p_n; the curve does not increase, so that holds on
    a prefix of the steps.  T is n_steps minus the number of curve values
    <= u, one binary search in the reversed curve; no uniform is sorted.
    Row i of one Philox stream's (pick, u) rows is trajectory i, drawn
    MC_CHUNK rows at a time, so a run's first N trajectories are those of an
    n_traj=N run.  Memory is O(MC_CHUNK + n_steps).  A curve that is not 1-D
    or has a value not >= 0 (NaN too) raises ValidationError; a value a
    rounding above 1 is accepted, as the step's norm check accepts K.
    """
    if not _is_count(n_traj) or not 1 <= n_traj <= MAX_TRAJECTORIES:
        raise ValidationError(f"n_traj must be an int in 1..{MAX_TRAJECTORIES}, got {n_traj!r}")
    if not _is_count(seed) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative int, got {seed!r}")
    survival = np.asarray(survival, dtype=float)
    if survival.ndim != 1:
        raise ValidationError(f"survival curve must be 1-D, got shape {survival.shape}")
    # ||K||_2 may exceed 1 by rounding; a rising curve would let survivor
    # counts rise too.  Written into a reversed view: the curve, ascending.
    rising = np.empty_like(survival)
    np.minimum.accumulate(survival, out=rising[::-1])
    if survival.size and not rising[0] >= 0:  # the curve's minimum; NaN propagates to it
        raise ValidationError(f"survival curve must be >= 0, got a minimum of {rising[0]}")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # hist[s]: trajectories with s curve values <= u, i.e. waiting n_steps - s steps
    hist = np.zeros(survival.size + 1, dtype=np.int64)
    for start in range(0, n_traj, MC_CHUNK):
        # (pick, u) rows, u alone read: the unused pick column keeps the
        # stream's layout, so a seed keeps the survivor counts tests/golden pins
        u = rng.random((min(MC_CHUNK, n_traj - start), 2))[:, 1]
        np.add.at(hist, np.searchsorted(rising, u, side="right"), 1)
    del rising  # released before the counts, so the two never share the peak
    counts = n_traj - np.cumsum(hist[:0:-1])  # hist[:0:-1][w]: trajectories waiting w steps
    return TrajectoryEnsemble(n_traj=n_traj, survival_counts=counts)


def stroboscopic_error(cfg: ProtocolConfig, rho0: DensityMatrix) -> float:
    """Frobenius distance between the normalized exact protocol state and the
    normalized effective-generator state at t = n_steps * tau."""
    exact = normalize(simulate_conditional(cfg, rho0))
    eff = derive_effective(cfg.h, cfg.spec, cfg.tau)
    approx = normalize(evolve_conditional(eff, rho0, cfg.n_steps * cfg.tau))
    return frobenius_norm(exact.rho - approx.rho)


def write_ensemble_csv(path, ensemble: TrajectoryEnsemble, p_exact) -> None:
    """CSV with columns step,survivors,p_exact,p_empirical (one row per step),
    each writer block's rows formed from the arrays when write_csv asks, so
    a long ensemble is split into parts like any other table."""
    p_exact, counts = np.asarray(p_exact, dtype=float), ensemble.survival_counts
    if p_exact.shape != counts.shape:
        raise BadDimensionError(f"p_exact length {p_exact.size} != step count {counts.size}")
    empirical = ensemble.empirical_survival()

    def block(part):
        cells = (a[part].tolist() for a in (counts, p_exact, empirical))
        return list(zip(range(part.start + 1, part.stop + 1), *cells))

    write_csv(path, ["step", "survivors", "p_exact", "p_empirical"], p_exact.size, block)
